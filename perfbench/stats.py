"""The benchmark's own arithmetic, kept free of ``repro`` so it can be tested
on its own: percentiles, span self time, normalised cost, failure shares and
the output digest.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER: tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it may be reported.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100.0))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(pct, value, n)``.  Raises ``ValueError`` when the sample is
    too small for even the median to have ten samples beyond it.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct * n / 100.0))
        if n - rank >= TAIL_BEYOND:
            return pct, percentile(values, pct), n
    raise ValueError(
        f"{n} samples: no percentile has {TAIL_BEYOND} samples beyond it"
    )


def cost_norm(
    episode_s: Sequence[float], ref_s: Sequence[float], kevents: float
) -> float:
    """Reference-loop runs per thousand simulated events.

    ``sum(episode wall) / mean(reference wall)`` is the episodes' work in
    runs of the reference loop, which is timed between episodes throughout
    the run so that machine drift divides out; dividing by the thousands of
    events the episodes executed in total makes the figure independent of
    how much simulation a particular seed happened to need.
    """
    if not episode_s or not ref_s:
        raise ValueError("need episode timings and reference timings")
    if kevents <= 0:
        raise ValueError("no simulated events were executed")
    return sum(episode_s) / (sum(ref_s) / len(ref_s)) / kevents


def ok_share_episodes(converged: Iterable[bool]) -> float:
    """Failover workloads: episodes that elected a new leader / episodes."""
    flags = list(converged)
    if not flags:
        raise ValueError("no episodes")
    return sum(1 for flag in flags if flag) / len(flags)


def ok_share_ops(
    issued: int, committed: int, dropped: int, rejected: int, lost: int
) -> float:
    """Serving workloads: committed ops / issued ops.

    Every issued op ends in exactly one of committed, dropped, rejected or
    lost; a count that does not add up is a broken run, not a statistic.
    """
    if issued <= 0:
        raise ValueError("no ops were issued")
    if committed + dropped + rejected + lost != issued:
        raise ValueError(
            f"op outcomes do not partition the issued ops: {committed} "
            f"committed + {dropped} dropped + {rejected} rejected + {lost} "
            f"lost != {issued} issued"
        )
    return committed / issued


def self_times(
    spans: Iterable[tuple[int, int, str, float, float]],
) -> dict[str, tuple[int, float, float]]:
    """Fold spans into ``name -> (count, total seconds, self seconds)``.

    Each span is ``(span_id, parent_id, name, start, end)`` with
    ``parent_id == 0`` at the root.  A span's self time is its duration minus
    the part of its interval covered by its direct children (their union,
    clipped to the parent), so overlapping or nested children are never
    subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    folded: dict[str, list[float]] = {}
    for span_id, _, name, start, end in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = folded.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += (end - start) - covered
    return {name: (int(c), total, own) for name, (c, total, own) in folded.items()}


def digest(records: Iterable[Sequence[object]]) -> str:
    """SHA-256 over the simulated outputs, in the order given.

    Floats are written with ``repr`` so every bit counts; the digest of the
    same seeds is therefore identical across runs, engines and tracing.
    """
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(("|".join(repr(field) for field in record) + "\n").encode())
    return hasher.hexdigest()[:16]
