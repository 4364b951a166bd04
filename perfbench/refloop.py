"""The calibration loop every speed figure is divided by.

A fixed amount of pure-Python work shaped like a discrete-event simulation:
slotted event objects pushed through a binary heap, handlers looked up in a
dict and called, per-node counters bumped.  It imports only the standard
library and never ``repro``, so no change to the program under test can move
it; only the machine can.  Timing it right beside each episode and dividing
turns wall time into reference units, which cancels most of the drift a
shared machine shows within minutes.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Events pushed through the heap per call; sized so one call takes roughly
#: 17 ms on a 2-CPU cloud VM under CPython 3.11.
EVENTS = 16_000

_NODES = 64


class _Event:
    __slots__ = ("due", "seq", "node", "kind")

    def __init__(self, due: int, seq: int, node: int, kind: int) -> None:
        self.due = due
        self.seq = seq
        self.node = node
        self.kind = kind


class _Node:
    __slots__ = ("received", "sent", "term")

    def __init__(self) -> None:
        self.received = 0
        self.sent = 0
        self.term = 0

    def on_message(self, event: _Event) -> int:
        self.received += 1
        if event.kind == 2:
            self.term += 1
        return (event.node * 7 + event.kind) % _NODES

    def on_timer(self, event: _Event) -> int:
        self.sent += 1
        return (event.node + self.term) % _NODES


def run(events: int = EVENTS) -> int:
    """Run the loop once and return a checksum that depends on every step."""
    nodes = [_Node() for _ in range(_NODES)]
    handlers = {0: _Node.on_message, 1: _Node.on_timer, 2: _Node.on_message}
    heap: list[tuple[int, int, _Event]] = []
    state = 12345
    seq = 0
    for node in range(_NODES):
        seq += 1
        heapq.heappush(heap, (node, seq, _Event(node, seq, node, 1)))
    done = 0
    checksum = 0
    while done < events:
        due, _, event = heapq.heappop(heap)
        target = handlers[event.kind](nodes[event.node], event)
        done += 1
        # A 32-bit LCG keeps the draw sequence identical on every platform.
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        seq += 1
        heapq.heappush(
            heap,
            (due + 1 + (state >> 20) % 200, seq,
             _Event(due, seq, target, (state >> 8) % 3)),
        )
        checksum = (checksum + target * done) & 0xFFFFFFFF
    return checksum ^ sum(node.received + node.sent for node in nodes)


def timed() -> float:
    """Wall seconds one :func:`run` takes right now.

    The cyclic garbage collector is paused meanwhile: otherwise the loop
    would pay, at random, for collecting the previous episode's simulated
    cluster, and measure the program instead of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
