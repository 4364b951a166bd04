"""The benchmark's own arithmetic.  Run with ``python3 -m pytest perfbench/tests``."""

import ast

import pytest

import refloop
import stats
from spans import SpanRecorder


# ---------------------------------------------------------------- tail rule
@pytest.mark.parametrize(
    "n, pct",
    [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct):
    values = list(range(1, n + 1))
    got_pct, value, got_n = stats.tail(values)
    assert (got_pct, got_n) == (pct, n)
    beyond = sum(1 for v in values if v > value)
    assert beyond >= stats.TAIL_BEYOND
    # The next rung up would leave fewer than ten beyond.
    higher = [p for p in stats.TAIL_LADDER if p > pct]
    if higher:
        nxt = stats.percentile(values, min(higher))
        assert sum(1 for v in values if v > nxt) < stats.TAIL_BEYOND


def test_tail_refuses_samples_too_small_for_any_percentile():
    with pytest.raises(ValueError):
        stats.tail(list(range(19)))


def test_percentile_is_nearest_rank_and_order_free():
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile([5, 1, 4, 2, 3], 100) == 5
    assert stats.percentile([5, 1, 4, 2, 3], 1) == 1


# ---------------------------------------------------------------- self time
def test_self_time_subtracts_nested_children_once():
    spans = [
        (1, 0, "raft.handle", 0.0, 10.0),
        (2, 1, "net.send", 2.0, 5.0),
        (3, 2, "storage.append", 3.0, 4.0),
        (4, 1, "net.send", 6.0, 7.0),
    ]
    folded = stats.self_times(spans)
    assert folded["raft.handle"] == (1, 10.0, 6.0)
    assert folded["net.send"] == (2, 4.0, 3.0)
    assert folded["storage.append"] == (1, 1.0, 1.0)


def test_self_time_takes_the_union_of_overlapping_children_clipped_to_parent():
    spans = [
        (1, 0, "cluster.steady", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),
        (4, 1, "c", 9.0, 12.0),
    ]
    assert stats.self_times(spans)["cluster.steady"] == (1, 10.0, 10.0 - 5.0 - 1.0)


def test_span_recorder_links_parents_through_wrapped_methods():
    class Network:
        def send(self):
            return "sent"

    class Node:
        def __init__(self):
            self.network = Network()

        def on_message(self):
            return self.network.send()

    class Follower(Node):
        pass

    recorder = SpanRecorder()
    recorder.wrap(Node, "on_message", "raft.handle")
    recorder.wrap(Network, "send", "net.send")
    recorder.wrap(Follower, "on_message", "follower.handle")
    assert Follower().on_message() == "sent"
    assert recorder.call("root", Node().on_message) == "sent"
    recorder.end_episode()
    recorder.restore()
    assert "on_message" not in vars(Follower)
    assert Node.on_message.__name__ == "on_message" and not hasattr(Node.on_message, "__wrapped__")
    assert recorder.count("raft.handle") == 2
    assert recorder.count("net.send") == 2
    assert recorder.count("follower.handle") == 1
    by_id = {span[1]: span for span in recorder.kept}
    names = {span[3]: span for span in recorder.kept}
    for episode, span_id, parent, name, start, end in recorder.kept:
        assert episode == 0 and start <= end
        if parent:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]
    assert names["root"][2] == 0
    total, own = recorder.total_s("root"), recorder.self_s("root")
    assert 0.0 <= own <= total


# ------------------------------------------------------------ cost and share
def test_cost_norm_is_reference_runs_per_thousand_events():
    # 3 s of episodes at 0.5 s per reference run is 6 runs, over 3,000 events.
    assert stats.cost_norm([1.0, 2.0], [0.5, 0.5], 3.0) == pytest.approx(2.0)
    # Halving the machine's speed doubles both timings and changes nothing.
    assert stats.cost_norm([2.0, 4.0], [1.0, 1.0], 3.0) == pytest.approx(2.0)
    # More episodes of the same cost per event read the same.
    assert stats.cost_norm([1.0, 2.0] * 3, [0.5] * 6, 9.0) == pytest.approx(2.0)


def test_cost_norm_uses_the_mean_reference_run_however_many_were_taken():
    assert stats.cost_norm([1.0, 2.0, 3.0], [0.4, 0.8], 6.0) == pytest.approx(1.0 / 0.6)


@pytest.mark.parametrize(
    "episode_s, ref_s, kevents",
    [([1.0], [], 1.0), ([], [0.5], 1.0), ([1.0], [1.0], 0.0)],
)
def test_cost_norm_rejects_empty_input(episode_s, ref_s, kevents):
    with pytest.raises(ValueError):
        stats.cost_norm(episode_s, ref_s, kevents)


def test_ok_share_of_ops_needs_outcomes_that_partition_the_issued_ops():
    assert stats.ok_share_ops(100, 80, 12, 3, 5) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        stats.ok_share_ops(100, 80, 12, 3, 4)
    with pytest.raises(ValueError):
        stats.ok_share_ops(0, 0, 0, 0, 0)


def test_ok_share_of_episodes_counts_converged_ones():
    assert stats.ok_share_episodes([True, True, False, True]) == 0.75
    with pytest.raises(ValueError):
        stats.ok_share_episodes([])


# ------------------------------------------------------------------- digest
def test_digest_is_stable_and_sensitive_to_order_and_every_bit():
    records = [(1, True, 1875.5, "raft"), (2, False, 3001.25, "escape")]
    assert stats.digest(records) == stats.digest(list(records))
    assert stats.digest(records) != stats.digest(records[::-1])
    nudged = [(1, True, 1875.5000000000002, "raft"), records[1]]
    assert stats.digest(records) != stats.digest(nudged)


# ----------------------------------------------------------- reference loop
def test_reference_loop_is_deterministic_and_stdlib_only():
    assert refloop.run(2000) == refloop.run(2000)
    tree = ast.parse(open(refloop.__file__, encoding="utf-8").read())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert imported <= {"__future__", "gc", "heapq", "time"}
