"""tools/bench_pairs.py: the summary of same-session benchmark pairs."""

import json
import sys
from pathlib import Path

# the tools are scripts: they import each other from their own directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402

BETTER = {"compute_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}


def line(compute_s, setup_s=0.08, rss=50.0, failed=0, correct=True):
    """One result line as bench/run.py prints it."""
    return json.dumps({"correct": correct, "attempted": 60, "failed": failed,
                       "metrics": {
                           "compute_s": {"value": compute_s, "unit": "s"},
                           "setup_s": {"value": setup_s, "unit": "s"},
                           "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_medians_quartiles_and_wins():
    pairs = [(line(0.56, rss=50.0), line(0.52, rss=50.5)),
             (line(0.55, rss=51.0), line(0.53, rss=50.0)),
             (line(0.57, rss=50.0), line(0.58, rss=50.0)),
             (line(0.54, rss=50.0), line(0.51, rss=49.0)),
             (line(0.58, rss=50.0), line(0.50, rss=51.0))]
    # alternating, as bench_pairs runs them
    firsts = ["parent", "change", "parent", "change", "parent"]
    out = bench_pairs.summarize(pairs, BETTER, firsts)
    compute = out["compute_s"]
    assert (compute["unit"], compute["better"]) == ("s", "lower")
    assert compute["parent"] == {"median": 0.56, "q1": 0.55, "q3": 0.57}
    assert compute["change"] == {"median": 0.52, "q1": 0.51, "q3": 0.53}
    assert (compute["change_won"], compute["pairs"]) == (4, 5)
    # the side that ran first was worse in pairs 0 and 4, both the parent
    assert compute["first_lost"] == 2
    # a tie is not a win, and no side loses it
    assert out["setup_s"]["change_won"] == out["setup_s"]["first_lost"] == 0
    assert out["peak_rss_mb"]["change_won"] == 2
    assert out["peak_rss_mb"]["first_lost"] == 0
    assert out["parent_runs"] == {"attempted": 300, "failed": 0,
                                  "correct": True}


def test_higher_is_better_and_one_pair():
    pairs = [(line(0.5, failed=1), line(0.4, correct=False))]
    out = bench_pairs.summarize(pairs, {"compute_s": "higher"}, ["change"])
    assert out["compute_s"]["change_won"] == 0
    assert out["compute_s"]["first_lost"] == 1
    assert out["compute_s"]["parent"] == {"median": 0.5, "q1": 0.5,
                                          "q3": 0.5}
    assert out["parent_runs"]["failed"] == 1
    assert out["change_runs"]["correct"] is False
    assert set(out) == {"compute_s", "parent_runs", "change_runs"}


def test_first_lost_counts_the_first_side_whichever_tree_it_is():
    # the first run of each pair reads slower: every pair is a first loss,
    # while the change wins only the pairs the parent ran first in
    slow, fast = line(0.60), line(0.50)
    pairs = [(slow, fast), (fast, slow), (slow, fast), (fast, slow)]
    firsts = ["parent", "change", "parent", "change"]
    compute = bench_pairs.summarize(pairs, BETTER, firsts)["compute_s"]
    assert (compute["first_lost"], compute["change_won"]) == (4, 2)
    # the same runs in the other order: no first loss
    compute = bench_pairs.summarize(pairs, BETTER, firsts[::-1])["compute_s"]
    assert (compute["first_lost"], compute["change_won"]) == (0, 2)
