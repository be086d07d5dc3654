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
    out = bench_pairs.summarize(pairs, BETTER)
    compute = out["compute_s"]
    assert (compute["unit"], compute["better"]) == ("s", "lower")
    assert compute["parent"] == {"median": 0.56, "q1": 0.55, "q3": 0.57}
    assert compute["change"] == {"median": 0.52, "q1": 0.51, "q3": 0.53}
    assert (compute["change_won"], compute["pairs"]) == (4, 5)
    # a tie is not a win
    assert out["setup_s"]["change_won"] == 0
    assert out["peak_rss_mb"]["change_won"] == 2
    assert out["parent_runs"] == {"attempted": 300, "failed": 0,
                                  "correct": True}


def test_higher_is_better_and_one_pair():
    pairs = [(line(0.5, failed=1), line(0.4, correct=False))]
    out = bench_pairs.summarize(pairs, {"compute_s": "higher"})
    assert out["compute_s"]["change_won"] == 0
    assert out["compute_s"]["parent"] == {"median": 0.5, "q1": 0.5,
                                          "q3": 0.5}
    assert out["parent_runs"]["failed"] == 1
    assert out["change_runs"]["correct"] is False
    assert set(out) == {"compute_s", "parent_runs", "change_runs"}
