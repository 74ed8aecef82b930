"""Smoke test of ``tests/bench_pairs.py``'s summary on canned result
lines; no benchmark runs."""

import json

from bench_pairs import parse_result, parse_seeds, summarize

END_TO_END = [{"name": "wall_ref", "better": "lower", "bound": 0.25},
              {"name": "items_per_ref", "better": "higher", "bound": 0.25}]


def line(wall, items, correct=True, failed=0):
    """The last stdout line of one ``perfbench/run.py`` run."""
    return json.dumps({"correct": correct, "attempted": 20, "failed": failed,
                       "metrics": {"wall_ref": {"value": wall, "unit": "ref"},
                                   "items_per_ref": {"value": items,
                                                     "unit": "items/ref"}}})


def test_seeds():
    assert parse_seeds("601-604") == [601, 602, 603, 604]
    assert parse_seeds("3,5") == [3, 5]


def test_summary_of_canned_pairs():
    parent = [line(10.0, 100.0), line(11.0, 98.0), line(12.0, 99.0),
              line(10.5, 101.0)]
    change = [line(13.0, 100.5), line(14.0, 99.0), line(15.0, 80.0,
                                                         correct=False),
              line(13.5, 101.5, failed=2)]
    pairs = [(600 + i, parse_result(f"human lines\n{p}\n"),
              parse_result(c)) for i, (p, c) in enumerate(zip(parent, change))]
    out = summarize(pairs, END_TO_END)
    wall, items, *flagged = out
    assert wall.startswith("wall_ref: parent 10.75 [10.38, 11.25]  "
                           "change 13.75 [13.38, 14.25]  +27.9%")
    assert "change better 0/4" in wall and "gap > parent IQR" in wall
    assert "WORSE than bound 25%" in wall
    assert "change better 3/4" in items and "within bound" in items
    assert flagged == ["seed 602 change: correct=False failed=0",
                       "seed 603 change: correct=True failed=2"]


def test_a_run_without_a_result_line_is_flagged():
    assert parse_result("Traceback ...\n")["correct"] is False
    pairs = [(1, parse_result(line(1.0, 1.0)), parse_result(""))]
    assert summarize(pairs, END_TO_END)[-1] == (
        "seed 1 change: correct=False failed=None no result line")
