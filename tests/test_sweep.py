"""The sweep table: each admissible sweep point's outcome, and for each
checked value whether it is inside its ACCEPTANCE bound, as recorded in
sweep_expected.json.  A change that fixes or breaks a point shows up here
as a mismatch, and is recorded by rewriting the file (see sweep.py)."""

import json

import pytest

from sweep import EXPECTED, flips, point_id, run_point, sweep_points

ROWS = {row["point"]: row for row in json.loads(EXPECTED.read_text())}


def test_table_covers_the_sweep():
    assert list(ROWS) == [point_id(p) for p in sweep_points()]
    assert len(ROWS) == 36


@pytest.mark.parametrize("point", sweep_points(), ids=point_id)
def test_point_matches_table(point):
    row, expected = run_point(point), ROWS[point_id(point)]
    assert row["outcome"] == expected["outcome"]
    assert row.get("inside") == expected.get("inside")


def test_write_reports_each_flip():
    # the lines --write prints: a changed outcome, a flag that flips, and a
    # flag one side lacks; equal rows print nothing
    old = [{"point": "a", "outcome": "pass", "inside": {"f": False, "g": True}},
           {"point": "b", "outcome": "pass", "inside": {"f": True}},
           {"point": "c", "outcome": "pass", "inside": {"f": True}}]
    new = [{"point": "a", "outcome": "pass", "inside": {"f": True, "g": True}},
           {"point": "b", "outcome": "ResolutionError"},
           {"point": "c", "outcome": "pass", "inside": {"f": True}}]
    assert flips(old, new) == ["a f False → True", "b outcome pass → ResolutionError", "b f True → None"]
