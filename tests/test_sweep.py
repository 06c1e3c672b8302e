"""The sweep and edge tables: each point's outcome, and for each checked
value whether it is inside its ACCEPTANCE bound, as recorded in
sweep_expected.json and edge_expected.json.  A change that fixes or breaks
a point shows up here as a mismatch, and is recorded by rewriting the files
(see sweep.py).  Every sweep point is inside every bound; the edge table is
recorded as computed, with no gate on its flags."""

import json

import pytest

from sweep import EDGE_EXPECTED, EXPECTED, edge_points, flips, point_id, run_point, sweep_points

ROWS = {row["point"]: row for row in json.loads(EXPECTED.read_text())}
EDGE_ROWS = {row["point"]: row for row in json.loads(EDGE_EXPECTED.read_text())}


def test_table_covers_the_sweep():
    assert list(ROWS) == [point_id(p) for p in sweep_points()]
    assert len(ROWS) == 36


@pytest.mark.parametrize("point", sweep_points(), ids=point_id)
def test_point_matches_table(point):
    row, expected = run_point(point), ROWS[point_id(point)]
    assert row["outcome"] == expected["outcome"]
    assert row.get("inside") == expected.get("inside")


def test_every_sweep_point_is_inside_every_bound():
    rows = [run_point(p) for p in sweep_points()]
    assert [row["point"] for row in rows if row["outcome"] != "pass"] == []
    assert [f"{row['point']} {k}" for row in rows for k, ok in row["inside"].items() if not ok] == []


def test_edge_table_covers_the_corners():
    assert list(EDGE_ROWS) == [point_id(p) for p in edge_points()]
    assert len(EDGE_ROWS) == 18


@pytest.mark.parametrize("point", edge_points(), ids=point_id)
def test_edge_point_matches_table(point):
    row, expected = run_point(point), EDGE_ROWS[point_id(point)]
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
