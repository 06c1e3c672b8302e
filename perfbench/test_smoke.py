"""Smoke test of the benchmark itself.

    python -m pytest perfbench/test_smoke.py

Each workload runs at its smallest op count (``--seconds 1``), untraced and
traced, in a copy of the checkout made under pytest's temporary directory.
The test checks the result line against BENCHMARK.json (every metric named,
with its unit), and that the run wrote nothing but its span files: the op
artifacts live in a temporary directory that is gone when the run ends.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ".perfbench_out"


def _checkout(dst, with_src=True):
    skip = shutil.ignore_patterns("__pycache__", OUT)
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, dst / path, ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=skip)


def _files(root):
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _run(cwd, workload, trace):
    argv = BENCH["command"] + ["--workload", workload, "--seed", "0",
                               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload):
    _checkout(tmp_path)
    before = _files(tmp_path)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(tmp_path, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
        expected = {m["name"]: m["unit"] for m in BENCH[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.startswith(f"# {name} = ") and line.endswith(f" {unit}")
                       for line in lines), name

        meta = json.loads(next(line for line in lines if line.startswith("# meta "))[7:])
        tmp_dir = Path(meta["tmp_dir"])
        assert tmp_dir.parent == tmp_path / OUT / "tmp"
        assert not tmp_dir.exists()
        assert meta["src_lines"] > 0 and meta["threads"]["OMP_NUM_THREADS"] == "1"

    added = _files(tmp_path) - before
    assert added == {Path(OUT) / f"spans-{workload}-0.jsonl"}


def test_fails_without_the_program(tmp_path):
    _checkout(tmp_path, with_src=False)
    proc = _run(tmp_path, "contract", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
