"""Smoke tests for the pipeline benchmark.

    python -m pytest perfbench/tests

Each workload runs one tiny batch, traced and untraced, and must be correct;
the generator must be byte-identical for a seed.
"""

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from tracer import PER_LAYER  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_is_correct(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", 5, "--seconds", 0,
                     "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only:
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(_same_tree(a / d, b / d) for d in cmp.common_dirs)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_identical_per_seed(workload, tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.make_batch(workload, seed, 1, str(tmp_path / name))
    assert _same_tree(tmp_path / "a", tmp_path / "b")
    assert not _same_tree(tmp_path / "a", tmp_path / "c")


def test_benchmark_json_lists_the_traced_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in spec()["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec()["workloads"]] == list(gen.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "eval-sweep", "--seed", 1, "--seconds", 1, "--trace", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
