"""Tests of the benchmark itself: every workload in smoke mode, both paths.

    python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import SETUPS, SIZES, exact_level, null_tests, rejection_bound  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "peak_rss_mib", "evals_per_s", "call_s_p50"}


def run_bench(*args, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def declared(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", sorted(SETUPS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = declared("end_to_end" if trace == "0" else "per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert set(expected) == END_TO_END
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_program_exits_without_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: nothing to measure.
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rejection_bound_is_a_binomial_tail():
    # 10 null tests at level 1/20: P(X >= 6) < 1e-5 <= P(X >= 5).
    assert rejection_bound(10, 0.05) == 5
    assert exact_level(39) == 0.05
    assert exact_level(200) == 10 / 201


@pytest.mark.parametrize("size", sorted(SIZES))
def test_null_rejection_check_can_fail(size):
    tests, bound = null_tests(SIZES[size]["test"])
    assert bound < tests


def test_self_time_subtracts_children_across_threads():
    tracer = Tracer()
    tracer.records = [
        ["parent", 1, 0.0, 10.0, None],
        ["child", 1, 1.0, 3.0, 0],
        ["worker", 2, 4.0, 8.0, None],  # pool thread: charged to "parent"
        ["worker", 3, 5.0, 9.0, None],
    ]
    self_s, calls = tracer.self_times(main_thread=1)
    assert self_s["parent"] == pytest.approx(10.0 - 2.0 - 5.0)
    assert self_s["child"] == pytest.approx(2.0)
    assert self_s["worker"] == pytest.approx(8.0)
    assert calls["worker"] == 2


def test_span_records_nest_per_thread():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    def outer():
        tracer._span("leaf", leaf, (), {})

    tracer._span("outer", outer, (), {})
    thread = threading.Thread(target=tracer._span, args=("leaf", leaf, (), {}))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    names = [(r[0], r[4]) for r in tracer.records]
    assert names == [("outer", None), ("leaf", 0), ("leaf", None)]
