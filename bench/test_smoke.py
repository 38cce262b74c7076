"""Smoke test of the benchmark itself, at the smallest input sizes.

    python -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smallest")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    if not trace:
        for name in ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms",
                     "peak_rss_mib", "fail_share"):
            assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_output_raises_fail_share(workload):
    def tamper(jobs):
        jobs[0].expected = "deliberately wrong"

    clean = run.measure(workload, 7, 1, False, smallest=True)
    tampered = run.measure(workload, 7, 1, False, smallest=True,
                           tamper=tamper)

    def share(result):
        return result["end_to_end"]["fail_share"][0]

    assert share(tampered) > share(clean)
    assert tampered["correct"] is False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    generate, _ = workloads.WORKLOADS[workload]

    def inputs(seed):
        return generate(run.random.Random(f"{workload}:{seed}"), True,
                        tmp_path)

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "structure", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
