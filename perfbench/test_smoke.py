"""Quick check of the benchmark itself: one job per workload, with its output check.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

# The cheapest job of each workload; cohomology-sparse has only its 7 s job.
SMOKE_JOBS = {
    "cohomology-sparse": "cohomology-dim8-regular",
    "cohomology-dense": "cohomology-dim4conj-regular",
    "extensions": "deform-check-dim4-conj",
    "search": "search-operator-d2-p3",
}


def _runner(tmp_path: Path, workload: str, seed: int) -> run.Runner:
    fx = workloads.generate(workload, seed, tmp_path)
    fx.jobs = [job for job in fx.jobs if job.name == SMOKE_JOBS[workload]]
    expected = json.loads(run.EXPECTED.read_text())[workload]
    return run.Runner(ROOT, tmp_path, fx, expected, record=False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 7])
def test_one_job_per_workload(tmp_path, workload, seed):
    runner = _runner(tmp_path, workload, seed)
    (job,) = runner.fx.jobs
    _, code, stdout, _ = runner.spawn(["-m", "antiprelie.cli", *runner.argv(job)], "job")
    runner.judge(job, code, stdout)
    assert runner.errors == []
    assert (runner.attempted, runner.failed) == (1, 0)


def test_traced_pass_reports_every_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = _runner(tmp_path, "search", run.DEFAULT_SEED)
    layers = run.traced_passes(runner, seconds=0)
    assert runner.errors == []
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    assert layers["search.candidates"] == 81
