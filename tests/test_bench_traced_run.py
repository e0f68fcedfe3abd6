"""The benchmark's traced run: each workload through ``bench/worker.py``'s
``run_job`` with the tracer on, and the known-failure probes under the
tracer.  These fail when a change in ``src/`` breaks what the tracer
records: a renamed target, a counted attribute that moved, counts that
vary with pool timing, or a callable bound lazily into an rbdsdep
module."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: a wall-clock check: its 1 ms floor is within the noise of short traced
#: calls on a loaded machine, so a miss there is not a fault of the code
WALL_CLOCK = "layer_self_times_account_for_run_s"


@pytest.fixture(scope="module")
def worker():
    """bench/worker.py as is, with bench/ on sys.path for its imports."""
    before = set(sys.modules)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    for name in set(sys.modules) - before:
        if str(BENCH) in str(getattr(sys.modules[name], "__file__", "")):
            del sys.modules[name]


@pytest.mark.parametrize("workload", ["lsmc", "envelope", "bracketing", "compare_deep"])
def test_traced_run_passes_its_checks(worker, tmp_path, workload):
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps(worker.wl.workload_config(workload, 1)))
    result = worker.run_job(
        {
            "workload": workload,
            "config": str(config),
            "out_dir": str(tmp_path / "reports"),
            "seconds": 1,
            "trace": True,
            "spans": str(tmp_path / "spans.jsonl"),
        }
    )
    failed = [c for c in result["checks"] if not c["passed"] and c["name"] != WALL_CLOCK]
    assert failed == []
    assert result["failed"] == 0
    assert "layers" in result


def test_probes_run_under_the_tracer(worker, tmp_path):
    result = worker.probes_job({"seed": 1, "out_dir": str(tmp_path), "trace": True})
    assert [p["exit_code"] for p in result["probes"]] == [0, 0]
    assert set(result["errors"]) == {f"{m}.errors" for m in worker.tr.MODULES}
