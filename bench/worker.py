"""Child process of the benchmark: runs one job and prints one JSON line.

Jobs (``python3 bench/worker.py <job> <json args>``, with ``src`` on
``PYTHONPATH``):

* ``run``: one workload through ``rbdsdep.cli.run_pipeline``: a warm-up
  call, timed calls for the given seconds, then the output checks.  With
  ``trace`` set, untraced and traced calls alternate and the traced ones
  give the per-layer metrics.
* ``probes``: the known-failure probes through ``rbdsdep.cli.main``.
* ``sweep``: the ungated scaling sweep (``sweep.py``).

The parent (``run.py``) never imports rbdsdep or numpy, so this process
is the one that runs the workload, and its peak RSS is the workload's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy as np
from rbdsdep import cli, config
from rbdsdep.errors import RbdsdepError
from rbdsdep.solver import solve_tree_exact

import sweep
import tracer as tr
import workloads as wl


def _report_digest(paths) -> str:
    """sha256 over every report file except the manifest, whose timing and
    timestamp fields are the only ones allowed to vary."""
    h = hashlib.sha256()
    for path in sorted(paths):
        name = os.path.basename(path)
        if name == "manifest.json":
            continue
        h.update(name.encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name, passed, detail=""):
        self.items.append({"name": name, "passed": bool(passed), "detail": detail})


class Runner:
    """Calls run_pipeline and keeps the attempted/failed tally."""

    def __init__(self, cfg, out_dir, threads):
        self.cfg = cfg
        self.out_dir = out_dir
        self.threads = threads
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, threads=None):
        """One pipeline call; returns (seconds, summary or None, digest)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            ok, summary, written = cli.run_pipeline(
                self.cfg, out_dir=self.out_dir, threads=threads or self.threads
            )
        except RbdsdepError as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None, None
        elapsed = time.perf_counter() - t0
        if not ok:
            self.failed += 1
            bad = sorted(k for k, v in summary["validators"].items() if not v)
            self.errors.append(f"validator FAIL: {bad}")
        return elapsed, summary, _report_digest(written)


def _reference_values(workload, cfg, summary) -> dict:
    report = summary.get("report", {})
    if workload == "compare_deep":
        return {
            "root1": solve_tree_exact(cfg.problem, cfg.tree_model()).root_value(),
            "root2": solve_tree_exact(cfg.problem2, cfg.tree_model()).root_value(),
            "root_gap": report["root_gap"],
            "margin": report["margin"],
        }
    got = {"y0_series": summary["y0_series"]}
    for key in ("v_root", "lower_root", "upper_root"):
        if key in report:
            got[key] = report[key]
    return got


def _check_references(workload, cfg, summary, checks):
    if workload == "lsmc":
        root = summary["root_value"]
        checks.add(
            "lsmc_root_within_seed_spread",
            abs(root - wl.LSMC_ROOT_MEAN) <= wl.LSMC_ROOT_TOL,
            f"root {root!r}; reference {wl.LSMC_ROOT_MEAN:.6f} +- "
            f"{wl.LSMC_ROOT_TOL:.4g} (6 seed sd; root_se {summary['root_se']:.3g})",
        )
        return
    got = _reference_values(workload, cfg, summary)
    for key, want in wl.REFERENCES[workload].items():
        have = np.atleast_1d(np.asarray(got.get(key, np.nan), dtype=float))
        want_arr = np.atleast_1d(np.asarray(want, dtype=float))
        passed = have.shape == want_arr.shape and bool(
            np.all(np.abs(have - want_arr) <= wl.REFERENCE_TOL)
        )
        checks.add(f"reference_{key}", passed, f"got {got.get(key)!r}")


def _traced_call(runner, tracer_obj, threads=None):
    """One call under the tracer; returns (record, id of its root span)."""
    first = len(tracer_obj.spans)
    tracer_obj.install()
    try:
        rec = runner.call(threads)
    finally:
        tracer_obj.uninstall()
    roots = [
        s[tr.ID]
        for s in tracer_obj.spans[first:]
        if s[tr.NAME] == "cli.run_pipeline" and s[tr.PARENT] is None
    ]
    return rec, roots[0] if len(roots) == 1 else None


def _timed_loop(runner, seconds, tracer_obj):
    """Calls until `seconds` have passed, alternating untraced and traced
    calls when a tracer is given; at least one of each."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(runner.call())
        if tracer_obj is not None:
            traced.append(_traced_call(runner, tracer_obj))
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def _count_part(metrics):
    return {k: v for k, v in metrics.items() if k in tr.COUNT_METRICS}


def _layers(tracer_obj, rec, root, threads):
    spans = tr.subtree(tracer_obj.spans, root)
    metrics = tr.layer_metrics(spans, rec[1], threads)
    return metrics, rec[0] - sum(tr.exclusive_times(spans).values())


def _trace_checks(workload, runner, tracer_obj, traced, untraced, checks):
    per_call, gaps = [], []
    for rec, root in traced:
        if root is None or rec[1] is None:
            checks.add("traced_call_recorded", False, "no single root span")
            return None
        metrics, gap = _layers(tracer_obj, rec, root, runner.threads)
        per_call.append(metrics)
        gaps.append(abs(gap))
    overhead = statistics.median(r[0] for r, _ in traced) - statistics.median(
        u[0] for u in untraced
    )
    checks.add(
        "traced_bytes_equal_untraced",
        {r[2] for r, _ in traced} == {u[2] for u in untraced},
        "report digests of traced and untraced calls",
    )
    checks.add(
        "trace_counts_repeat",
        all(_count_part(m) == _count_part(per_call[0]) for m in per_call),
        f"{len(per_call)} traced calls",
    )
    checks.add(
        "layer_self_times_account_for_run_s",
        max(gaps) <= max(abs(overhead), 1e-3),
        f"worst |traced run_s - sum of self times| {max(gaps):.3g} s; "
        f"trace.overhead_s {overhead:.3g} s",
    )
    if workload == "envelope":
        # threads=1 and a threads=2 call with a tight switch interval must
        # record exactly the counts of the timed threads=2 calls
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stress = _traced_call(runner, tracer_obj)
        finally:
            sys.setswitchinterval(interval)
        single = _traced_call(runner, tracer_obj, threads=1)
        same = all(
            root is not None
            and _count_part(_layers(tracer_obj, rec, root, runner.threads)[0])
            == _count_part(per_call[0])
            for rec, root in (stress, single)
        )
        checks.add("trace_thread_safe_under_pool", same, "threads 2 (stressed) and 1")
    return per_call, overhead


def run_job(args):
    workload = args["workload"]
    cfg = config.load_config(args["config"])
    runner = Runner(cfg, args["out_dir"], wl.workload_threads(workload))
    checks = Checks()
    tracer_obj = tr.Tracer() if args["trace"] else None
    bindings = tr.callable_bindings()

    warm = runner.call()
    untraced, traced = _timed_loop(runner, args["seconds"], tracer_obj)
    digests = {warm[2]} | {u[2] for u in untraced}
    checks.add("all_validators_pass", runner.failed == 0, "; ".join(runner.errors[:3]))
    checks.add(
        "report_bytes_repeat",
        len(digests) == 1 and None not in digests,
        f"{len(digests)} distinct report digests over {len(untraced) + 1} calls",
    )
    if warm[1] is not None:
        _check_references(workload, cfg, warm[1], checks)
    if workload == "envelope" and tracer_obj is None:
        single = runner.call(threads=1)
        checks.add(
            "report_bytes_threads_1_vs_2",
            single[2] == warm[2],
            "report digests of --threads 1 and 2",
        )

    result = {
        "run_s": [u[0] for u in untraced],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer_obj is not None:
        checks.add(
            "tracer_restores_callables",
            tr.callable_bindings() == bindings,
            "every rbdsdep callable is the original after uninstall",
        )
        traced_part = _trace_checks(workload, runner, tracer_obj, traced, untraced, checks)
        if traced_part is not None:
            result["layers"] = _layer_summary(args, tracer_obj, *traced_part, checks)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["checks"] = checks.items
    return result


def _layer_summary(args, tracer_obj, per_call, overhead, checks):
    """Medians of the per-call layer metrics (counts must repeat), plus
    config.load_s from five traced load_config calls."""
    first = len(tracer_obj.spans)
    tracer_obj.install()
    try:
        for _ in range(5):
            config.load_config(args["config"])
    finally:
        tracer_obj.uninstall()
    loads = [s for s in tracer_obj.spans[first:] if s[tr.NAME] == "config.load"]

    out = {}
    for key in per_call[0]:
        values = [m[key] for m in per_call]
        out[key] = values[0] if key in tr.COUNT_METRICS else statistics.median(values)
    out["config.load_s"] = statistics.median(s[tr.END] - s[tr.START] for s in loads)
    out["trace.overhead_s"] = overhead
    out["samples"] = len(per_call)

    checks.add(
        "spans_closed",
        tracer_obj.open_stacks_empty()
        and all(s[tr.END] >= s[tr.START] > 0.0 for s in tracer_obj.spans)
        and [s[tr.ID] for s in tracer_obj.spans] == list(range(len(tracer_obj.spans))),
        f"{len(tracer_obj.spans)} spans",
    )
    spans_path = args["spans"]
    tracer_obj.write(spans_path)
    with open(spans_path, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    checks.add(
        "spans_written_once_at_end",
        lines == len(tracer_obj.spans),
        f"{lines} lines in {os.path.basename(spans_path)}",
    )
    return out


def probes_job(args):
    """Run each probe through cli.main; a non-zero exit is a failure."""
    tracer_obj = tr.Tracer() if args["trace"] else None
    results = []
    for name in wl.PROBES:
        path = os.path.join(args["out_dir"], f"{name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(wl.probe_config(name, args["seed"]), fh, indent=2)
        err = io.StringIO()
        if tracer_obj is not None:
            tracer_obj.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(
                    ["run", "--config", path, "--out", os.path.join(args["out_dir"], name)]
                )
        finally:
            if tracer_obj is not None:
                tracer_obj.uninstall()
        lines = err.getvalue().strip().splitlines()
        results.append(
            {
                "name": name,
                "exit_code": code,
                "failed": code != 0,
                "message": lines[-1] if lines else "",
            }
        )
    out = {"probes": results}
    if tracer_obj is not None:
        out["errors"] = tr.error_counts(tracer_obj.spans)
    return out


def main(argv):
    job, args = argv[1], json.loads(argv[2])
    if job == "run":
        result = run_job(args)
    elif job == "probes":
        result = probes_job(args)
    elif job == "sweep":
        result = sweep.run_sweep(args)
    else:
        raise SystemExit(f"unknown job {job!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
