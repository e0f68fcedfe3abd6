"""rbdsdep benchmark: end-to-end and per-layer metrics of four pipelines.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lsmc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --sweep                   # ungated scaling sweep

``--trace 0`` prints the end-to-end metrics (tracing off):

* ``run_s``: median wall seconds of one ``run_pipeline`` call, from a
  loaded config until the reports are written;
* ``setup_s``: median, over fresh processes, of importing rbdsdep and
  ``load_config`` of the workload's YAML;
* ``peak_rss_mb``: peak resident memory of the process that runs the
  workload;
* ``ops_failed_ratio``: failed operations over attempted ones.  An
  operation is one configuration run to its end: the workload (every one
  of its calls must pass) and each known-failure probe.  A call that
  raises, exits 2 or reports a validator FAIL fails its operation.

``--trace 1`` prints the per-layer metrics of traced calls instead.
The last line of standard output is the JSON result; the lines before it
give every metric with its unit and sample count, the probes, the checks
and the environment.  Any failed output check makes ``correct`` false
and the exit code 1.  Output files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_SPAWNS = 7
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_failed_ratio", "ratio"),
)

# Times one fresh process's import of rbdsdep plus load_config.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import rbdsdep
from rbdsdep.config import load_config
load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def _spawn(argv, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion; return its last stdout line."""
    proc = subprocess.run(
        argv,
        env=_child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {argv[1:3]} exited {proc.returncode}")
    return lines[-1]


def _job(job, args):
    return json.loads(
        _spawn([sys.executable, os.path.join(HERE, "worker.py"), job, json.dumps(args)])
    )


def _setup_times(config_path):
    argv = [sys.executable, "-c", _SETUP_CODE, config_path]
    _spawn(argv)  # fills the bytecode and file caches
    return [float(_spawn(argv)) for _ in range(SETUP_SPAWNS)]


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed):
    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        parts = [_read(os.path.join(base, index, k)).strip() for k in ("level", "type", "size")]
        if all(parts):
            caches.append("L{} {} {}".format(*parts))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "seed": seed,
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "note": "shared machine: other tenants' load moves the timings",
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _prepare(workload, seed):
    out = os.path.join(OUT, workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "reports"))
    # YAML is a superset of JSON, so load_config reads this file as is
    config = os.path.join(out, "config.yaml")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(wl.workload_config(workload, seed), fh, indent=2)
    return out, config


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, report lines)."""
    out, config = _prepare(workload, seed)
    lines = [f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}"]
    run = _job(
        "run",
        {
            "workload": workload,
            "config": config,
            "out_dir": os.path.join(out, "reports"),
            "seconds": seconds,
            "trace": bool(trace),
            "spans": os.path.join(out, "spans.jsonl"),
        },
    )
    probes = _job("probes", {"seed": seed, "out_dir": out, "trace": bool(trace)})
    checks = run["checks"]
    samples = len(run["run_s"])
    ops_failed = int(run["failed"] > 0) + sum(p["failed"] for p in probes["probes"])
    ops = 1 + len(probes["probes"])

    if trace:
        layers = run.get("layers")
        if layers is None:
            metrics = {}
        else:
            samples = layers.pop("samples")
            for key, count in probes["errors"].items():
                layers[key] += count
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
            lines.append(
                f"  traced calls {samples}, untraced calls {len(run['run_s'])}; "
                "*.errors include the probes"
            )
    else:
        setup = _setup_times(config)
        run_s = run["run_s"]
        values = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": run["peak_rss_mb"],
            "ops_failed_ratio": ops_failed / ops,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        q1, q3 = _quartiles(run_s)
        lines.append(f"  run_s samples {samples}: quartiles {q1:.4f} .. {q3:.4f} s")
        lines.append(f"  setup_s samples {len(setup)}: " + " ".join(f"{t:.4f}" for t in setup))
        lines.append(f"  operations: {ops} attempted, {ops_failed} failed")

    for name, m in metrics.items():
        lines.append(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for p in probes["probes"]:
        state = "FAILED" if p["failed"] else "passed"
        lines.append(f"  probe {p['name']}: {state} (exit {p['exit_code']}) {p['message']}")
    for c in checks:
        lines.append(f"  check {c['name']}: {'pass' if c['passed'] else 'FAIL'}  {c['detail']}")
    env = environment(seed)
    env["numpy"] = run["numpy"]
    lines.append("  environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": all(c["passed"] for c in checks) and bool(metrics),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"result": result, "samples": samples, "run": run, "probes": probes, "env": env},
            fh,
            indent=2,
        )
    return result, lines


def unit_of(metric):
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_ratio", "ratio"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def run_all(seed, seconds, trace):
    """Every workload in its own benchmark process, then one table."""
    results = {}
    for name in wl.WORKLOADS:
        argv = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        results[name] = json.loads(out[-1]) if out else {"correct": False, "metrics": {}}
    if trace:
        names = sorted({k for r in results.values() for k in r["metrics"]})
    else:
        names = [k for k, _ in END_TO_END]
    print(f"{'metric':34s}" + "".join(f"{w:>16s}" for w in results))
    for metric in names:
        row = [results[w]["metrics"].get(metric, {}).get("value") for w in results]
        unit = unit_of(metric) if trace else dict(END_TO_END)[metric]
        print(f"{metric:34s}" + "".join(f"{v:>16.6g}" if v is not None else f"{'-':>16s}" for v in row) + f"  {unit}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": {
            f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
        },
    }
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="run the scaling sweep")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "rbdsdep", "__init__.py")):
        print(f"error: rbdsdep sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.sweep:
        result = _job("sweep", {"seed": args.seed})
        with open(os.path.join(OUT, "sweep.json"), "w", encoding="utf-8") as fh:
            json.dump({"sweep": result, "env": environment(args.seed)}, fh, indent=2)
        for line in result["lines"]:
            print(line)
        print("environment " + json.dumps(environment(args.seed), sort_keys=True))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
