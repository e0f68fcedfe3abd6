"""Ungated scaling sweep: layer kernels against their size parameter.

Each point is the median wall time of a few repeats plus the exact work
count it did, so a later change can be read as time per unit of work:

* ``solve_tree_exact`` against N (d = m = 1), up to the default state
  budget; count = tree states;
* ``simulate_scenarios`` and ``solve_lsmc`` against the path count P
  (the lsmc workload's problem); count = path-steps P * N;
* ``EnvelopeFunction`` against grid_points with 1 to 3 axes on 64 query
  points; count = query-grid pairs.

Run it with ``python3 bench/run.py --sweep``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from rbdsdep.config import config_from_dict
from rbdsdep.drivers import simulate_scenarios
from rbdsdep.generator import EnvelopeFunction, EnvelopeParams
from rbdsdep.solver import solve_lsmc, solve_tree_exact

import workloads as wl

REPEATS = 3
TREE_NS = range(2, 11)
PATH_COUNTS = (4000, 8000, 16000, 32000)
ENVELOPE_QUERIES = 64
ENVELOPE_CASES = (
    ("sqrt(abs(y))", ("y",), (51, 201, 801, 3201)),
    ("sqrt(abs(y)) + abs(z1)", ("y", "z1"), (51, 101, 201)),
    ("sqrt(abs(y)) + abs(z1) + abs(u1)", ("y", "z1", "u1"), (11, 21, 31)),
)


def _median_time(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _tree_points():
    base = wl.workload_config("compare_deep", 0)
    for n in TREE_NS:
        data = dict(base, pipeline="solve", grid={"T": 0.5, "N": n})
        data.pop("problem2")
        cfg = config_from_dict(data)
        sol = solve_tree_exact(cfg.problem, cfg.tree_model())
        states = int(sum(y.size for y in sol.Y))
        seconds = _median_time(lambda: solve_tree_exact(cfg.problem, cfg.tree_model()))
        yield {"kernel": "solve_tree_exact", "size": {"N": n}, "s": seconds, "tree_states": states}


def _path_points(seed):
    for paths in PATH_COUNTS:
        data = wl.workload_config("lsmc", seed)
        data["drivers"]["paths"] = paths
        cfg = config_from_dict(data)
        args = (cfg.grid, cfg.dim_d, cfg.marks, paths, seed)
        steps = paths * cfg.grid.N
        sim = _median_time(lambda: simulate_scenarios(*args, mode=cfg.mode))
        yield {"kernel": "simulate_scenarios", "size": {"P": paths}, "s": sim, "path_steps": steps}
        scen = simulate_scenarios(*args, mode=cfg.mode)
        lsmc = _median_time(lambda: solve_lsmc(cfg.problem, scen, cfg.scheme))
        yield {"kernel": "solve_lsmc", "size": {"P": paths}, "s": lsmc, "path_steps": steps}


def _envelope_points(seed):
    rng = np.random.default_rng(seed)
    for expr, axes, sizes in ENVELOPE_CASES:
        box = {axis: (-6.0, 6.0) for axis in axes}
        q = rng.uniform(-5.0, 5.0, (ENVELOPE_QUERIES, 3))
        for points in sizes:
            env = EnvelopeFunction(
                expr,
                EnvelopeParams(n=4.0, box=box, grid_points=points),
                dim_d=1,
                num_marks=1,
                intensities=np.array([0.4]),
            )
            seconds = _median_time(lambda: env(0.1, q[:, 0], q[:, 1:2], q[:, 2:3]))
            yield {
                "kernel": "EnvelopeFunction",
                "size": {"axes": len(axes), "grid_points": points},
                "s": seconds,
                "envelope_pairs": ENVELOPE_QUERIES * env.coords.shape[0],
            }


def run_sweep(args):
    seed = args.get("seed", 1)
    points = [*_tree_points(), *_path_points(seed), *_envelope_points(seed)]
    lines = [f"{'kernel':20s} {'size':28s} {'median s':>12s} {'count':>14s} {'count/s':>12s}"]
    for p in points:
        count_key = next(k for k in p if k not in ("kernel", "size", "s"))
        size = " ".join(f"{k}={v}" for k, v in p["size"].items())
        lines.append(
            f"{p['kernel']:20s} {size:28s} {p['s']:12.5f} "
            f"{p[count_key]:>14d} {p[count_key] / p['s']:12.4g}  ({count_key})"
        )
    return {"points": points, "lines": lines, "repeats": REPEATS}
