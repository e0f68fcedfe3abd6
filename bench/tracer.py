"""Span and counter recorder that wraps rbdsdep's public functions.

Nothing under ``src/`` knows about it: ``Tracer.install`` rebinds each
traced function in every rbdsdep module that holds it (and each traced
method on its class), and ``Tracer.uninstall`` puts the originals back.
Spans stay in memory; ``Tracer.write`` writes them once, at the end.

A span is [id, parent id, name, thread id, start, end, error, counts].
Spans opened in a worker thread with nothing open in that thread take the
main thread's innermost open span as parent, so pool work nests under the
scheme that submitted it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

import numpy as np

ID, PARENT, NAME, THREAD, START, END, ERROR, COUNTS = range(8)


def _count_evaluate(args, kwargs, result, before):
    return {"expr.evaluate_elements": int(np.size(result))}


def _count_simulate(args, kwargs, result, before):
    return {
        "drivers.paths": result.path_count,
        "drivers.path_steps": result.path_count * result.grid.N,
    }


def _count_lsmc(args, kwargs, result, before):
    return {"solver.lsmc_path_steps": result.path_count * result.grid.N}


def _count_tree(args, kwargs, result, before):
    return {"solver.tree_states": int(sum(y.size for y in result.Y))}


def _count_materialize(args, kwargs, result, before):
    return {"solver.materialized_paths": result.path_count}


def _before_envelope(args, kwargs):
    return args[0].boundary_hits


def _count_envelope(args, kwargs, result, before):
    env = args[0]
    return {
        "generator.envelope_pairs": int(np.size(result)) * env.coords.shape[0],
        "generator.boundary_hits": env.boundary_hits - before,
    }


def _count_written(args, kwargs, result, before):
    size = sum(
        os.path.getsize(p) for p in result[2] if os.path.basename(p) != "manifest.json"
    )
    return {"cli.bytes_written": size}


#: (module, attribute or "Class.method", span name, counter, before hook)
TARGETS = (
    ("rbdsdep.config", "load_config", "config.load", None, None),
    ("rbdsdep.drivers", "simulate_scenarios", "drivers.simulate", _count_simulate, None),
    ("rbdsdep.expr", "evaluate", "expr.evaluate", _count_evaluate, None),
    ("rbdsdep.generator", "EnvelopeFunction.__init__", "generator.envelope_init", None, None),
    (
        "rbdsdep.generator",
        "EnvelopeFunction.__call__",
        "generator.envelope",
        _count_envelope,
        _before_envelope,
    ),
    ("rbdsdep.generator", "sample_cloud", "generator.certify", None, None),
    ("rbdsdep.generator", "check_linear_growth", "generator.certify", None, None),
    ("rbdsdep.generator", "check_pi_minorant", "generator.certify", None, None),
    ("rbdsdep.generator", "check_g_contraction", "generator.certify", None, None),
    ("rbdsdep.solver", "solve_tree_exact", "solver.tree_solve", _count_tree, None),
    ("rbdsdep.solver", "solve_lsmc", "solver.lsmc", _count_lsmc, None),
    (
        "rbdsdep.solver",
        "TreeSolution.to_solution_grid",
        "solver.materialize",
        _count_materialize,
        None,
    ),
    ("rbdsdep.solver", "SolutionGrid.validate", "solver.validate", None, None),
    ("rbdsdep.analysis", "norm_report", "analysis.norms", None, None),
    ("rbdsdep.analysis", "skorokhod_check", "analysis.skorokhod", None, None),
    ("rbdsdep.analysis", "compare_solutions", "analysis.compare", None, None),
    ("rbdsdep.schemes", "run_inf_envelope_sequence", "schemes.sequence", None, None),
    ("rbdsdep.schemes", "run_sup_envelope_sequence", "schemes.sequence", None, None),
    ("rbdsdep.schemes", "run_bracketing_sequence", "schemes.sequence", None, None),
    ("rbdsdep.cli", "run_pipeline", "cli.run_pipeline", _count_written, None),
)


def _rbdsdep_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "rbdsdep" or name.startswith("rbdsdep.")) and mod is not None
    ]


def callable_bindings() -> dict:
    """Every callable bound in an rbdsdep module or class namespace, by
    (owner name, attribute) -> id; used to prove uninstall restored all."""
    out = {}
    for mod in _rbdsdep_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for mattr, mval in vars(value).items():
                    if callable(mval):
                        out[(f"{mod.__name__}.{value.__name__}", mattr)] = id(mval)
    return out


class Tracer:
    """Thread-safe in-memory recorder of spans with per-span counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._main_thread = threading.main_thread().ident
        self._patches: list = []
        self._written = False
        self.spans: list = []

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        # a pool thread reads the main stack while the main thread waits
        # on the pool, so that stack does not change under the read
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        elif self._main_stack:
            parent = self._main_stack[-1][ID]
        else:
            parent = None
        span = [None, parent, name, threading.get_ident(), 0.0, 0.0, False, None]
        with self._lock:
            span[ID] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name, counter, before):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                tracer._close(span)
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result, state)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _rbdsdep_modules()
        for mod_name, attr, name, counter, before in TARGETS:
            home = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = vars(owner)[meth]
                self._patch(owner, meth, original, self._wrap(original, name, counter, before))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, counter, before)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def open_stacks_empty(self) -> bool:
        return not self._main_stack

    def write(self, path: str):
        """Write every span as one JSON line; allowed once per tracer."""
        if self._written:
            raise RuntimeError("spans were already written")
        self._written = True
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def subtree(spans, root_id):
    """The spans under root_id (root included), in id order."""
    keep = {root_id}
    out = []
    for span in spans:
        if span[ID] == root_id or span[PARENT] in keep:
            keep.add(span[ID])
            out.append(span)
    return out


def exclusive_times(spans) -> dict:
    """Wall-clock self time per span id.

    Every instant inside the root is split evenly between the innermost
    spans open at that instant, so the self times of a subtree add up to
    the root's duration even when pool threads overlap.
    """
    events = []
    for span in spans:
        events.append((span[START], 1, span[ID]))
        events.append((span[END], 0, span[ID]))
    events.sort()
    parent = {span[ID]: span[PARENT] for span in spans}
    active_children = {span[ID]: 0 for span in spans}
    active = set()
    self_time = dict.fromkeys(active_children, 0.0)
    last = events[0][0] if events else 0.0
    for when, opening, sid in events:
        if active and when > last:
            leaves = [s for s in active if active_children[s] == 0]
            share = (when - last) / len(leaves)
            for s in leaves:
                self_time[s] += share
        last = when
        p = parent[sid]
        if opening:
            active.add(sid)
            if p in active_children:
                active_children[p] += 1
        else:
            active.discard(sid)
            if p in active_children:
                active_children[p] -= 1
    return self_time


MODULES = ("config", "drivers", "expr", "generator", "solver", "schemes", "analysis", "cli")

#: span name -> the metric its self time adds to
SELF_TIME = {
    "cli.run_pipeline": "cli.self_s",
    "drivers.simulate": "drivers.simulate_s",
    "expr.evaluate": "expr.evaluate_s",
    "generator.envelope_init": "generator.envelope_s",
    "generator.envelope": "generator.envelope_s",
    "generator.certify": "generator.certify_s",
    "solver.tree_solve": "solver.tree_solve_s",
    "solver.lsmc": "solver.lsmc_s",
    "solver.materialize": "solver.materialize_s",
    "solver.validate": "solver.validate_s",
    "analysis.norms": "analysis.norms_s",
    "analysis.skorokhod": "analysis.skorokhod_s",
    "analysis.compare": "analysis.compare_self_s",
    "schemes.sequence": "schemes.sequence_s",
}

#: span name -> the metric counting its calls
CALLS = {
    "expr.evaluate": "expr.evaluate_calls",
    "generator.envelope": "generator.envelope_calls",
    "solver.tree_solve": "solver.tree_solves",
    "solver.materialize": "solver.materialize_calls",
}

#: metrics that must repeat exactly from call to call
COUNT_METRICS = frozenset(
    list(CALLS.values())
    + [
        "expr.evaluate_elements",
        "drivers.paths",
        "drivers.path_steps",
        "solver.lsmc_path_steps",
        "solver.tree_states",
        "solver.materialized_paths",
        "generator.envelope_pairs",
        "generator.boundary_hits",
        "cli.bytes_written",
        "schemes.solves",
    ]
    + [f"{m}.errors" for m in MODULES]
)

#: rate metric -> (count metric, self-time metric it is divided by, scale)
RATES = {
    "drivers.path_steps_per_s": ("drivers.path_steps", "drivers.simulate_s", 1.0),
    "solver.tree_states_per_s": ("solver.tree_states", "solver.tree_solve_s", 1.0),
    "generator.envelope_pairs_per_s": (
        "generator.envelope_pairs",
        "generator.envelope_s",
        1.0,
    ),
    "cli.write_mb_per_s": ("cli.bytes_written", "cli.self_s", 1e-6),
}


def error_counts(spans) -> dict:
    """Spans that ended in an exception, per module."""
    out = {f"{m}.errors": 0 for m in MODULES}
    for span in spans:
        if span[ERROR]:
            out[span[NAME].split(".")[0] + ".errors"] += 1
    return out


def layer_metrics(spans, summary, threads) -> dict:
    """Per-layer metrics of one traced run_pipeline call.

    Times are wall-clock self times (``exclusive_times``), rates divide a
    count by the layer's self time, and the schemes ratios are:
    kept_ratio = indices kept after early stop / indices solved, and
    worker_busy_ratio = solve time in pool threads / (pool wall * threads),
    0 when no pool ran.
    """
    out = dict.fromkeys(sorted(set(SELF_TIME.values())), 0.0)
    out.update(dict.fromkeys(sorted(COUNT_METRICS), 0))
    self_time = exclusive_times(spans)
    by_id = {span[ID]: span for span in spans}
    for span in spans:
        name = span[NAME]
        if name in SELF_TIME:
            out[SELF_TIME[name]] += self_time[span[ID]]
        if name in CALLS:
            out[CALLS[name]] += 1
        for key, value in (span[COUNTS] or {}).items():
            out[key] += value
    out.update(error_counts(spans))
    for rate, (count, seconds, scale) in RATES.items():
        out[rate] = out[count] * scale / out[seconds] if out[seconds] > 0 else 0.0

    def under_scheme(span):
        while span[PARENT] in by_id:
            span = by_id[span[PARENT]]
            if span[NAME] == "schemes.sequence":
                return True
        return False

    solves = [s for s in spans if s[NAME] == "solver.tree_solve" and under_scheme(s)]
    out["schemes.solves"] = len(solves)
    kept = len(summary.get("y0_series", ()))
    envelopes = sum(1 for s in spans if s[NAME] == "generator.envelope_init")
    solved = envelopes or kept
    out["schemes.kept_ratio"] = kept / solved if solved else 0.0
    main = threading.main_thread().ident
    pooled = [s for s in solves if s[THREAD] != main]
    if pooled:
        wall = max(s[END] for s in pooled) - min(s[START] for s in pooled)
        busy = sum(s[END] - s[START] for s in pooled)
        out["schemes.worker_busy_ratio"] = busy / (wall * threads)
    else:
        out["schemes.worker_busy_ratio"] = 0.0
    return out
