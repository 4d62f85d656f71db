"""Span recording for the traced benchmark run.

A traced run replaces selected ``otsurv`` functions, at the module
attributes where their callers look them up, with wrappers that record one
span per call: name, start, end, parent span and case id.  Spans stay in
memory and are written out when the run ends.  Hooks are resolved by name,
so a function that a later refactor removes is reported as ``missing``
rather than breaking the benchmark, and every original is put back when
the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

MISSING = "missing"


@dataclass(frozen=True)
class Hook:
    """Replace ``module.attr`` by a span-recording wrapper.

    ``span`` names the span; ``name_from`` may refine it and ``case_from``
    give the case id, both from the call arguments; ``observe`` turns the
    result into span attributes.  These callables may raise on a changed
    signature or result type: the span then keeps its plain name, no case
    id, and no attributes, and attribute metrics read ``missing``.
    """

    module: str
    attr: str
    span: str
    name_from: Callable | None = None
    case_from: Callable | None = None
    observe: Callable | None = None


_CHANGED = (AttributeError, IndexError, KeyError, TypeError)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _pool_side(args, kwargs):
    return "neural.attn_pool_" + _arg(args, kwargs, 2, "side")[-1]


def _case_id(args, kwargs):
    return _arg(args, kwargs, 1, "case").case_id


def _uot_attrs(plan):
    return {"iters": plan.iterations, "converged": bool(plan.converged),
            "log_domain": bool(plan.settings.log_domain), "mass": plan.total_mass}


def _tape_attrs(result):
    return {"tape_nodes": len(result[0].nodes)}


# Lookup sites: ``otsurv.train`` for everything the training loop calls,
# ``otsurv.microbatch`` for what ``solve_batch`` calls, and the public
# modules whose functions the benchmark itself calls.
HOOKS = (
    Hook("otsurv.train", "load_cases", "bags.load_cases"),
    Hook("otsurv.train", "case_forward", "train.case_forward", case_from=_case_id,
         observe=_tape_attrs),
    Hook("otsurv.train", "evaluate", "train.evaluate"),
    Hook("otsurv.train", "accumulate", "train.accumulate"),
    Hook("otsurv.train", "backward", "autodiff.backward"),
    Hook("otsurv.train", "solve_batch", "microbatch.solve_batch"),
    Hook("otsurv.microbatch", "unbalanced_sinkhorn", "transport.uot", observe=_uot_attrs),
    Hook("otsurv.microbatch", "build_cost", "transport.build_cost"),
    Hook("otsurv.microbatch", "normalize_cost", "transport.normalize_cost"),
    Hook("otsurv.train", "attention_pool_t", "neural.attn_pool", name_from=_pool_side),
    Hook("otsurv.train", "encode_genomic_t", "neural.encode_genomic"),
    Hook("otsurv.train", "wrap_params", "neural.wrap_params"),
    Hook("otsurv.train", "hazard_t", "neural.hazard"),
    Hook("otsurv.train", "project_t", "neural.project"),
    Hook("otsurv.train", "dense_coattention_t", "neural.dense_coattention"),
    Hook("otsurv.train", "adam_step", "neural.adam_step"),
    Hook("otsurv.train", "c_index", "survival.c_index"),
    Hook("otsurv.survival", "logrank", "survival.logrank"),
)


class Tracer:
    """In-memory span list; a stack gives each span its parent and case id.

    A span is the tuple (id, name, start, end, parent id, case id, attrs).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, str | None]] = []
        self.missing: list[Hook] = []  # hooks whose function did not resolve

    def _open(self, case_id):
        parent, inherited = self._stack[-1] if self._stack else (None, None)
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled on close
        self._stack.append((sid, case_id if case_id is not None else inherited))
        return sid, parent

    def _close(self, sid, parent, name, start, attrs=None):
        end = time.perf_counter()
        _, case_id = self._stack.pop()
        self.spans[sid] = (sid, name, start, end, parent, case_id, attrs)

    @contextmanager
    def span(self, name):
        sid, parent = self._open(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def wrap(self, hook: Hook, fn):
        def traced(*args, **kwargs):
            name = _call(hook.name_from, hook.span, args, kwargs)
            sid, parent = self._open(_call(hook.case_from, None, args, kwargs))
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                attrs = _call(hook.observe, None, out) if out is not None else None
                self._close(sid, parent, name, start, attrs)

        return traced

    @contextmanager
    def installed(self, hooks=HOOKS):
        """Patch every hook that resolves; restore all originals on exit."""
        originals = []
        try:
            for hook in hooks:
                try:
                    module = importlib.import_module(hook.module)
                    fn = getattr(module, hook.attr)
                except (ImportError, AttributeError):
                    self.missing.append(hook)
                    continue
                originals.append((module, hook.attr, fn))
                setattr(module, hook.attr, self.wrap(hook, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, case_id, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "case_id": case_id, "attrs": attrs}) + "\n")


def _call(fn, default, *args):
    if fn is None:
        return default
    try:
        return fn(*args)
    except _CHANGED:
        return default


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one hooked call adds: a wrapped no-op, which takes a case id
    from its arguments, against the bare no-op; the median of ``repeats``.

    Measured within a fraction of a second, so the host's drift, which
    moves a whole traced fold against an untraced one, hardly enters.
    """
    def noop(*args):
        return None

    traced = Tracer().wrap(Hook("", "", "noop", case_from=_case_id), noop)
    args = (None, SimpleNamespace(case_id="case"))
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(*args)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(*args)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


# ---------------------------------------------------------------------------
# Per-layer metrics


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# Metric name -> (unit, what it needs): hooks named by their span, and
# "<span>.attrs" where it reads the attributes an observer records.
_NEEDS = {
    "bags.load_cases_s": ("s", ["bags.load_cases"]),
    "microbatch.solve_batch_s": ("s", ["microbatch.solve_batch"]),
    "microbatch.solve_batch_calls": ("count", ["microbatch.solve_batch"]),
    "microbatch.batches_per_case": ("count", ["microbatch.solve_batch", "train.case_forward"]),
    "transport.uot_s": ("s", ["transport.uot"]),
    "transport.uot_calls": ("count", ["transport.uot"]),
    "transport.uot_iters_p50": ("count", ["transport.uot", "transport.uot.attrs"]),
    "transport.uot_iters_max": ("count", ["transport.uot", "transport.uot.attrs"]),
    "transport.uot_us_per_iter": ("us", ["transport.uot", "transport.uot.attrs"]),
    "transport.uot_nonconverged": ("count", ["transport.uot", "transport.uot.attrs"]),
    "transport.uot_log_domain": ("count", ["transport.uot", "transport.uot.attrs"]),
    "transport.uot_mass_mean": ("mass", ["transport.uot", "transport.uot.attrs"]),
    "transport.solve_ms_p50": ("ms", ["transport.uot"]),
    "transport.solve_ms_p99": ("ms", ["transport.uot"]),
    "transport.solve_samples": ("count", ["transport.uot"]),
    "transport.build_cost_s": ("s", ["transport.build_cost"]),
    "transport.normalize_cost_s": ("s", ["transport.normalize_cost"]),
    "transport.uot_fold_share_pct": ("%", ["transport.uot"]),
    "autodiff.backward_s": ("s", ["autodiff.backward"]),
    "autodiff.backward_calls": ("count", ["autodiff.backward"]),
    "autodiff.tape_nodes_per_case": ("count", ["train.case_forward",
                                               "train.case_forward.attrs"]),
    "autodiff.backward_fold_share_pct": ("%", ["autodiff.backward"]),
    "neural.attn_pool_p_s": ("s", ["neural.attn_pool"]),
    "neural.attn_pool_g_s": ("s", ["neural.attn_pool"]),
    "neural.encode_genomic_s": ("s", ["neural.encode_genomic"]),
    "neural.wrap_params_s": ("s", ["neural.wrap_params"]),
    "neural.hazard_s": ("s", ["neural.hazard"]),
    "neural.project_s": ("s", ["neural.project"]),
    "neural.dense_coattention_s": ("s", ["neural.dense_coattention"]),
    "neural.adam_step_s": ("s", ["neural.adam_step"]),
    "neural.adam_step_calls": ("count", ["neural.adam_step"]),
    "train.case_forward_s": ("s", ["train.case_forward"]),
    "train.case_forward_self_s": ("s", ["train.case_forward"]),
    "train.evaluate_s": ("s", ["train.evaluate"]),
    "train.accumulate_s": ("s", ["train.accumulate"]),
    "survival.c_index_s": ("s", ["survival.c_index"]),
    "survival.logrank_s": ("s", ["survival.logrank"]),
    "trace_overhead_pct": ("%", []),
}


def layer_metrics(tracer: Tracer, fold_span: str, span_cost: float) -> dict[str, tuple]:
    """Per-layer figures over every recorded span.

    Times are inclusive unless named ``_self_s``: a span's self time is its
    duration minus the time its child spans cover.  Shares are of the
    span named ``fold_span`` and count only spans inside it.
    ``trace_overhead_pct`` is the hooks' cost inside the fold, ``span_cost``
    seconds per span, as a share of the fold without them.
    Returns metric name -> (value, unit); unresolved hooks give ``missing``.
    """
    spans = tracer.spans
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for sid, name, start, end, parent, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    for sid, name, start, end, *_ in spans:
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[sid]

    # A span's id is reserved when it opens, so a parent precedes its children.
    in_fold: set[int] = set()
    for sid, name, _, _, parent, *_ in spans:
        if name == fold_span or parent in in_fold:
            in_fold.add(sid)
    fold_s = sum(s[3] - s[2] for s in spans if s[1] == fold_span)
    hook_s = span_cost * sum(1 for s in spans if s[0] in in_fold and s[1] != fold_span)

    def fold_share(name):
        inside = sum(s[3] - s[2] for s in spans if s[1] == name and s[0] in in_fold)
        return 100.0 * inside / fold_s if fold_s > 0 else 0.0

    uot = [s for s in spans if s[1] == "transport.uot"]
    observed = [s[6] for s in uot if s[6]]
    iters = [a["iters"] for a in observed]
    solve_ms = [1e3 * (s[3] - s[2]) for s in uot]
    forwards = [s[6]["tape_nodes"] for s in spans
                if s[1] == "train.case_forward" and s[6]]
    n_forward = calls.get("train.case_forward", 0)

    values = {
        "bags.load_cases_s": total.get("bags.load_cases", 0.0),
        "microbatch.solve_batch_s": total.get("microbatch.solve_batch", 0.0),
        "microbatch.solve_batch_calls": calls.get("microbatch.solve_batch", 0),
        "microbatch.batches_per_case": (calls.get("microbatch.solve_batch", 0) / n_forward
                                        if n_forward else 0.0),
        "transport.uot_s": total.get("transport.uot", 0.0),
        "transport.uot_calls": len(uot),
        "transport.uot_iters_p50": statistics.median(iters) if iters else 0,
        "transport.uot_iters_max": max(iters, default=0),
        "transport.uot_us_per_iter": (1e6 * total.get("transport.uot", 0.0) / sum(iters)
                                      if iters else 0.0),
        "transport.uot_nonconverged": sum(not a["converged"] for a in observed),
        "transport.uot_log_domain": sum(a["log_domain"] for a in observed),
        "transport.uot_mass_mean": (statistics.fmean(a["mass"] for a in observed)
                                    if observed else 0.0),
        "transport.solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "transport.solve_ms_p99": percentile(solve_ms, 99) if solve_ms else 0.0,
        "transport.solve_samples": len(solve_ms),
        "transport.build_cost_s": total.get("transport.build_cost", 0.0),
        "transport.normalize_cost_s": total.get("transport.normalize_cost", 0.0),
        "transport.uot_fold_share_pct": fold_share("transport.uot"),
        "autodiff.backward_s": total.get("autodiff.backward", 0.0),
        "autodiff.backward_calls": calls.get("autodiff.backward", 0),
        "autodiff.tape_nodes_per_case": statistics.fmean(forwards) if forwards else 0.0,
        "autodiff.backward_fold_share_pct": fold_share("autodiff.backward"),
        "neural.attn_pool_p_s": total.get("neural.attn_pool_p", 0.0),
        "neural.attn_pool_g_s": total.get("neural.attn_pool_g", 0.0),
        "neural.encode_genomic_s": total.get("neural.encode_genomic", 0.0),
        "neural.wrap_params_s": total.get("neural.wrap_params", 0.0),
        "neural.hazard_s": total.get("neural.hazard", 0.0),
        "neural.project_s": total.get("neural.project", 0.0),
        "neural.dense_coattention_s": total.get("neural.dense_coattention", 0.0),
        "neural.adam_step_s": total.get("neural.adam_step", 0.0),
        "neural.adam_step_calls": calls.get("neural.adam_step", 0),
        "train.case_forward_s": total.get("train.case_forward", 0.0),
        "train.case_forward_self_s": self_time.get("train.case_forward", 0.0),
        "train.evaluate_s": total.get("train.evaluate", 0.0),
        "train.accumulate_s": total.get("train.accumulate", 0.0),
        "survival.c_index_s": total.get("survival.c_index", 0.0),
        "survival.logrank_s": total.get("survival.logrank", 0.0),
        "trace_overhead_pct": (100.0 * hook_s / (fold_s - hook_s)
                               if fold_s > hook_s else 0.0),
    }
    missing = {hook.span for hook in tracer.missing}
    missing.update(s[1] + ".attrs" for s in spans if s[6] is None)
    out = {}
    for name, (unit, needs) in _NEEDS.items():
        out[name] = (MISSING if missing.intersection(needs) else values[name], unit)
    return out


def plan_masses(tracer: Tracer) -> list[float]:
    """Total transported mass of every recorded UOT plan."""
    return [s[6]["mass"] for s in tracer.spans if s[1] == "transport.uot" and s[6]]
