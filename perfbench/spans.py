"""Spans around the calls into each module of the package, and the
per-layer metrics computed from them.

A layer is a module of ``hirota_trace``.  ``Tracer.patched()`` replaces
every public function at every module-level name it is bound to (so
``cli.compiled`` and ``trace_engine.compiled`` are both wrapped), plus the
evaluation methods of ``CompiledSolution``, with a wrapper that records a
span: name, start, end, parent span and operation id.  Spans stay in memory
until the run writes them out.  The program itself is not modified; the
wrappers are removed when the context exits.  ``eval_peak()`` measures the
tracemalloc peak of the evaluation calls in a pass of its own, so the timed
spans carry no allocation tracing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "trace_engine", "verify", "calculus", "core", "identities")
EVAL_METHODS = ("psi", "derivatives", "degenerate_mask")
MIB = 1 << 20


def _modules():
    import hirota_trace
    return {name: getattr(hirota_trace, name) for name in LAYERS}


def _is_entry_point(value) -> bool:
    if not (inspect.isfunction(value) or hasattr(value, "cache_info")):
        return False
    return (value.__module__ or "").startswith("hirota_trace.") \
        and not value.__name__.startswith("_")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def f_terms(n: int) -> int:
    """Terms of f = det(M): C(2N, N)."""
    return math.comb(2 * n, n)


def g_terms(n: int) -> int:
    """Terms of g = f * psi: C(2N, N - 1)."""
    return math.comb(2 * n, n - 1) if n else 0


class Tracer:
    """In-memory span recorder for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[dict] = []

    def _wrap(self, fn, name: str, evaluator: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "op": tracer.op_id}
            if evaluator and not any("points" in s for s in tracer._stack):
                engine, x, t = args[:3]
                span["n"] = engine.n
                span["points"] = int(np.broadcast(np.asarray(x),
                                                  np.asarray(t)).size)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if name == "identities.run_identity_suite":
                span["checks"] = result.checks
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap the package's entry points for the duration of the block."""
        from hirota_trace.trace_engine import CompiledSolution
        saved = []
        for module in _modules().values():
            for attr, value in list(vars(module).items()):
                if _is_entry_point(value):
                    saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, _span_name(value)))
        for attr in EVAL_METHODS:
            value = getattr(CompiledSolution, attr)
            saved.append((CompiledSolution, attr, value))
            setattr(CompiledSolution, attr,
                    self._wrap(value, _span_name(value), evaluator=True))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


@contextlib.contextmanager
def eval_peak():
    """Wrap the evaluation methods so that each outermost call runs under
    tracemalloc; yields the list the peaks (bytes) are appended to."""
    from hirota_trace.trace_engine import CompiledSolution
    peaks: list[int] = []
    depth = [0]

    def wrap(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth[0] += 1
            if depth[0] == 1:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
        return traced

    saved = [(attr, getattr(CompiledSolution, attr)) for attr in EVAL_METHODS]
    for attr, value in saved:
        setattr(CompiledSolution, attr, wrap(value))
    try:
        yield peaks
    finally:
        for attr, value in saved:
            setattr(CompiledSolution, attr, value)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time covered by its children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], ops: int, cache_delta: tuple[int, int],
                  bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase, per operation where additive.

    ``cache_delta`` is the (hits, misses) growth of the compile cache over
    the phase, ``bytes_written`` what the CLI wrote to files and stdout.
    """
    own = self_times(spans)
    self_by_layer = defaultdict(float)
    self_by_name = defaultdict(float)
    total_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    for s, t in zip(spans, own):
        layer = s["name"].partition(".")[0]
        self_by_layer[layer] += t
        self_by_name[s["name"]] += t
        total_by_name[s["name"]] += s["end"] - s["start"]
        calls_by_name[s["name"]] += 1

    outer = [s for s in spans if "points" in s]
    eval_s = sum(s["end"] - s["start"] for s in outer)
    term_points = sum(
        (f_terms(s["n"]) + (0 if s["name"].endswith("degenerate_mask")
                            else g_terms(s["n"]))) * s["points"]
        for s in outer)
    checks = sum(s.get("checks", 0) for s in spans)

    per_op = {
        "cli.serialize_s": self_by_name["cli.cmd_field"],
        "cli.config_s": total_by_name["cli.load_config"],
        "cli.bytes_written": bytes_written,
        "trace_engine.compile_s": total_by_name["trace_engine.compiled"],
        "trace_engine.cache_hits": cache_delta[0],
        "trace_engine.cache_misses": cache_delta[1],
        "trace_engine.eval_s": eval_s,
        "trace_engine.eval_calls": len(outer),
        "trace_engine.eval_points": sum(s["points"] for s in outer),
        "trace_engine.term_points": term_points,
        "trace_engine.mask_s":
            total_by_name["trace_engine.CompiledSolution.degenerate_mask"],
        "verify.residual_self_s": self_by_name["verify.residual_report"],
        "calculus.fd_s": total_by_name["calculus.fd_derivatives"],
        "core.dense_solve_s": total_by_name["core.eval_psi_closed"],
        "core.dense_solve_calls": calls_by_name["core.eval_psi_closed"],
        "core.series_s": (total_by_name["core.series_partial_sums"]
                          + total_by_name["core.spectral_radius_q"]),
        "identities.suite_s": total_by_name["identities.run_identity_suite"],
        "identities.checks": checks,
    }
    per_op.update({f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS})
    out = {k: v / ops for k, v in per_op.items()}
    out["trace_engine.ns_per_term_point"] = \
        1e9 * eval_s / term_points if term_points else 0.0
    return out
