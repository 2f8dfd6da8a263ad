"""Spans around the calls the benchmark makes into fraclap.

While a ``Tracer`` is installed it replaces, in the fraclap namespaces that
look them up at call time, the public layer functions listed in ``FUNCTIONS``
and the per-iteration methods listed in ``METHODS`` with wrappers that record
one span per call: name, start, end, parent span and op id.  Nothing under
``src/`` changes; uninstalling restores every original binding.  Spans stay
in memory until the run writes them out.

A few calls also feed counters computed from their arguments or results
(symbol evaluations, transform sizes, nonzeros, floored payload entries).
These are derived from array shapes, not measured, and are labelled
"computed" in the report.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# The layers, in pipeline order.  core is reached through stiffness and
# solver and has no spans of its own.
MODULES = ("mesh", "stiffness", "toeplitz", "transfer", "ichol", "solver", "cli")

# module -> public functions wrapped wherever a fraclap namespace binds them
FUNCTIONS = {
    "mesh": ("load_mesh", "mesh_quality", "lumped_l2_error"),
    "stiffness": ("analytic_1d", "fft_uniform", "nonuniform", "spectral",
                  "modified_spectral", "restrict"),
    "transfer": ("choose_grid", "build_transfer", "column_rank_check"),
    "ichol": ("mic_factor", "mic_factor_with_retry"),
    "solver": ("build_kernel", "assemble_rhs", "cg_solve", "build_sparse_preconditioner",
               "build_circulant_preconditioner", "circulant_payload", "exact_solution",
               "solve_bvp"),
    "cli": ("main",),
}
# namespaces whose bindings are patched: the package (used by the benchmark)
# and the modules whose functions call the wrapped names
NAMESPACES = ("fraclap", "fraclap.solver", "fraclap.cli", "fraclap.ichol")
METHODS = (
    ("toeplitz", "ToeplitzPlan", "__init__"),
    ("toeplitz", "ToeplitzPlan", "apply"),
    ("solver", "OverlayOperator", "apply"),
    ("solver", "SparsePreconditioner", "apply"),
    ("solver", "CirculantPreconditioner", "apply"),
    ("ichol", "MicFactor", "solve"),
)

KERNEL_BUILDS = ("stiffness.analytic_1d", "stiffness.fft_uniform", "stiffness.nonuniform",
                 "stiffness.spectral", "stiffness.modified_spectral")
# column_rank_check(mode="auto") takes the exact path up to this many
# columns, as its docstring states
EXACT_RANK_COLUMNS = 5000


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: str = ""

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _symbol_evals(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    nodes = {"fft_uniform": a.get("m"), "modified_spectral": a.get("m"),
             "nonuniform": None if a.get("m") is None else a["m"] + 1}.get(fn.__name__)
    return {"stiffness.symbol_evals": 0 if nodes is None else nodes ** a["dim"]}


def _transfer_sizes(fn, args, kwargs, result):
    return {"transfer.nnz": result.matrix.nnz, "transfer.cols": result.cols}


def _rank_mode(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    mode = a["mode"]
    if mode == "auto":
        mode = "exact" if a["transfer"].cols <= EXACT_RANK_COLUMNS else "heuristic"
    return {f"transfer.rank_check_{mode}_calls": 1}


def _factor_result(fn, args, kwargs, result):
    return {"ichol.shift_retries": int(result.shift != 0.0),
            "ichol.factor_nnz": result.lower.nnz}


def _payload_entries(fn, args, kwargs, result):
    floor = 1e-8 * float(np.max(np.abs(result)))
    return {"solver.payload_floored": int(np.count_nonzero(result == floor)),
            "solver.payload_negative": int(np.count_nonzero(result < 0.0))}


def _cg_result(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    iterations = result[1].iterations
    out = {"solver.cg_iterations": iterations}
    if a["precond"] is None:
        # cg_solve passes the initial residual and one per iteration through
        # the identity
        out["solver.precond_apply_calls.none"] = iterations + 1
    return out


def _solve_bvp_result(fn, args, kwargs, result):
    return {"solver.auto_fallbacks": int(result[1].preconditioner.startswith("none(fallback"))}


def _cli_result(fn, args, kwargs, result):
    return {"cli.exit_nonzero": int(result != 0)}


def _plan_init(fn, args, kwargs, result):
    shape = args[0].fft_shape
    half = math.prod(shape[:-1]) * (shape[-1] // 2 + 1)
    return {"toeplitz.spectrum_bytes": 16 * half}


def _plan_apply(fn, args, kwargs, result):
    return {"toeplitz.fft_points": math.prod(args[0].fft_shape)}


OBSERVERS = {
    "stiffness.fft_uniform": _symbol_evals,
    "stiffness.nonuniform": _symbol_evals,
    "stiffness.modified_spectral": _symbol_evals,
    "stiffness.spectral": _symbol_evals,
    "stiffness.analytic_1d": _symbol_evals,
    "transfer.build_transfer": _transfer_sizes,
    "transfer.column_rank_check": _rank_mode,
    "ichol.mic_factor_with_retry": _factor_result,
    "solver.circulant_payload": _payload_entries,
    "solver.cg_solve": _cg_result,
    "solver.solve_bvp": _solve_bvp_result,
    "cli.main": _cli_result,
    "toeplitz.ToeplitzPlan.__init__": _plan_init,
    "toeplitz.ToeplitzPlan.apply": _plan_apply,
}


class Tracer:
    """In-memory span recorder; installed() patches fraclap for its duration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _record(self, name: str, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                self.counts.update(observe(fn, args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        restore = []
        try:
            wrappers = {}  # id of the original function -> its traced wrapper
            for module, names in FUNCTIONS.items():
                mod = importlib.import_module(f"fraclap.{module}")
                for name in names:
                    fn = getattr(mod, name)
                    wrappers[id(fn)] = self._record(f"{module}.{name}", fn,
                                                     OBSERVERS.get(f"{module}.{name}"))
            for ns_name in NAMESPACES:
                ns = importlib.import_module(ns_name)
                for attr, value in list(vars(ns).items()):
                    if callable(value) and id(value) in wrappers:
                        restore.append((ns, attr, value))
                        setattr(ns, attr, wrappers[id(value)])
            for module, cls_name, meth in METHODS:
                cls = getattr(importlib.import_module(f"fraclap.{module}"), cls_name)
                fn = vars(cls)[meth]
                name = f"{module}.{cls_name}.{meth}"
                restore.append((cls, meth, fn))
                setattr(cls, meth, self._record(name, fn, OBSERVERS.get(name)))
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def run(self, name: str, op: int, fn, *args, **kwargs):
        """Call fn inside a root span named bench.<name> tagged with op."""
        self.op = op
        try:
            return self._record(f"bench.{name}", fn, None)(*args, **kwargs)
        finally:
            self.op = -1

    # -- aggregation -------------------------------------------------------

    @staticmethod
    def span_cost_s(calls: int = 20000) -> float:
        """Measured cost of recording one span around a call that does nothing."""
        def noop():
            return None
        traced = Tracer()._record("bench.probe", noop, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        return max(time.perf_counter() - t0 - bare, 0.0) / calls

    def _child_seconds(self) -> defaultdict:
        child = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.seconds
        return child

    def self_times(self, op: int | None = None) -> dict:
        """Seconds per module spent in its own spans minus their children."""
        child = self._child_seconds()
        out = defaultdict(float)
        for index, span in enumerate(self.spans):
            if op is None or span.op == op:
                out[span.module] += span.seconds - child[index]
        return dict(out)

    def self_total(self, name: str) -> float:
        child = self._child_seconds()
        return sum(s.seconds - child[i] for i, s in enumerate(self.spans) if s.name == name)

    def totals(self, name: str) -> tuple[int, float]:
        spans = [s for s in self.spans if s.name == name]
        return len(spans), sum(s.seconds for s in spans)

    def dump(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "error": s.error} for s in self.spans]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, name -> (value, unit), from one traced pass."""
    c = tracer.counts
    m = {}

    def timed(prefix, name):
        calls, seconds = tracer.totals(name)
        m[f"{prefix}_calls"] = (calls, "count")
        m[f"{prefix}_s"] = (seconds, "s")

    builds = [tracer.totals(n) for n in KERNEL_BUILDS]
    m["stiffness.build_s"] = (sum(s for _, s in builds), "s")
    m["stiffness.build_calls"] = (sum(n for n, _ in builds), "count")
    m["stiffness.symbol_evals"] = (c["stiffness.symbol_evals"], "count_computed")

    m["transfer.build_s"] = (tracer.totals("transfer.build_transfer")[1], "s")
    m["transfer.nnz"] = (c["transfer.nnz"], "count_computed")
    m["transfer.cols"] = (c["transfer.cols"], "count")
    m["transfer.rank_check_s"] = (tracer.totals("transfer.column_rank_check")[1], "s")
    m["transfer.rank_check_exact_calls"] = (c["transfer.rank_check_exact_calls"], "count")
    m["transfer.rank_check_heuristic_calls"] = (c["transfer.rank_check_heuristic_calls"],
                                                "count")
    m["transfer.choose_grid_s"] = (tracer.totals("transfer.choose_grid")[1], "s")

    m["ichol.factor_s"] = (tracer.totals("ichol.mic_factor_with_retry")[1], "s")
    m["ichol.factor_calls"] = (tracer.totals("ichol.mic_factor")[0], "count")
    m["ichol.shift_retries"] = (c["ichol.shift_retries"], "count")
    m["ichol.factor_nnz"] = (c["ichol.factor_nnz"], "count_computed")
    timed("ichol.solve", "ichol.MicFactor.solve")

    m["toeplitz.plan_s"] = (tracer.totals("toeplitz.ToeplitzPlan.__init__")[1], "s")
    timed("toeplitz.apply", "toeplitz.ToeplitzPlan.apply")
    m["toeplitz.fft_points"] = (c["toeplitz.fft_points"], "count_computed")
    m["toeplitz.spectrum_bytes"] = (c["toeplitz.spectrum_bytes"], "B_computed")

    timed("solver.operator_apply", "solver.OverlayOperator.apply")
    m["solver.operator_transfer_s"] = (tracer.self_total("solver.OverlayOperator.apply"), "s")
    for variant in ("sparse", "circulant"):
        m[f"solver.precond_build_s.{variant}"] = (
            tracer.totals(f"solver.build_{variant}_preconditioner")[1], "s")
    m["solver.precond_apply_calls.none"] = (c["solver.precond_apply_calls.none"],
                                            "count_computed")
    for variant, cls in (("sparse", "SparsePreconditioner"),
                         ("circulant", "CirculantPreconditioner")):
        calls, seconds = tracer.totals(f"solver.{cls}.apply")
        m[f"solver.precond_apply_calls.{variant}"] = (calls, "count")
        m[f"solver.precond_apply_s.{variant}"] = (seconds, "s")
    m["solver.cg_s"] = (tracer.totals("solver.cg_solve")[1], "s")
    m["solver.cg_iterations"] = (c["solver.cg_iterations"], "count")
    m["solver.auto_fallbacks"] = (c["solver.auto_fallbacks"], "count")
    m["solver.payload_floored"] = (c["solver.payload_floored"], "count_computed")
    m["solver.payload_negative"] = (c["solver.payload_negative"], "count_computed")

    m["mesh.load_s"] = (tracer.totals("mesh.load_mesh")[1], "s")
    m["mesh.quality_s"] = (tracer.totals("mesh.mesh_quality")[1], "s")
    m["mesh.l2_error_s"] = (tracer.totals("mesh.lumped_l2_error")[1], "s")
    m["cli.main_s"] = (tracer.totals("cli.main")[1], "s")
    m["cli.exit_nonzero"] = (c["cli.exit_nonzero"], "count")

    self_times = tracer.self_times()
    for module in MODULES:
        m[f"{module}.self_s"] = (self_times.get(module, 0.0), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
