"""Spans and counters recorded from outside the lqobt package.

Nothing in ``src/`` is instrumented. During a traced pass the tracer

* hands the data route a forwarding proxy of the sampler that times and
  counts each grid call (the data route accepts any object with those
  methods), and
* rebinds the module attributes the package looks up at call time
  (``lqobt.model.expm``, ``lqobt.databt.svd``, ``lqobt.gramians.solve_lyapunov``
  and so on) to wrappers that record a span around the original.

Spans stay in memory and are written out when the benchmark ends. A span's
self time is its duration minus the part of it covered by its child spans.
"""

import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

SAMPLER_METHODS = ("h1_grid", "dh1_grid", "h2_grid", "dh2_grid", "tf1", "tf2_grid")
KERNEL_GRID = ("model.h1_grid", "model.dh1_grid", "model.h2_grid", "model.dh2_grid")
TF_GRID = ("model.tf1", "model.tf2_grid")


@dataclass
class Span:
    """One call at a layer boundary. `parent` indexes the enclosing span in
    the tracer's list (``None`` for a pass root); `pass_id` is shared by all
    spans of one pass."""

    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _output_size(args, kwargs, out):
    return {"size": int(np.asarray(out).size)}


def _expm_time(args, kwargs, out):
    return {"t": float(args[1] if len(args) > 1 else kwargs.get("t", 1.0))}


def _lyap_operands(args, kwargs, out):
    # kept by reference; residuals are computed after the pass, off the clock
    return {"operands": (args[0], args[1], out)}


def _assembled_bytes(args, kwargs, out):
    arrays = [out.H, out.M, out.h, out.g, *out.K]
    return {"bytes": int(sum(a.size * a.itemsize for a in arrays))}


# (module, attribute, span name, attribute recorder). Every attribute is a
# name the package resolves through its module globals when it runs, so
# rebinding it intercepts internal calls as well as the benchmark's own.
PATCHES = (
    ("lqobt.model", "expm", "numcore.expm", _expm_time),
    ("lqobt.databt", "collect_time_data", "databt.collect", None),
    ("lqobt.databt", "collect_freq_data", "databt.collect", None),
    ("lqobt.databt", "build_data_matrices", "databt.assemble", _assembled_bytes),
    ("lqobt.databt", "svd", "numcore.svd", None),
    ("lqobt.databt", "reduce_from_matrices", "databt.project", None),
    ("lqobt.databt", "lqo_qbt_streamed", "databt.stream", None),
    ("lqobt.gramians", "solve_lyapunov", "numcore.lyap", _lyap_operands),
    ("lqobt.gramians", "psd_sqrt_factor", "numcore.psd_sqrt", None),
    ("lqobt.gramians", "svd", "numcore.svd", None),
    ("lqobt.gramians", "compute_gramians", "gramians.compute_gramians", None),
    ("lqobt.gramians", "h2_error", "gramians.h2_error", None),
    ("lqobt.gramians", "intrusive_bt", "gramians.bt", None),
)


class Tracer:
    """Records spans for the passes run under :meth:`traced_pass`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._pass_id = None

    def wrap(self, name, fn, recorder=None):
        """`fn` with a span named `name` around every call."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._pass_id))
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
            if recorder is not None:
                self.spans[idx].attrs.update(recorder(args, kwargs, out))
            return out

        return traced

    def sampler(self, sampler):
        """Forwarding proxy of `sampler` whose grid methods are traced."""
        return TracedSampler(sampler, self)

    @contextmanager
    def traced_pass(self, pass_id):
        """Install the rebindings and open the root span of one pass."""
        saved = []
        try:
            for module_name, attr, span_name, recorder in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, recorder))
            self._pass_id = pass_id
            idx = len(self.spans)
            self.spans.append(Span("pass", time.perf_counter(), 0.0, None, pass_id))
            self._stack.append(idx)
            try:
                yield
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._pass_id = None

    def pass_ids(self):
        return sorted({s.pass_id for s in self.spans})

    def dump(self):
        """Spans as JSON-ready dicts (array operands dropped)."""
        out = []
        for s in self.spans:
            d = asdict(s)
            d["attrs"] = {k: v for k, v in s.attrs.items() if k != "operands"}
            out.append(d)
        return out


class TracedSampler:
    """Forwards every attribute to the wrapped sampler; the grid methods
    it has are replaced by traced versions that record the size of what
    they return."""

    def __init__(self, sampler, tracer):
        self._sampler = sampler
        for name in SAMPLER_METHODS:
            method = getattr(sampler, name, None)
            if method is not None:
                setattr(self, name, tracer.wrap(f"model.{name}", method, _output_size))

    def __getattr__(self, name):
        return getattr(self._sampler, name)


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def lyapunov_residual(A_eq, W, X):
    """Relative residual of ``A_eq' X + X A_eq + W = 0``, the form
    ``solve_lyapunov(A_eq, W)`` solves, scaled by ``max(1, ||W||)``."""
    res = np.linalg.norm(A_eq.T @ X + X @ A_eq + W)
    return float(res / max(1.0, np.linalg.norm(W)))


# (metric, unit). Times are seconds per pass; "computed" byte counts come
# from array shapes, not from an allocator.
PER_LAYER = (
    ("model.kernel_grid_s", "s"),
    ("model.tf_grid_s", "s"),
    ("model.sample_calls", "count"),
    ("model.samples_out", "count"),
    ("numcore.expm_s", "s"),
    ("numcore.expm_calls", "count"),
    ("numcore.expm_distinct_frac", "1"),
    ("numcore.svd_s", "s"),
    ("numcore.svd_calls", "count"),
    ("numcore.lyap_s", "s"),
    ("numcore.lyap_calls", "count"),
    ("numcore.psd_sqrt_s", "s"),
    ("databt.collect_self_s", "s"),
    ("databt.assemble_s", "s"),
    ("databt.assemble_bytes", "B"),
    ("databt.stream_self_s", "s"),
    ("databt.project_s", "s"),
    ("gramians.compute_gramians_s", "s"),
    ("gramians.compute_gramians_calls", "count"),
    ("gramians.h2_error_s", "s"),
    ("gramians.h2_error_calls", "count"),
    ("gramians.h2_error_ms_p50", "ms"),
    ("gramians.bt_s", "s"),
    ("gramians.lyap_residual_max", "1"),
)

COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "B"))


def pass_metrics(spans, pass_id):
    """Per-layer metrics of one pass, keyed as in :data:`PER_LAYER`."""
    selfs = self_times(spans)
    mine = [(s, st) for s, st in zip(spans, selfs) if s.pass_id == pass_id]

    def named(*names):
        return [(s, st) for s, st in mine if s.name in names]

    def total(*names):
        return sum(s.duration for s, _ in named(*names))

    def self_total(name):
        return sum(st for _, st in named(name))

    def calls(*names):
        return len(named(*names))

    expm = named("numcore.expm")
    h2e = [s.duration for s, _ in named("gramians.h2_error")]
    residuals = [lyapunov_residual(*s.attrs["operands"]) for s, _ in named("numcore.lyap")]
    return {
        "model.kernel_grid_s": total(*KERNEL_GRID),
        "model.tf_grid_s": total(*TF_GRID),
        "model.sample_calls": calls(*KERNEL_GRID, *TF_GRID),
        "model.samples_out": sum(s.attrs["size"] for s, _ in named(*KERNEL_GRID, *TF_GRID)),
        "numcore.expm_s": total("numcore.expm"),
        "numcore.expm_calls": len(expm),
        "numcore.expm_distinct_frac": (
            len({s.attrs["t"] for s, _ in expm}) / len(expm) if expm else 0.0
        ),
        "numcore.svd_s": total("numcore.svd"),
        "numcore.svd_calls": calls("numcore.svd"),
        "numcore.lyap_s": total("numcore.lyap"),
        "numcore.lyap_calls": calls("numcore.lyap"),
        "numcore.psd_sqrt_s": total("numcore.psd_sqrt"),
        "databt.collect_self_s": self_total("databt.collect"),
        "databt.assemble_s": total("databt.assemble"),
        "databt.assemble_bytes": sum(s.attrs["bytes"] for s, _ in named("databt.assemble")),
        "databt.stream_self_s": self_total("databt.stream"),
        "databt.project_s": self_total("databt.project"),
        "gramians.compute_gramians_s": total("gramians.compute_gramians"),
        "gramians.compute_gramians_calls": calls("gramians.compute_gramians"),
        "gramians.h2_error_s": sum(h2e),
        "gramians.h2_error_calls": len(h2e),
        "gramians.h2_error_ms_p50": 1e3 * statistics.median(h2e) if h2e else 0.0,
        "gramians.bt_s": total("gramians.bt"),
        "gramians.lyap_residual_max": max(residuals, default=0.0),
    }
