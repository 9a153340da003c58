"""Spans and counters for the traced run, recorded from outside charmat.

:class:`Tracer` wraps charmat's public functions *where their callers look
them up* (``charmat.cli.char_matrix`` and ``charmat.family.char_matrix`` are
two bindings of one function, so both are wrapped), and counts the dense
factorizations made through numpy/scipy.  Spans live in memory, each with
its parent, until the run writes them out.  ``hilbert`` is a shared kernel
and is never wrapped, so its time lands in whichever layer called it.
Every wrapper is removed again when :meth:`Tracer.installed` exits.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


def _arg_size(index: int, key: str = "bytes_read"):
    """Measure hook recording the size of the file named by positional ``index``."""
    return lambda args, kwargs: {key: os.path.getsize(args[index])}


def _fiber_shape(args, kwargs):
    return {"m": args[0].m, "n": args[0].n}


def _matrix_dim(args, kwargs):
    return {"n": int(np.shape(args[0])[0])}


#: (module, attribute, span name, measure hook): the charmat call sites the
#: workloads reach.  A dotted attribute patches a class member.
SPANNED = (
    ("charmat.cli", "load_matrix", "io.load_matrix", _arg_size(0)),
    ("charmat.cli", "load_family", "io.load_family", _arg_size(0)),
    ("charmat.cli", "file_digest", "io.file_digest", _arg_size(0)),
    ("charmat.cli", "save_matrix", "io.save_matrix", _arg_size(0, "bytes_written")),
    ("charmat.io", "Report.save", "io.report_save", _arg_size(1, "bytes_written")),
    ("charmat.io", "laplacian", "boundary.laplacian", None),
    ("charmat.cli", "char_matrix", "graph.char_matrix", _matrix_dim),
    ("charmat.cli", "char_matrix_oracle", "graph.oracle", None),
    ("charmat.cli", "verify_identities", "graph.verify_identities", None),
    ("charmat.cli", "adjoint_char_matrix", "graph.adjoint_char_matrix", None),
    ("charmat.cli", "inverse_char_matrix", "graph.inverse_char_matrix", None),
    ("charmat.graph", "char_matrix", "graph.char_matrix", _matrix_dim),
    ("charmat.graph", "char_matrix_oracle", "graph.oracle", None),
    ("charmat.graph", "verify_identities", "graph.verify_identities", None),
    ("charmat.graph", "adjoint_char_matrix", "graph.adjoint_char_matrix", None),
    ("charmat.graph", "inverse_char_matrix", "graph.inverse_char_matrix", None),
    ("charmat.graph", "operator_from_char_matrix", "graph.operator_from_char_matrix", None),
    ("charmat.family", "char_matrix", "graph.char_matrix", _matrix_dim),
    ("charmat.family", "OperatorFamily.assemble", "family.assemble", None),
    ("charmat.cli", "char_matrix_fiberwise", "family.char_matrix_fiberwise", _fiber_shape),
    ("charmat.cli", "decomposition_suite", "family.suite", None),
    ("charmat.cli", "family_norm", "family.family_norm", None),
    ("charmat.cli", "laplacian", "boundary.laplacian", None),
    ("charmat.cli", "separation_witness", "boundary.witness", None),
    ("charmat.cli", "deficiency_vector", "boundary.deficiency_vector", None),
    ("charmat.cli", "boundary_mismatch", "boundary.mismatch", None),
    ("charmat.cli", "stone_formula_check", "calculus.stone", None),
    ("charmat.cli", "fourier_resolvent_check", "calculus.fourier", None),
)

#: Dense factorization entry points counted in numpy.linalg and scipy.linalg;
#: ``norm`` counts only as ``norm(A, 2)``, which is an SVD.
FACTORIZATIONS = ("svd", "eigh", "eigvalsh", "qr", "inv", "solve", "cho_factor", "norm")


def _n3(a) -> int:
    """``batch * rows * cols * min(rows, cols)``: the cube of ``n`` for a square matrix."""
    shape = np.shape(a)
    rows, cols = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * rows * cols * min(rows, cols)


class _Overlay:
    """Module stand-in: the given overrides, then every attribute of ``base``."""

    def __init__(self, base, **overrides):
        self._base = base
        vars(self).update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


@dataclass
class Span:
    id: int
    parent: int | None
    invocation: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self.invocation = -1

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.invocation, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def root(self, name: str, **attrs):
        """One invocation: a new invocation id and its root span."""
        self.invocation += 1
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, fn, name: str, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span.attrs.update(measure(args, kwargs))
            return result
        return wrapper

    def _count(self, fn):
        is_norm = fn.__name__ == "norm"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            order = args[1] if len(args) > 1 else kwargs.get("ord")
            if self._stack and (not is_norm or (order == 2 and np.ndim(args[0]) >= 2)):
                attrs = self._stack[-1].attrs
                attrs["factorizations"] = attrs.get("factorizations", 0) + 1
                attrs["factorized_n3"] = attrs.get("factorized_n3", 0) + _n3(args[0])
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit, in reverse order."""
        try:
            for module in (np.linalg, scipy.linalg):
                for name in FACTORIZATIONS:
                    if hasattr(module, name):
                        self._patch(module, name, self._count(getattr(module, name)))
            for module_name, attr, span_name, measure in SPANNED:
                owner = importlib.import_module(module_name)
                *path, attr = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                self._patch(owner, attr, self._wrap(getattr(owner, attr), span_name, measure))
            # example-dirichlet calls np.linalg.eigvalsh from cli.py itself
            cli = importlib.import_module("charmat.cli")
            spectra = self._wrap(np.linalg.eigvalsh, "boundary.spectra")
            self._patch(cli, "np", _Overlay(np, linalg=_Overlay(np.linalg, eigvalsh=spectra)))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Span id -> duration minus the time its direct children cover."""
        covered = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {span.id: span.duration - covered.get(span.id, 0.0) for span in self.spans}

    def to_records(self) -> list:
        selfs = self.self_times()
        return [
            {"id": s.id, "parent": s.parent, "invocation": s.invocation, "name": s.name,
             "start": s.start, "end": s.end, "self": selfs[s.id], "attrs": s.attrs}
            for s in self.spans
        ]


#: Span name -> per-layer metric summing the durations of its calls.
TIME_OF = {
    "io.load_matrix": "io.load_matrix_s",
    "io.load_family": "io.load_family_s",
    "io.save_matrix": "io.save_matrix_s",
    "io.report_save": "io.report_save_s",
    "io.file_digest": "io.digest_s",
    "graph.char_matrix": "graph.char_matrix_s",
    "graph.oracle": "graph.oracle_s",
    "graph.verify_identities": "graph.verify_identities_s",
    "graph.inverse_char_matrix": "graph.inverse_char_matrix_s",
    "graph.operator_from_char_matrix": "graph.operator_from_char_matrix_s",
    "family.suite": "family.suite_s",
    "family.assemble": "family.assemble_s",
    "boundary.spectra": "boundary.spectra_s",
    "boundary.witness": "boundary.witness_s",
    "boundary.laplacian": "boundary.laplacian_s",
    "calculus.stone": "calculus.stone_s",
    "calculus.fourier": "calculus.fourier_s",
}
#: Span name -> per-layer metric counting its calls.
CALLS_OF = {"graph.char_matrix": "graph.char_matrix_calls", "family.assemble": "family.assemble_calls"}
#: Span attribute -> per-layer metric summing it.
ATTR_OF = {"bytes_read": "io.bytes_read", "bytes_written": "io.bytes_written",
           "factorizations": "linalg.factorizations", "factorized_n3": "linalg.factorized_n3"}


def layer_totals(records: list) -> dict:
    """Per-layer metrics of one traced pass from its span records."""
    out = dict.fromkeys(TIME_OF.values(), 0.0)
    out.update(dict.fromkeys([*CALLS_OF.values(), *ATTR_OF.values()], 0))
    out.update({"family.fiber_pass_s": 0.0, "family.dense_audit_s": 0.0,
                "cli.self_s": 0.0, "api.self_s": 0.0})
    by_id = {r["id"]: r for r in records}
    for r in records:
        name, duration = r["name"], r["end"] - r["start"]
        if name in TIME_OF:
            out[TIME_OF[name]] += duration
        if name in CALLS_OF:
            out[CALLS_OF[name]] += 1
        if name in ("cli", "api"):
            out[f"{name}.self_s"] += r["self"]
        if name == "family.char_matrix_fiberwise":
            out["family.dense_audit_s"] += duration
        parent = by_id.get(r["parent"])
        if (name == "graph.char_matrix" and parent is not None
                and parent["name"] == "family.char_matrix_fiberwise"
                and r["attrs"]["n"] == parent["attrs"]["n"]):
            out["family.fiber_pass_s"] += duration
            out["family.dense_audit_s"] -= duration
        for key, metric in ATTR_OF.items():
            out[metric] += r["attrs"].get(key, 0)
    return out


def unaccounted(records: list, walls: list) -> float:
    """Largest gap, over invocations, between the wall around it and the sum of its self times."""
    self_sum = {}
    for r in records:
        self_sum[r["invocation"]] = self_sum.get(r["invocation"], 0.0) + r["self"]
    return max(abs(wall - self_sum.get(i, 0.0)) for i, wall in enumerate(walls))


def import_times(stderr: str) -> dict:
    """Cumulative seconds per top-level package from ``python -X importtime`` output.

    Lines come children-first; read in reverse they are parents-first, and
    the indentation of the package column gives the nesting depth.  A
    package's time is the cumulative time of its outermost entries, so
    ``scipy`` counts ``scipy.linalg`` pulled in under ``charmat.graph``.
    """
    totals = {"charmat": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[str] = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        stack[depth:] = [name]
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for a in stack[:depth]):
            totals[top] += int(cumulative) * 1e-6
    return totals


def median_totals(passes: list) -> dict:
    """Metric-wise median over the per-pass totals; counts stay whole numbers."""
    return {key: (statistics.median_low if isinstance(passes[0][key], int) else statistics.median)(
        [p[key] for p in passes]) for key in passes[0]}
