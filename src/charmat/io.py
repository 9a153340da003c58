"""File formats and machine-readable reports for the command-line tools.

Three JSON schemas:

- *matrix file*: ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with
  exactly ``r * c`` row-major ``[re, im]`` pairs;
- *family file*: ``{"grid": [t...], "weights": [w...]?, "fibers": ...}``
  where ``fibers`` is either a list of matrix-file objects (one per node)
  or a named generator ``{"kind": <name>, "n": <dim>}`` replicated over the
  nodes (kinds: ``dirichlet-derivative``, ``periodic-derivative``,
  ``dirichlet-laplacian``, ``periodic-laplacian``);
- *report*: command, input digest, seed, residual/tolerance tables, an
  overall ``pass`` flag (true exactly when every residual is at most its
  tolerance), and wall time.

Floats serialize through Python's shortest round-trip repr (at most 17
significant digits), so writing and re-reading a matrix reproduces it
bit for bit.  Malformed files raise :class:`ParseError`; well-formed files
with invalid *values* (non-finite entries, inconsistent fiber shapes)
raise :class:`ValueError`.

Both directions of a matrix file stay on CPython's C JSON code.  The
writer encodes each matrix with one ``json.dumps`` call and a single
write: ``json.dump`` to a file is not one-shot, so it streams through the
pure-Python encoder, which is slower and formats every float with the
same ``float.__repr__`` (the bytes are identical).  The
reader checks the ``[re, im]`` pairs with an exact-type gate over
``map``/``set`` (``bool`` is not ``int`` there, so booleans stay
rejected); only when the gate fails does a per-pair loop run, to name
the first bad ``data[i]``.  The pairs become complex numbers by viewing
the ``(N, 2)`` float array as complex, not by ``re + 1j*im``, whose
arithmetic turns ``-0.0`` into ``0.0``.  A JSON integer beyond the float
range reads as the infinity it rounds to, so it is reported exactly like
``Infinity``.

Formatting the floats is most of a write and holds the GIL, so the CLI
writes its matrices through :func:`save_matrices`: one forked writer
process per file runs :func:`save_matrix` while the parent goes on
computing, and the parent waits for every writer before it reports.  The
bytes are those of :func:`save_matrix`.  This needs POSIX ``os.fork``.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import itertools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .boundary import GridDiscretization, derivative_operator, laplacian
from .family import OperatorFamily, ParameterGrid

__all__ = [
    "ParseError",
    "Report",
    "load_matrix",
    "save_matrix",
    "save_matrices",
    "load_family",
    "file_digest",
]

GENERATOR_KINDS = (
    "dirichlet-derivative",
    "periodic-derivative",
    "dirichlet-laplacian",
    "periodic-laplacian",
)


class ParseError(Exception):
    """A file is syntactically malformed or violates its schema."""


def _load_json(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc


def _as_floats(values: list) -> np.ndarray:
    """``np.asarray(values, dtype=float)``, reading out-of-range ints as +-inf."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        return np.vectorize(_int_to_float, otypes=[float])(np.array(values, dtype=object))


def _int_to_float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _is_pair_list(data: list) -> bool:
    """True when every item of non-empty ``data`` is a list of two ints/floats."""
    return (
        set(map(type, data)) == {list}
        and set(map(len, data)) == {2}
        and set(map(type, itertools.chain.from_iterable(data))) <= {int, float}
    )


def _matrix_from_obj(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = {"rows", "cols", "data"} - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing field(s) {sorted(missing)}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if (
        not all(isinstance(v, int) and not isinstance(v, bool) for v in (rows, cols))
        or rows < 1
        or cols < 1
    ):
        raise ParseError(f"{where}: rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else f"type {type(data).__name__}"
        raise ParseError(
            f"{where}: data must hold exactly rows*cols = {rows * cols} entries, got {got}"
        )
    if not _is_pair_list(data):
        for i, pair in enumerate(data):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise ParseError(f"{where}: data[{i}] must be a [re, im] pair of numbers")
    flat = _as_floats(data)
    A = flat.view(complex).reshape(rows, cols)  # bit-exact, signed zeros included
    if not np.all(np.isfinite(flat)):
        bad = int(np.argwhere(~np.isfinite(flat))[0][0])
        raise ValueError(f"{where}: non-finite entry at data[{bad}]")
    return A


def load_matrix(path) -> np.ndarray:
    """Read a matrix file into a complex array.

    Raises
    ------
    ParseError
        On malformed JSON or schema violations (including a wrong data
        length); the message carries the offending line or element.
    ValueError
        On non-finite entries.
    """
    return _matrix_from_obj(_load_json(path), str(path))


def _matrix_to_obj(A: np.ndarray) -> dict:
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "data": np.ascontiguousarray(A).view(float).reshape(-1, 2).tolist(),
    }


def save_matrix(path, A) -> None:
    """Write a matrix file; floats keep shortest round-trip precision."""
    text = json.dumps(_matrix_to_obj(A))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


#: Exit statuses of a writer beyond 0 (written) and the errno of a failed write.
_WRITER_OUT_OF_MEMORY = 254
_WRITER_FAILED = 255


def _fork_writer(path, A) -> int:
    """Fork a child that runs ``save_matrix(path, A)``; return its pid.

    The child makes no BLAS call, import or logging call, since the parent
    may have BLAS threads at the fork, and it leaves by ``os._exit``
    whatever happens, so it never returns into the caller.
    """
    pid = os.fork()
    if pid:
        return pid
    status = _WRITER_FAILED
    try:
        save_matrix(path, A)
        status = 0
    except MemoryError:
        status = _WRITER_OUT_OF_MEMORY
    except OSError as exc:
        if exc.errno and exc.errno < _WRITER_OUT_OF_MEMORY:
            status = exc.errno
    finally:
        os._exit(status)


def _writer_error(path, status: int) -> Exception | None:
    """The exception a writer's wait status stands for, or None if it wrote."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return None
    if code == _WRITER_OUT_OF_MEMORY:
        return MemoryError(f"writing {path}")
    if 0 < code < _WRITER_OUT_OF_MEMORY:
        return OSError(code, os.strerror(code), str(path))
    reason = f"writer killed by signal {-code}" if code < 0 else "writer failed"
    return OSError(errno.EIO, reason, str(path))


@contextmanager
def save_matrices(files: dict):
    """Write each ``{path: matrix}`` of ``files`` while the body runs.

    Each file gets a forked writer running :func:`save_matrix` (where no
    process can be forked, the file is written here before the body).
    Every writer is reaped when the body ends, so the files are complete
    afterwards.  An exception from the body wins; otherwise a failed
    writer raises here: :class:`MemoryError` if it ran out of memory, else
    :class:`OSError` naming its file.
    """
    writers = {}
    try:
        for path, A in files.items():
            try:
                writers[_fork_writer(path, A)] = path
            except OSError:  # no process to spare: write it here
                save_matrix(path, A)
        yield
    finally:
        errors = [_writer_error(path, os.waitpid(pid, 0)[1]) for pid, path in writers.items()]
    for exc in errors:
        if exc is not None:
            raise exc


def load_family(path) -> OperatorFamily:
    """Read a family file into an :class:`~charmat.family.OperatorFamily`.

    Raises
    ------
    ParseError
        On malformed JSON or schema violations.
    ValueError
        On invalid values: non-increasing grid, non-positive weights,
        mixed fiber dimensions, non-finite entries, unknown generator kind.
    """
    obj = _load_json(path)
    where = str(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object at top level")
    if "grid" not in obj or "fibers" not in obj:
        raise ParseError(f"{where}: missing field(s) {sorted({'grid', 'fibers'} - obj.keys())}")
    nodes = obj["grid"]
    if not isinstance(nodes, list) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) for t in nodes
    ):
        raise ParseError(f"{where}: grid must be a list of numbers")
    weights = obj.get("weights")
    if weights is not None and (
        not isinstance(weights, list)
        or not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights)
    ):
        raise ParseError(f"{where}: weights must be a list of numbers")
    grid = ParameterGrid(_as_floats(nodes), None if weights is None else _as_floats(weights))

    fibers_obj = obj["fibers"]
    if isinstance(fibers_obj, dict):
        missing = {"kind", "n"} - fibers_obj.keys()
        if missing:
            raise ParseError(f"{where}: generator missing field(s) {sorted(missing)}")
        kind, n = fibers_obj["kind"], fibers_obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError(f"{where}: generator n must be an integer")
        if kind not in GENERATOR_KINDS:
            raise ValueError(f"{where}: unknown generator kind {kind!r}; "
                             f"expected one of {GENERATOR_KINDS}")
        g = GridDiscretization(n, kind.split("-")[0])
        fiber = derivative_operator(g) if kind.endswith("derivative") else laplacian(g)
        fibers = np.broadcast_to(fiber, (grid.m, n, n)).copy()
    elif isinstance(fibers_obj, list):
        if len(fibers_obj) != grid.m:
            raise ParseError(f"{where}: {len(fibers_obj)} fibers for {grid.m} grid nodes")
        mats = [_matrix_from_obj(o, f"{where}: fibers[{k}]") for k, o in enumerate(fibers_obj)]
        shapes = {m.shape for m in mats}
        if len(shapes) > 1:
            raise ValueError(f"{where}: mixed fiber dimensions {sorted(shapes)}")
        fibers = np.stack(mats)
    else:
        raise ParseError(f"{where}: fibers must be a list of matrices or a generator object")
    return OperatorFamily(grid, fibers)


def file_digest(path) -> str:
    """Hex sha256 of a file's raw bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def params_digest(params: dict) -> str:
    """Hex sha256 of a canonical JSON encoding of command parameters."""
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


@dataclass
class Report:
    """Machine-readable outcome of one command invocation.

    ``passed`` is true exactly when every residual is at most its declared
    tolerance.  ``notes`` carries non-numeric diagnostics (skipped checks,
    classification outcomes) without affecting the pass rule.
    """

    command: str
    inputs: str
    residuals: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None
    wall_time_ms: float = 0.0
    notes: dict = field(default_factory=dict)

    def add(self, label: str, residual: float, tolerance: float) -> None:
        self.residuals[label] = float(residual)
        self.tolerances[label] = float(tolerance)

    @property
    def passed(self) -> bool:
        return all(self.residuals[k] <= self.tolerances[k] for k in self.residuals)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "residuals": dict(self.residuals),
            "tolerances": dict(self.tolerances),
            "notes": dict(self.notes),
            "pass": self.passed,
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def save(self, path, fmt: str = "json") -> None:
        """Write the report as ``json`` or as a flat ``csv`` table."""
        if fmt == "json":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.to_json())
                fh.write("\n")
        elif fmt == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["field", "label", "value"])
                w.writerow(["command", "", self.command])
                w.writerow(["inputs", "", self.inputs])
                w.writerow(["seed", "", "" if self.seed is None else self.seed])
                w.writerow(["pass", "", str(self.passed).lower()])
                w.writerow(["wall_time_ms", "", repr(self.wall_time_ms)])
                for label in sorted(self.residuals):
                    w.writerow(["residual", label, repr(self.residuals[label])])
                    w.writerow(["tolerance", label, repr(self.tolerances[label])])
                for label in sorted(self.notes):
                    w.writerow(["note", label, self.notes[label]])
        else:
            raise ValueError(f"unknown report format {fmt!r}")
