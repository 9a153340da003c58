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

Floats serialize as Python's shortest round-trip repr (at most 17
significant digits), so writing and re-reading a matrix reproduces it
bit for bit.  Malformed files raise :class:`ParseError`; well-formed files
with invalid *values* (non-finite entries, inconsistent fiber shapes)
raise :class:`ValueError`.

The writer produces the bytes of ``json.dumps`` without it: numpy finds
the repr digits of every value in a range that covers typical matrices
and ``json.dumps`` spells the rest (see :func:`save_matrix`).  The reader stays
on CPython's C JSON code, with the cyclic garbage collector paused.  It
flattens the ``[re, im]`` pairs once, checks them with an exact-type gate
over ``map``/``set`` (``bool`` is not ``int`` there, so booleans stay
rejected) and converts the flat list; only when the gate fails does a
per-pair loop run, to name the first bad ``data[i]``.  The pairs become
complex numbers by viewing the float array as complex, not by ``re + 1j*im``,
whose arithmetic turns ``-0.0`` into ``0.0``.  A JSON integer beyond the
float range reads as the infinity it rounds to, so it is reported exactly
like ``Infinity``.

The CLI writes its matrices through :func:`save_matrices`: one forked
writer (POSIX ``os.fork``) writes them while the parent computes.  If it
does not exit 0, the parent writes every file itself, so a failed write
raises :func:`save_matrix`'s own error and a killed writer does not fail
the command.
"""

from __future__ import annotations

import csv
import functools
import gc
import hashlib
import itertools
import json
import logging
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

log = logging.getLogger("charmat")

GENERATOR_KINDS = (
    "dirichlet-derivative",
    "periodic-derivative",
    "dirichlet-laplacian",
    "periodic-laplacian",
)


class ParseError(Exception):
    """A file is syntactically malformed or violates its schema."""


def _load_json(path) -> object:
    collecting = gc.isenabled()
    gc.disable()  # json.load's lists, one per pair, are no garbage: collecting them frees nothing
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    finally:
        if collecting:
            gc.enable()


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
    # one flat pass checks and converts the pairs; the loop only names the first bad one
    pairs = set(map(type, data)) == {list} and set(map(len, data)) == {2}
    flat = list(itertools.chain.from_iterable(data)) if pairs else []
    if not (pairs and set(map(type, flat)) <= {int, float}):
        for i, pair in enumerate(data):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise ParseError(f"{where}: data[{i}] must be a [re, im] pair of numbers")
    flat = _as_floats(flat)
    A = flat.view(complex).reshape(rows, cols)  # bit-exact, signed zeros included
    if not np.all(np.isfinite(flat)):
        bad = int(np.flatnonzero(~np.isfinite(flat))[0]) // 2
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


# Matrix files are written as json.dumps would write them, but the floats
# are encoded with numpy.  float.__repr__ gives the shortest digits that read
# back to the same double, and of those the closest (Steele & White 1990;
# Gay 1990).  Zeros take a fixed text.  For |x| in (1e-6, 1e17), and only
# for those values, the digits are computed exactly here: y = |x| 10**k lies
# in [1e16, 1e17) for some k <= 22, so 10**k is an exact double and Dekker's
# (1971) product gives y = hi + lo exactly.  The reals that round to x,
# times 10**k, form an interval around y, kept in int64 fixed point.  Of the
# multiples of the largest power of ten in it, the one closest to y gives
# the digits.  json.dumps spells every other value, non-finite ones included.

_CHUNK = 1 << 15  # values encoded and written at a time
_ZERO = (1 + 5) * 17  # the layout of 0.0: one digit at p = 1 (see _text_tables)

#: 10**k, an exact double for k <= 22 (5**22 < 2**53)
_POW10 = np.array([float(10**k) for k in range(23)])
_IPOW10 = 10 ** np.arange(17, dtype=np.int64)


def _halves(a):
    # Veltkamp's split: a = hi + lo exactly, each of at most 26 significant bits
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _times_pow10(a, k):
    """``a * 10**k`` as ``hi + lo`` exactly (Dekker's TwoProduct); ``a < 1e300``."""
    hi = a * _POW10[k]
    a1, a2 = _halves(a)
    b1, b2 = _POW10_HI[k], _POW10_LO[k]
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


@functools.cache
def _text_tables():
    """The text rows of ``float.__repr__``, one per decimal point ``p`` and digit count ``n``.

    A row is ``[-0.000`` then the 17 digit columns, each followed by a ``.``
    column, then an exponent and ``], ``; it holds the characters that
    ``(p, n)`` shows, with 0 in every other column.  Also returned: which
    digit columns ``(p, n)`` shows, and the ASCII of 0000..9999, four bytes
    each.  Built at the first write: a command that writes no matrix does
    not pay for them at start-up.
    """
    rows = np.zeros((23, 17, 48), np.uint8)
    shown = np.zeros((23, 17), np.uint8)
    for p in range(-5, 18):  # the value is 0.d1d2... * 10**p
        for n in range(1, 18):
            row = rows[p + 5, n - 1]
            row[45:47] = list(b", ")
            dot = None
            if p <= -4 or p == 17:  # d.ddde-05
                row[40:44] = list({-5: b"e-06", -4: b"e-05", 17: b"e+16"}[p])
                dot, shown[p + 5, n - 1] = (0 if n > 1 else None), n
            elif p <= 0:  # 0.00ddd
                row[2:4 - p] = list(b"0.000"[:2 - p])
                shown[p + 5, n - 1] = n
            else:  # ddd.ddd, ddd00.0
                dot, shown[p + 5, n - 1] = p - 1, max(n, p + 1)
            if dot is not None:
                row[8 + 2 * dot] = ord(".")
    digits4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    shows = np.arange(17) < shown.reshape(-1, 1)  # a gather of this is cheaper than the compare
    return rows.reshape(-1, 48).view("<u8"), shows, digits4.view("<u4").ravel()


def _shortest_digits(ax: np.ndarray) -> tuple:
    """``float.__repr__``'s digits of each of ``ax``, all in (1e-6, 1e17), as ``(c, k, j, ties)``.

    The digits are those of the 17-digit integer ``c``, less its ``j``
    trailing zeros, and ``ax`` reads as ``c / 10**k``.  ``ties`` indexes the
    values halfway between two candidates, whose digits are left to repr.
    """
    k = (16 - np.floor(np.log10(ax))).astype(np.intp)
    np.clip(k, 0, 22, out=k)
    hi, lo = _times_pow10(ax, k)
    # floor(log10) misses by one next to a power of ten: move y = hi + lo into [1e16, 1e17)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    k += low  # at most 22: ax > 1e-6 puts y = ax 10**22 above 1e16
    k -= high
    moved = np.flatnonzero(low | high)
    hi[moved], lo[moved] = _times_pow10(ax[moved], k[moved])

    # The interval, in units of 2**-52 from the integer hi: y >= 1e16 and
    # k <= 22 put the last bit of lo, and of the half gaps to x's
    # neighbours times 10**k, at or above 2**-52, so these are exact.  The
    # interval is closed when x's mantissa is even (reading rounds half to
    # even), and its lower half is half as wide at a power of two.
    bits = ax.view(np.int64)
    up = (np.spacing(ax) * _POW10[k] * 2.0**51).astype(np.int64)
    down = up >> ((bits & (2**52 - 1)) == 0)
    odd = bits & 1
    H = hi.astype(np.int64)
    LO = (lo * 2.0**52).astype(np.int64)
    first = H - ((down - LO - odd) >> 52)  # the least integer in the interval
    final = H + ((LO + up - odd) >> 52)  # and the greatest

    j = np.zeros(ax.size, np.intp)  # the largest power 10**j with a multiple in [first, final]
    rows = np.arange(ax.size)
    for e in range(1, 17):
        rows = rows[final[rows] // _IPOW10[e] * _IPOW10[e] >= first[rows]]
        if not rows.size:
            break
        j[rows] = e
    step = _IPOW10[j]
    below = (H + (LO >> 52)) // step * step  # the multiples on either side of y
    above = below + step
    in_below, in_above = below >= first, above <= final
    both = in_below & in_above  # then step <= 10, so this does not overflow:
    side = ((2 * (H - below) - step) * both << 52) + 2 * LO  # 2 (y - below) - step
    c = np.where(in_above & (~in_below | (side > 0)), above, below)
    return c, k, j, np.flatnonzero(both & (side == 0))  # ties: repr rounds them half even


def _encode_pairs(x: np.ndarray, last: bool) -> bytes:
    """The ``[re, im], `` text of the float pairs ``x``, with no ``, `` after the last if ``last``."""
    layouts, shows, digits4 = _text_tables()
    ax = np.abs(x)
    fits = (ax > 1e-6) & (ax < 1e17)  # the digit pass spells these; nan compares False
    inside = np.flatnonzero(fits)
    c = np.zeros(x.size, np.int64)  # 0.0 is the text of c = 0 in the _ZERO layout
    code = np.full(x.size, _ZERO)
    c[inside], k, j, ties = _shortest_digits(ax[inside])
    code[inside] = (22 - k) * 17 + (16 - j)
    text = layouts.take(code, axis=0).view(np.uint8)
    digits = np.empty((x.size, 5), np.uint32)  # c's 17 digits, after 3 bytes
    for i, scale in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
        group = c // scale
        digits[:, i] = digits4.take(group)
        c -= group * scale
    text[:, 7:40:2] = digits.view(np.uint8)[:, 3:] * shows.take(code, axis=0)
    text[:, 1] = np.signbit(x) * ord("-")
    text[0::2, 0] = ord("[")
    text[1::2, 44] = ord("]")
    if last:
        text[-1, 45:] = 0
    fits[inside[ties]] = False
    redo = np.flatnonzero(~fits & (x != 0))  # json.dumps spells the rest, with repr
    if redo.size:  # a float's text has at most 24 characters
        spelled = np.array(json.dumps(x[redo].tolist())[1:-1].encode().split(b", "), dtype="S24")
        text[redo, 1:44] = 0
        text[redo, 7:31] = spelled.view(np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b"\0")


def save_matrix(path, A) -> None:
    """Write a matrix file, byte for byte what ``json.dumps`` makes of it.

    Each float is written as ``float.__repr__`` spells it.  Zeros take a
    fixed text, numpy computes the digits of ``|x|`` in (1e-6, 1e17), and
    ``json.dumps`` spells every other value.  The pairs are encoded
    ``_CHUNK`` values at a time, and each chunk is written as soon as it is
    made.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    values = np.ascontiguousarray(A).view(float).ravel()
    with open(path, "wb") as fh:
        fh.write(f'{{"rows": {A.shape[0]}, "cols": {A.shape[1]}, "data": ['.encode())
        for start in range(0, values.size, _CHUNK):
            stop = start + _CHUNK
            fh.write(_encode_pairs(values[start:stop], last=stop >= values.size))
        fh.write(b"]}\n")


def _fork_writer(files: dict) -> int:
    """Fork a child that runs ``save_matrix`` on each of ``files``; return its pid.

    The child makes no BLAS, import or logging call (the parent may have
    BLAS threads at the fork) and never returns into the caller: it leaves
    by ``os._exit``, 0 once it has written every file, 1 otherwise.
    """
    if pid := os.fork():
        return pid
    try:
        for path, A in files.items():
            save_matrix(path, A)
        os._exit(0)
    finally:
        os._exit(1)  # save_matrix raised


def _write_here(path, A) -> None:
    # save_matrix in this process; running out of memory names the file
    try:
        save_matrix(path, A)
    except MemoryError as exc:
        raise MemoryError(f"writing {path}") from exc


@contextmanager
def save_matrices(files: dict):
    """Write each ``{path: matrix}`` of ``files`` while the body runs.

    One forked writer runs :func:`save_matrix` on every file, or where no
    process can be forked the files are written here before the body.  The
    writer is reaped when the body ends; unless the body raised, every file
    is then written here if the writer did not exit 0, and any error is
    raised.
    """
    try:
        pid = _fork_writer(files)
    except OSError:  # no process to spare: write them here
        pid = None
        for path, A in files.items():
            _write_here(path, A)
    try:
        yield
    finally:
        code = 0 if pid is None else os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        for path, A in files.items():
            log.info("writer of %s exited with %d; writing it here", path, code)
            _write_here(path, A)


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
