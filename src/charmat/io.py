"""Matrix and family files (README, "File formats") and the commands' reports.

Invariants: a matrix written and read back is the same bit for bit, signed
zeros included.  Malformed files raise :class:`ParseError`, and well-formed
files with invalid values (non-finite entries, inconsistent fibers) raise
``ValueError``; a JSON integer beyond the float range reads as the infinity
it rounds to.  A :class:`Report` is one command's
:class:`~charmat.hilbert.Checks`; its ``pass`` is true exactly when every
residual is at most its tolerance, the bound that came with it.
"""

from __future__ import annotations

import csv
import functools
import gc
import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .boundary import GridDiscretization, derivative_operator, laplacian
from .family import OperatorFamily, ParameterGrid
from .hilbert import Checks

__all__ = [
    "ParseError",
    "Report",
    "load_matrix",
    "save_matrix",
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
    """``json.load`` of ``path``, cyclic collector paused; any failure is a ``ParseError``."""
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
    except (UnicodeDecodeError, RecursionError) as exc:  # bytes not UTF-8; nesting too deep
        raise ParseError(f"{path}: cannot decode JSON: {exc}") from exc
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


def _numbers(values) -> bool:
    """Whether ``values`` is a list of JSON numbers: ``type(True)`` is ``bool``, so booleans fail."""
    return isinstance(values, list) and set(map(type, values)) <= {int, float}


def _matrix_from_obj(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = {"rows", "cols", "data"} - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing field(s) {sorted(missing)}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if {type(rows), type(cols)} != {int} or rows < 1 or cols < 1:
        raise ParseError(f"{where}: rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else f"type {type(data).__name__}"
        raise ParseError(
            f"{where}: data must hold exactly rows*cols = {rows * cols} entries, got {got}"
        )
    # one flat pass checks and converts the pairs; the loop only names the first bad one
    pairs = set(map(type, data)) == {list} and set(map(len, data)) == {2}
    flat = list(itertools.chain.from_iterable(data)) if pairs else []
    if not (pairs and _numbers(flat)):
        for i, pair in enumerate(data):
            if not (_numbers(pair) and len(pair) == 2):
                raise ParseError(f"{where}: data[{i}] must be a [re, im] pair of numbers")
    flat = _as_floats(flat)
    A = flat.view(complex).reshape(rows, cols)  # not re + 1j*im, which turns -0.0 into 0.0
    if not np.all(np.isfinite(flat)):
        bad = int(np.flatnonzero(~np.isfinite(flat))[0]) // 2
        raise ValueError(f"{where}: non-finite entry at data[{bad}]")
    return A


def load_matrix(path) -> np.ndarray:
    """A matrix file as a ``complex128`` array, bit for bit as written.

    Raises ``ParseError``, naming the line or element, on malformed JSON or a
    schema violation (a wrong data length included), and ``ValueError`` on a
    non-finite entry.
    """
    return _matrix_from_obj(_load_json(path), str(path))


# The writer's digits are float.__repr__'s, computed exactly with numpy for |x| in
# (1e-6, 1e17); README ("How the writer spells floats") gives the derivation.

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
    """``repr``'s text rows per decimal point and digit count, their digit masks, ASCII 0000..9999."""
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
    """``(c, k, j, ties)``: ``repr``'s digits of ``ax``, ``c / 10**k`` less ``j`` zeros."""
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
    """Write ``A`` as a matrix file: byte for byte what ``json.dumps`` makes of it.

    Raises ``OSError`` if ``path`` cannot be written, and a ``MemoryError`` that
    names ``path`` if memory runs out.
    """
    try:
        A = np.atleast_2d(np.asarray(A, dtype=complex))
        values = np.ascontiguousarray(A).view(float).ravel()
        with open(path, "wb") as fh:
            fh.write(f'{{"rows": {A.shape[0]}, "cols": {A.shape[1]}, "data": ['.encode())
            for start in range(0, values.size, _CHUNK):
                stop = start + _CHUNK
                fh.write(_encode_pairs(values[start:stop], last=stop >= values.size))
            fh.write(b"]}\n")
    except MemoryError as exc:
        raise MemoryError(f"writing {path}") from exc


def load_family(path) -> OperatorFamily:
    """A family file as an :class:`~charmat.family.OperatorFamily`.

    Raises ``ParseError`` on malformed JSON or a schema violation, and
    ``ValueError`` on invalid values: a grid that does not increase, weights
    that are not positive, mixed fiber dimensions, non-finite entries or an
    unknown generator kind.
    """
    obj = _load_json(path)
    where = str(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object at top level")
    if "grid" not in obj or "fibers" not in obj:
        raise ParseError(f"{where}: missing field(s) {sorted({'grid', 'fibers'} - obj.keys())}")
    nodes = obj["grid"]
    if not _numbers(nodes):
        raise ParseError(f"{where}: grid must be a list of numbers")
    weights = obj.get("weights")
    if weights is not None and not _numbers(weights):
        raise ParseError(f"{where}: weights must be a list of numbers")
    grid = ParameterGrid(_as_floats(nodes), None if weights is None else _as_floats(weights))

    fibers_obj = obj["fibers"]
    if isinstance(fibers_obj, dict):
        missing = {"kind", "n"} - fibers_obj.keys()
        if missing:
            raise ParseError(f"{where}: generator missing field(s) {sorted(missing)}")
        kind, n = fibers_obj["kind"], fibers_obj["n"]
        if type(n) is not int:
            raise ParseError(f"{where}: generator n must be an integer")
        if kind not in GENERATOR_KINDS:
            raise ValueError(f"{where}: unknown generator kind {kind!r}; "
                             f"expected one of {GENERATOR_KINDS}")
        g = GridDiscretization(n, kind.split("-")[0])
        fiber = derivative_operator(g) if kind.endswith("derivative") else laplacian(g)
        fibers = np.broadcast_to(fiber, (grid.m, n, n))  # OperatorFamily stacks it once
    elif isinstance(fibers_obj, list):
        if len(fibers_obj) != grid.m:
            raise ParseError(f"{where}: {len(fibers_obj)} fibers for {grid.m} grid nodes")
        mats = [_matrix_from_obj(o, f"{where}: fibers[{k}]") for k, o in enumerate(fibers_obj)]
        shapes = {m.shape for m in mats}
        if len(shapes) > 1:
            raise ValueError(f"{where}: mixed fiber dimensions {sorted(shapes)}")
        fibers = mats
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


@dataclass(kw_only=True)
class Report(Checks):
    """One command's :class:`~charmat.hilbert.Checks`, with its inputs' digest, seed and wall time.

    It writes ``bounds`` as ``tolerances`` and ``all_pass`` as ``pass``, and no ``verdicts``.
    """

    command: str
    inputs: str
    seed: int | None = None
    wall_time_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "residuals": dict(self.residuals),
            "tolerances": dict(self.bounds),
            "notes": dict(self.notes),
            "pass": self.all_pass,
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
                w.writerow(["pass", "", str(self.all_pass).lower()])
                w.writerow(["wall_time_ms", "", repr(self.wall_time_ms)])
                for label in sorted(self.residuals):
                    w.writerow(["residual", label, repr(self.residuals[label])])
                    w.writerow(["tolerance", label, repr(self.bounds[label])])
                for label in sorted(self.notes):
                    w.writerow(["note", label, self.notes[label]])
        else:
            raise ValueError(f"unknown report format {fmt!r}")
