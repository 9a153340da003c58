import gc
import json
import logging
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import charmat.io
from charmat import cli
from charmat.cli import main
from charmat.family import SUITE_SEED
from charmat.graph import CharacteristicMatrix, char_matrix
from charmat.io import (
    GENERATOR_KINDS,
    ParseError,
    Report,
    file_digest,
    load_family,
    load_matrix,
    save_matrices,
    save_matrix,
)

HERMITIAN = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])

#: A JSON integer beyond the float range; it must read like Infinity.
HUGE_INT = "1" + "0" * 400


def run_cli(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "charmat", *map(str, argv)],
        capture_output=True,
        text=True,
        env=full_env,
    )


# ------------------------------------------------------------- matrix files


def test_matrix_round_trip_is_bit_identical(tmp_path):
    awkward = np.empty((3, 2), dtype=complex)
    # set the parts directly: re + 1j*im would turn each -0.0 into 0.0
    awkward.real = [
        [0.1 + 0.2, np.pi],
        [1e16 + 1.0, 5e-324],
        [-0.0, 1.0 / 3.0],
    ]
    awkward.imag = [
        [np.e, -1e-300],
        [0.1, 2.0 / 3.0],
        [123456789.123456789, -0.0],
    ]
    path = tmp_path / "m.json"
    save_matrix(path, awkward)
    back = load_matrix(path)
    assert back.shape == awkward.shape
    assert back.tobytes() == awkward.tobytes()  # every bit, including -0.0
    # and a second hop changes nothing at all
    save_matrix(tmp_path / "m2.json", back)
    assert file_digest(tmp_path / "m2.json") == file_digest(path)


# Finite floats, with the awkward ones drawn often: signed zero, the smallest
# subnormal, a value past 2**53 and integer-valued floats.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16 + 1.0, 2.0**53, 1e300]),
    st.integers(-(10**6), 10**6).map(float),
)


def _documented_text(A) -> str:
    """The matrix-file text for ``A``, composed from ``repr`` of each float."""
    pairs = ", ".join(f"[{float(z.real)!r}, {float(z.imag)!r}]" for z in A.flat)
    return f'{{"rows": {A.shape[0]}, "cols": {A.shape[1]}, "data": [{pairs}]}}\n'


@st.composite
def matrices(draw):
    """Complex matrices of shape 1..8 x 1..8 in C, Fortran, transposed or strided layout."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    layout = draw(st.sampled_from(["C", "F", "T", "strided", "real"]))
    big = {"T": (c, r), "strided": (2 * c, 2 * r)}.get(layout, (r, c))
    re = draw(hnp.arrays(float, big, elements=FINITE))
    A = np.empty(big, dtype=complex)
    A.real, A.imag = re, draw(hnp.arrays(float, big, elements=FINITE))
    A = {
        "C": A,
        "F": np.asfortranarray(A),
        "T": A.T,
        "strided": A.T[::2, 1::2],
        "real": re,
    }[layout]
    assert A.shape == (r, c)
    return A


def _assembled_block_slices():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    P = char_matrix(T).assemble()
    blocks = [P[:5, 5:], P[5:, :5], P[1::2, ::3], P.T]
    assert not any(B.flags.c_contiguous for B in blocks)
    return blocks


HYPOTHESIS_TMP = settings(max_examples=150, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


@HYPOTHESIS_TMP
@given(A=matrices())
def test_saved_matrix_text_is_the_documented_bytes(tmp_path, A):
    for M in [A, *_assembled_block_slices()]:
        save_matrix(tmp_path / "m.json", M)
        assert (tmp_path / "m.json").read_text(encoding="utf-8") == _documented_text(M)


@HYPOTHESIS_TMP
@given(A=matrices())
def test_matrix_file_round_trips_bit_for_bit(tmp_path, A):
    for M in [A, *_assembled_block_slices()]:
        save_matrix(tmp_path / "m.json", M)
        back = load_matrix(tmp_path / "m.json")
        assert back.shape == M.shape
        assert back.tobytes() == np.ascontiguousarray(M, dtype=complex).tobytes()
        save_matrix(tmp_path / "again.json", back)
        assert file_digest(tmp_path / "again.json") == file_digest(tmp_path / "m.json")


def _stress_values() -> np.ndarray:
    """About a million floats aimed at the edges of the writer's float encoder, shuffled."""
    rng = np.random.default_rng(22)

    def signs(n):
        return rng.choice([-1.0, 1.0], n)

    mantissas = (rng.integers(0, 2**52, 1 << 19) | 1023 << 52).view(float)  # in [1, 2)
    digits, tens = rng.integers(-99999, 100000, 1 << 17), rng.integers(-22, 23, 1 << 17)
    short = np.where(tens >= 0, digits * 10.0 ** np.abs(tens), digits / 10.0 ** np.abs(tens))
    powers = np.concatenate([2.0 ** np.arange(-40, 70), [float(f"1e{e}") for e in range(-12, 24)]])
    ints = 2.0**53 + np.arange(-4096, 4096)
    bounds = np.array([1e-6, 1e-5, 1e-4, 1e16, 1e17])
    parts = [
        # binary exponents covering [1e-7, 1e18]
        np.ldexp(mantissas, rng.integers(-24, 60, mantissas.size)) * signs(mantissas.size),
        short,  # up to 5 digits, correctly rounded from d * 10**e
        np.nextafter(short, signs(short.size) * np.inf),
        rng.integers(-10**6, 10**6, 1 << 17) / 1000.0,  # 3 decimals
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.concatenate([ints, -ints]),
        np.ldexp(rng.integers(2**52, 2**53, 1 << 15).astype(float), rng.integers(1, 5, 1 << 15)),
        (rng.integers(2**52, 2**53, 1 << 14) | 1) / 4.0,  # times 10, ends in .5: ties
        (bounds[:, None] + np.arange(-16, 17) * np.spacing(bounds)[:, None]).ravel(),
        np.repeat([0.0, -0.0], 1 << 12),
        # repr's alone: subnormals, below 1e-6, from 1e17 on
        rng.integers(1, 2**52, 1 << 12).view(float) * signs(1 << 12),
        np.ldexp(mantissas[:1 << 13], rng.integers(-1074, 1024, 1 << 13)),
        [5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308],
    ]
    return rng.permutation(np.concatenate(parts))


def _first_difference(got: str, want: str) -> str:
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"first difference at {i}: {got[i - 40:i + 40]!r} against {want[i - 40:i + 40]!r}"


def test_saved_matrix_text_is_the_documented_bytes_over_a_million_values(tmp_path):
    values = _stress_values()
    values = values[:values.size // 2000 * 2000]
    assert values.size >= 1_000_000 and values.size > 8 * charmat.io._CHUNK
    stress = values.view(complex).reshape(-1, 1000)
    rng = np.random.default_rng(23)
    real_block = char_matrix(rng.standard_normal((200, 200))).p21  # its imaginary parts are +0.0
    assert real_block.dtype == np.float64
    real = rng.standard_normal((400, 400))
    huge = 1e200 * (rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400)))
    for A in (stress, real_block, real, huge):
        save_matrix(tmp_path / "m.json", A)
        got, want = (tmp_path / "m.json").read_text(encoding="utf-8"), _documented_text(A)
        if got != want:  # pytest's own diff of two 20 MB strings takes minutes
            pytest.fail(_first_difference(got, want))


def test_saved_non_finite_entries_are_spelled_as_json_dumps_does(tmp_path):
    A = np.empty((2, 3), dtype=complex)
    A.real = [[np.nan, np.inf, -np.inf], [1.0, -0.0, 1e300]]
    A.imag = [[-np.inf, -np.nan, 0.5], [np.nan, np.inf, 1e-7]]
    save_matrix(tmp_path / "m.json", A)
    obj = {"rows": 2, "cols": 3, "data": A.view(float).reshape(-1, 2).tolist()}
    assert (tmp_path / "m.json").read_text(encoding="utf-8") == json.dumps(obj) + "\n"


_WRITER_RSS_CHILD = """
import sys
import numpy as np
from charmat.io import save_matrix

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

n = 400
rng = np.random.default_rng(6)
A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
save_matrix(sys.argv[1], A[:8, :8])  # the writer's code and tables are paged in here
rss = status("VmRSS")
save_matrix(sys.argv[1], A)
print((status("VmHWM") - rss) / 2**20)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_writer_rss_high_water_is_bounded(tmp_path):
    # json.dumps held every pair as a list of two Python floats and then the
    # whole text: 38.6 MB above the RSS before the call, for a 2.6 MB matrix
    proc = subprocess.run([sys.executable, "-c", _WRITER_RSS_CHILD, str(tmp_path / "m.json")],
                          capture_output=True, text=True, check=True)
    assert float(proc.stdout) <= 12.0


def test_load_matrix_parse_errors(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("{not json")
    with pytest.raises(ParseError, match="line 1"):
        load_matrix(path)

    path.write_text(json.dumps({"rows": 2, "data": [[0, 0]] * 4}))
    with pytest.raises(ParseError, match="cols"):
        load_matrix(path)

    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[0, 0]] * 3}))
    with pytest.raises(ParseError, match="rows\\*cols"):
        load_matrix(path)

    path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[0, 0, 0]]}))
    with pytest.raises(ParseError, match="data\\[0\\]"):
        load_matrix(path)

    path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[True, 0]]}))
    with pytest.raises(ParseError, match="data\\[0\\]"):
        load_matrix(path)

    path.write_text(json.dumps({"rows": 0, "cols": 1, "data": []}))
    with pytest.raises(ParseError, match="positive"):
        load_matrix(path)

    # JSON booleans are not dimensions, although bool subclasses int
    for dims in ({"rows": True, "cols": 1}, {"rows": 1, "cols": True}):
        path.write_text(json.dumps({**dims, "data": [[1, 0]]}))
        with pytest.raises(ParseError, match="positive"):
            load_matrix(path)

    with pytest.raises(ParseError, match="cannot read"):
        load_matrix(tmp_path / "missing.json")


BAD_PAIRS = [None, "1", False, [0, [0]], [0, 0, 0], [False, 0], [0, None], [1.5]]


@pytest.mark.parametrize("bad", BAD_PAIRS)
def test_load_matrix_names_the_first_bad_pair(tmp_path, bad):
    path = tmp_path / "bad.json"
    data = [[1, 0], [0.5, -2.0], bad, [3, 4], [True, 0]]
    path.write_text(json.dumps({"rows": 1, "cols": 5, "data": data}))
    with pytest.raises(ParseError) as exc:
        load_matrix(path)
    assert str(exc.value) == f"{path}: data[2] must be a [re, im] pair of numbers"


@pytest.mark.parametrize("bad", BAD_PAIRS)
def test_load_family_names_the_fiber_and_pair(tmp_path, bad):
    path = tmp_path / "fam.json"
    good = {"rows": 2, "cols": 2, "data": [[1, 0], [0, 1], [0, -1], [2, 0]]}
    broken = {**good, "data": good["data"][:3] + [bad]}
    path.write_text(json.dumps({"grid": [0.0, 0.5, 1.0], "fibers": [good, broken, good]}))
    with pytest.raises(ParseError) as exc:
        load_family(path)
    assert str(exc.value) == f"{path}: fibers[1]: data[3] must be a [re, im] pair of numbers"


def test_load_matrix_rejects_nonfinite(tmp_path):
    path = tmp_path / "inf.json"
    for entry in ("[Infinity, 0.0]", f"[{HUGE_INT}, 0]", f"[0, -{HUGE_INT}]"):
        path.write_text('{"rows": 1, "cols": 3, "data": [[1.0, 0.0], %s, [Infinity, 0]]}' % entry)
        with pytest.raises(ValueError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}: non-finite entry at data[1]"  # first bad pair


@pytest.mark.parametrize("collecting", [True, False])
def test_load_matrix_gives_the_garbage_collector_back_as_it_was(tmp_path, collecting):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_matrix(good, HERMITIAN)
    bad.write_text('{"rows": 1, "cols": 1, "data": [[1.0, 0.0]')
    (gc.enable if collecting else gc.disable)()
    try:
        assert load_matrix(good).tobytes() == HERMITIAN.tobytes()
        assert gc.isenabled() is collecting
        for path in (bad, tmp_path / "missing.json"):
            with pytest.raises(ParseError):
                load_matrix(path)
            assert gc.isenabled() is collecting
    finally:
        gc.enable()


# ------------------------------------------------------------- family files


def test_load_family_inline_fibers(tmp_path):
    path = tmp_path / "fam.json"
    fiber = {"rows": 2, "cols": 2, "data": [[1, 0], [0, 1], [0, -1], [2, 0]]}
    path.write_text(json.dumps({"grid": [0.0, 0.5, 1.0], "fibers": [fiber] * 3}))
    fam = load_family(path)
    assert fam.m == 3 and fam.n == 2
    assert_allclose(fam.grid.weights, [0.25, 0.5, 0.25])  # trapezoid default
    assert_allclose(fam.fibers[1], np.array([[1.0, 1j], [-1j, 2.0]]))


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_load_family_explicit_weights_and_generator(tmp_path, kind):
    path = tmp_path / "fam.json"
    path.write_text(
        json.dumps(
            {
                "grid": [0.0, 1.0],
                "weights": [0.5, 0.5],
                "fibers": {"kind": kind, "n": 8},
            }
        )
    )
    fam = load_family(path)
    assert fam.m == 2 and fam.n == 8
    assert_allclose(fam.grid.weights, [0.5, 0.5])
    from charmat.boundary import GridDiscretization, derivative_operator, laplacian

    bc, order = kind.split("-")
    operator = {"derivative": derivative_operator, "laplacian": laplacian}[order]
    expected = operator(GridDiscretization(8, bc))
    assert np.array_equal(fam.fibers[0], expected)
    assert np.array_equal(fam.fibers[1], expected)


def test_load_family_error_catalogue(tmp_path):
    path = tmp_path / "fam.json"

    path.write_text(json.dumps({"grid": [0.0, 1.0]}))
    with pytest.raises(ParseError, match="fibers"):
        load_family(path)

    fiber = {"rows": 1, "cols": 1, "data": [[1, 0]]}
    path.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": [fiber]}))
    with pytest.raises(ParseError, match="1 fibers for 2"):
        load_family(path)

    big = {"rows": 2, "cols": 2, "data": [[1, 0]] * 4}
    path.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": [fiber, big]}))
    with pytest.raises(ValueError, match="mixed fiber dimensions"):
        load_family(path)

    path.write_text(json.dumps({"grid": [1.0, 0.0], "fibers": [fiber, fiber]}))
    with pytest.raises(ValueError, match="increasing"):
        load_family(path)

    path.write_text(json.dumps({"grid": [0.0], "fibers": {"kind": "hilbert", "n": 4}}))
    with pytest.raises(ValueError, match="unknown generator kind"):
        load_family(path)

    path.write_text(json.dumps({"grid": [0.0], "fibers": {"kind": "dirichlet-laplacian"}}))
    with pytest.raises(ParseError, match="generator missing"):
        load_family(path)

    path.write_text(json.dumps({"grid": [0.0], "fibers": 7}))
    with pytest.raises(ParseError, match="fibers must be"):
        load_family(path)

    # integers beyond the float range are non-finite values, like Infinity
    huge = '{"rows": 1, "cols": 1, "data": [[%s, 0]]}' % HUGE_INT
    path.write_text('{"grid": [0.0, 1.0], "fibers": [%s, %s]}' % (json.dumps(fiber), huge))
    with pytest.raises(ValueError, match=r"fibers\[1\]: non-finite entry at data\[0\]"):
        load_family(path)
    generator = '"fibers": {"kind": "dirichlet-laplacian", "n": 4}'
    path.write_text('{"grid": [0.0, %s], %s}' % (HUGE_INT, generator))
    with pytest.raises(ValueError, match="nodes must be finite"):
        load_family(path)
    path.write_text('{"grid": [0.0, 1.0], "weights": [1, -%s], %s}' % (HUGE_INT, generator))
    with pytest.raises(ValueError, match="weights must be finite"):
        load_family(path)


# ----------------------------------------------------------------- reports


def test_report_pass_rule_and_formats(tmp_path):
    r = Report(command="demo", inputs="abc")
    r.add("x", 1e-12, 1e-10)
    assert r.passed
    r.add("y", 2e-10, 1e-10)
    assert not r.passed
    r.notes["y"] = "expected failure"

    blob = json.loads(r.to_json())
    assert blob["pass"] is False
    assert blob["residuals"]["x"] == 1e-12
    assert blob["notes"]["y"] == "expected failure"

    csv_path = tmp_path / "report.csv"
    r.save(csv_path, "csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "field,label,value"
    assert any(line.startswith("residual,y,2e-10") for line in lines)
    with pytest.raises(ValueError, match="format"):
        r.save(csv_path, "xml")


def test_file_digest_matches_hashlib(tmp_path):
    import hashlib

    path = tmp_path / "blob.bin"
    path.write_bytes(b"charmat")
    assert file_digest(path) == hashlib.sha256(b"charmat").hexdigest()


# ------------------------------------------------------------ CLI contract


def test_cli_charmat_happy_path(tmp_path):
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    out = tmp_path / "out"
    proc = run_cli("charmat", mat, "--oracle", "--out", out)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["pass"] is True
    assert blob["command"] == "charmat"
    assert set(blob["residuals"]) >= {"A6", "A7", "A8", "A9", "A11", "A12", "A13", "oracle"}

    # the emitted blocks round-trip bit for bit against a fresh computation
    P = char_matrix(HERMITIAN)
    for name in ("p11", "p12", "p21", "p22"):
        emitted = load_matrix(out / f"{name}.json")
        assert emitted.tobytes() == getattr(P, name).tobytes()
    report_blob = json.loads((out / "report.json").read_text())
    assert report_blob == blob


def test_cli_oracle_label_sees_an_error_in_p12(tmp_path, monkeypatch):
    # the oracle's p12 is its p21*: an error in char_matrix's p12 alone must still reach the label
    def scaled_p12(T):
        P = char_matrix(T)
        return CharacteristicMatrix(P.p11, P.p12 * (1 + 1e-8), P.p21, P.p22)

    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    out = tmp_path / "o"
    assert main(["charmat", str(mat), "--oracle", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["residuals"]["oracle"] <= 1e-14
    monkeypatch.setattr(cli, "char_matrix", scaled_p12)
    assert main(["charmat", str(mat), "--oracle", "--out", str(out)]) == 1
    assert json.loads((out / "report.json").read_text())["residuals"]["oracle"] > 1e-10


def test_cli_exit_1_on_residual_failure(tmp_path):
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    proc = run_cli("charmat", mat, "--tol", "0", "--out", tmp_path / "o")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["pass"] is False


def test_cli_verify_tol_cannot_pass_a_classification_mismatch(tmp_path, capsys):
    # 1e3 I is Hermitian and [[0, 1e-9], [0, 0]] is not, but the assembled
    # matrix is Hermitian relative to its own norm: the verdicts disagree
    path = tmp_path / "fam.json"
    big = {"rows": 2, "cols": 2, "data": [[1e3, 0], [0, 0], [0, 0], [1e3, 0]]}
    skew = {"rows": 2, "cols": 2, "data": [[0, 0], [1e-9, 0], [0, 0], [0, 0]]}
    path.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": [big, skew]}))
    for extra in ([], ["--tol", "1"]):
        assert main(["verify", str(path), "--out", str(tmp_path / "o"), *extra]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["pass"] is False
        for item in ("suite_selfadjoint", "suite_positive"):
            assert blob["residuals"][item] == 1.0
            assert blob["tolerances"][item] == 0.0


def test_cli_exit_2_on_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    proc = run_cli("charmat", bad, "--out", tmp_path / "o")
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


def test_cli_exit_2_on_boolean_dimensions(tmp_path):
    mat = tmp_path / "T.json"
    mat.write_text(json.dumps({"rows": True, "cols": 1, "data": [[1, 0]]}))
    fam = tmp_path / "fam.json"
    fiber = {"rows": True, "cols": 1, "data": [[1, 0]]}
    fam.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": [fiber, fiber]}))
    for argv in (("charmat", mat), ("verify", fam)):
        proc = run_cli(*argv, "--out", tmp_path / "o")
        assert proc.returncode == 2, proc.stderr
        assert "rows and cols must be positive integers" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_exit_3_on_invariant_violations(tmp_path):
    mat = tmp_path / "T.json"
    save_matrix(mat, np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    proc = run_cli("selfadjoint", mat, "resolvent", "--z", "2j", "--out", tmp_path / "o")
    assert proc.returncode == 3
    assert "invariant violation" in proc.stderr

    save_matrix(mat, HERMITIAN)
    proc = run_cli("selfadjoint", mat, "resolvent", "--out", tmp_path / "o")
    assert proc.returncode == 3
    assert "requires --z" in proc.stderr

    # argparse-level misuse lands on the same code
    proc = run_cli("charmat", mat, "--no-such-flag")
    assert proc.returncode == 3
    proc = run_cli()
    assert proc.returncode == 3

    # an output "directory" that is actually a file is caught, not a traceback
    proc = run_cli("charmat", mat, "--out", mat)
    assert proc.returncode == 3
    assert "cannot create output directory" in proc.stderr
    assert "Traceback" not in proc.stderr

    # integers beyond the float range are non-finite entries, not tracebacks
    mat.write_text('{"rows": 1, "cols": 1, "data": [[%s, 0]]}' % HUGE_INT)
    fam = tmp_path / "fam.json"
    fam.write_text('{"grid": [0.0, %s], "fibers": {"kind": "dirichlet-laplacian", "n": 4}}'
                   % HUGE_INT)
    for argv, message in ((("charmat", mat), "non-finite entry at data[0]"),
                          (("verify", fam), "nodes must be finite")):
        proc = run_cli(*argv, "--out", tmp_path / "o")
        assert proc.returncode == 3, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["tol", "z", "lam", "s", "smax", "epsilon", "delta"])
def test_cli_exit_3_on_non_finite_flags(tmp_path, capsys, flag, value):
    mat = tmp_path / "H.json"
    save_matrix(mat, HERMITIAN)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["selfadjoint", str(mat), "stone", f"--{flag}={value}", "--out", str(out)])
    assert exc.value.code == 3
    assert f"argument --{flag}: must be finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["charmat", "verify"])
def test_cli_exit_3_on_a_negative_tol(tmp_path, capsys, command):
    # no residual is negative, so a negative tolerance is a flag violation
    mat = tmp_path / "H.json"
    save_matrix(mat, HERMITIAN)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": {"kind": "dirichlet-laplacian", "n": 4}}))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, str(mat if command == "charmat" else fam), "--tol=-1", "--out", str(out)])
    assert exc.value.code == 3
    assert "argument --tol: must be non-negative" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["charmat", "verify", "stone"])
def test_cli_exit_3_on_a_negative_seed(tmp_path, capsys, command):
    # one rule for --seed, whether or not the command draws from it
    mat = tmp_path / "H.json"
    save_matrix(mat, HERMITIAN)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": {"kind": "dirichlet-laplacian", "n": 4}}))
    argv = {"charmat": ["charmat", str(mat)], "verify": ["verify", str(fam)],
            "stone": ["selfadjoint", str(mat), "stone", "--lam", "0.5"]}[command]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 3
    assert "argument --seed: must be non-negative" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_exit_4_on_numerical_failure(tmp_path):
    mat = tmp_path / "T.json"
    save_matrix(mat, np.diag([1.0, 3.0]))
    proc = run_cli("selfadjoint", mat, "resolvent", "--z", "3+0j", "--out", tmp_path / "o")
    assert proc.returncode == 4
    assert "numerical failure" in proc.stderr


@pytest.mark.parametrize("command, kernel", [
    ("charmat", "char_matrix"),
    ("verify", "decomposition_suite"),
    ("selfadjoint", "stone_formula_check"),
])
def test_cli_exit_4_when_out_of_memory(tmp_path, monkeypatch, capsys, command, kernel):
    # an allocation numpy cannot make is a numerical failure, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(cli, kernel, exhausted)
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": {"kind": "dirichlet-laplacian", "n": 4}}))
    argv = {"charmat": [str(mat)], "verify": [str(fam)],
            "selfadjoint": [str(mat), "stone", "--lam", "2"]}[command]
    assert main([command, *argv, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "numerical failure: out of memory: Unable to allocate 8.00 EiB" in err
    assert not (tmp_path / "o" / "report.json").exists()


def test_cli_stone_exit_3_when_nodes_are_farther_apart_than_epsilon(tmp_path, capsys):
    # spectrum -5.6 ... 6.8: at --lam 0.5 the window [w_min - 1, lam + delta] is 7.11
    # wide, so 40000 steps space the nodes 1.8e-4 apart, wider than the Poisson
    # kernels' 1e-4 (the quadrature then misses STONE_TOL on this correct matrix)
    rng = np.random.default_rng(12)
    V, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    mat = tmp_path / "H12.json"
    save_matrix(mat, (V * np.linspace(-5.6, 6.8, 12)) @ V.conj().T)
    argv = ["selfadjoint", str(mat), "stone", "--lam", "0.5", "--seed", "3", "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    found = re.search(r"invariant violation: quadrature node spacing (\S+) exceeds --epsilon 0.0001; "
                      r"use --steps (\d+) or more", err)
    assert float(found.group(1)) == pytest.approx(1.78e-4, rel=1e-2)
    fewest = int(found.group(2))
    assert main([*argv, "--steps", str(fewest - 1)]) == 3
    assert main([*argv, "--steps", str(fewest)]) != 3
    assert main([*argv, "--epsilon", "1e-3", "--steps", "200000"]) == 0


@pytest.mark.parametrize("steps", [HUGE_INT, "0", "-3"], ids=["1e400", "0", "-3"])
def test_cli_exit_3_on_steps_outside_the_float_range(tmp_path, capsys, steps):
    # the quadratures turn --steps into floats; 10^400 overflowed there with a traceback
    mat = tmp_path / "H.json"
    save_matrix(mat, HERMITIAN)
    out = tmp_path / "o"
    for sub in (["stone", "--lam", "0.5"], ["fourier", "--z", "2j"]):
        with pytest.raises(SystemExit) as exc:
            main(["selfadjoint", str(mat), *sub, "--steps", steps, "--out", str(out)])
        assert exc.value.code == 3
        assert "argument --steps: must lie in [1, 1.79769e+308]" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("failure", ["info", "LapackError"])
def test_cli_exit_4_when_the_oracle_qr_fails(tmp_path, monkeypatch, capsys, failure):
    from numpy.linalg import lapack_lite

    def failing(*args):
        if failure == "info":
            return {"info": 1}
        raise lapack_lite.LapackError("Parameter a is not contiguous in lapack_lite.zgeqrf")

    mat = tmp_path / "T.json"
    save_matrix(mat, np.array([[1.0, 2.0j], [0.5, 3.0]]))
    monkeypatch.setattr(lapack_lite, "zgeqrf", failing)
    assert main(["charmat", str(mat), "--oracle", "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "numerical failure: LAPACK zgeqrf failed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("diagonal", [[-2.0, 0.5, 3.0, 0.0], [1j, -2.0 + 1j, 0.0, -1.0]],
                         ids=["real", "complex"])
def test_cli_block_files_of_a_diagonal_operator_hold_no_negative_zero(tmp_path, capsys, diagonal):
    mat = tmp_path / "D.json"
    save_matrix(mat, np.diag(diagonal))
    out = tmp_path / "o"
    assert main(["charmat", str(mat), "--oracle", "--out", str(out)]) == 0
    for b in ("p11", "p12", "p21", "p22"):
        values = np.array(json.loads((out / f"{b}.json").read_text())["data"])
        zeros = values[values == 0]
        assert zeros.size and not np.signbit(zeros).any(), b


def test_cli_exit_4_when_a_gram_matrix_overflows(tmp_path):
    # finite entries whose squares overflow: a numerical failure naming the
    # Gram matrix, with no numpy RuntimeWarning and no traceback
    mat = tmp_path / "T.json"
    save_matrix(mat, np.array([[1e200, 1.0], [2.0, 3e200]]))
    small = tmp_path / "S.json"
    save_matrix(small, np.array([[1.0, 0.5], [0.0, 2.0]]))
    fam = tmp_path / "fam.json"
    fibers = [json.loads(small.read_text()), json.loads(mat.read_text())]
    fam.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": fibers}))
    for argv in (("charmat", mat), ("verify", fam)):
        proc = run_cli(*argv, "--out", tmp_path / "o")
        assert proc.returncode == 4, proc.stderr
        assert "numerical failure: Gram matrix T*T + I is not finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_exit_4_when_a_gram_matrix_fails_cholesky(tmp_path):
    # rank-one T = 1e8 u v^T: its Gram matrix is finite but not positive
    # definite to working precision
    rng = np.random.default_rng(0)
    mat = tmp_path / "T.json"
    save_matrix(mat, 1e8 * np.outer(rng.standard_normal(8), rng.standard_normal(8)))
    proc = run_cli("charmat", mat, "--out", tmp_path / "o")
    assert proc.returncode == 4, proc.stderr
    assert "numerical failure:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_commands_import_no_scipy(tmp_path):
    # every command runs on numpy alone: after one run of each in a fresh
    # interpreter, no scipy module has been imported
    mat = tmp_path / "H.json"
    save_matrix(mat, HERMITIAN)
    explicit = tmp_path / "fam.json"
    fiber = json.loads(mat.read_text())
    explicit.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": [fiber, fiber]}))
    generated = tmp_path / "gen.json"
    generator = {"kind": "dirichlet-laplacian", "n": 6}
    generated.write_text(json.dumps({"grid": [0.0, 1.0], "fibers": generator}))
    runs = [
        ["charmat", str(mat), "--oracle"],
        ["verify", str(explicit)],
        ["verify", str(generated)],
        ["example-dirichlet", "--n", "200", "--k", "3"],
        ["selfadjoint", str(mat), "projection", "--lam", "2.5"],
    ]
    script = (
        "import sys, charmat\n"
        "from charmat.cli import main\n"
        f"codes = [main(argv + ['--out', {str(tmp_path / 'o')!r}]) for argv in {runs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(runs)} []"


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_cli_verify_real_generator_matches_complex_cast(tmp_path, capsys, kind):
    # the Laplacian generators stay real (the derivatives (1/i) d/dx are
    # complex); the same fibers written as complex matrix files give the
    # same report keys, notes and pass flags
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"grid": [0.0, 0.5, 1.0], "fibers": {"kind": kind, "n": 12}}))
    fam = load_family(gen)
    assert fam.fibers.dtype == (np.float64 if kind.endswith("laplacian") else np.complex128)
    save_matrix(tmp_path / "F.json", fam.fibers[0])
    fiber = json.loads((tmp_path / "F.json").read_text())
    cast = tmp_path / "cast.json"
    cast.write_text(json.dumps({"grid": [0.0, 0.5, 1.0], "fibers": [fiber] * 3}))
    assert load_family(cast).fibers.dtype == np.complex128

    blobs = []
    for path in (gen, cast):
        assert main(["verify", str(path), "--out", str(tmp_path / "o")]) == 0
        blobs.append(json.loads(capsys.readouterr().out))
    real, cplx = blobs
    assert real["residuals"].keys() == cplx["residuals"].keys()
    assert real["tolerances"] == cplx["tolerances"]
    assert real["notes"] == cplx["notes"]
    assert real["pass"] is cplx["pass"] is True
    for label, tol in real["tolerances"].items():
        assert real["residuals"][label] <= tol and cplx["residuals"][label] <= tol
        assert abs(real["residuals"][label] - cplx["residuals"][label]) <= tol


def test_cli_seed_makes_reports_identical(tmp_path):
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    blobs = []
    for sub in ("a", "b"):
        proc = run_cli(
            "selfadjoint", mat, "fourier", "--z", "1j", "--seed", "7",
            "--smax", "12", "--steps", "8000", "--out", tmp_path / sub,
        )
        assert proc.returncode == 0, proc.stderr
        blob = json.loads(proc.stdout)
        blob.pop("wall_time_ms")
        blobs.append(blob)
    assert blobs[0] == blobs[1]
    assert blobs[0]["seed"] == 7


def test_cli_verify_seed_makes_reports_byte_identical(tmp_path):
    # the suite's probes come from --seed, and from a fixed seed when it is unset
    rng = np.random.default_rng(89)
    fibers = []
    for k in range(4):
        save_matrix(tmp_path / f"F{k}.json", rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        fibers.append(json.loads((tmp_path / f"F{k}.json").read_text()))
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"grid": [0.0, 1.0, 2.0, 3.0], "fibers": fibers}))

    def report(name, *seed):
        out = tmp_path / name
        assert main(["verify", str(fam), "--out", str(out), *seed]) == 0
        text = (out / "report.json").read_text()
        return re.sub(r'"wall_time_ms": [^,}]+', '"wall_time_ms": 0', text)

    assert report("a", "--seed", "5") == report("b", "--seed", "5")
    unset, zero, other = (json.loads(report(*args)) for args in
                          [("c",), ("d", "--seed", str(SUITE_SEED)), ("e", "--seed", "6")])
    assert unset["residuals"] == zero["residuals"]
    assert (unset["seed"], zero["seed"]) == (None, SUITE_SEED)
    assert other["residuals"]["suite_modulus"] != zero["residuals"]["suite_modulus"]


def test_cli_verify_family_and_csv_report(tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(
        json.dumps(
            {"grid": [0.0, 1.0], "fibers": {"kind": "periodic-derivative", "n": 10}}
        )
    )
    out = tmp_path / "out"
    proc = run_cli("verify", fam, "--format", "csv", "--out", out)
    assert proc.returncode == 0, proc.stderr
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "field,label,value"
    assert any(line.startswith("residual,fiberwise_p11,") for line in lines)
    assert any(line.startswith("pass,,true") for line in lines)


def test_cli_example_dirichlet_outputs(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("example-dirichlet", "--n", "800", "--k", "4", "--out", out)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["pass"] is True
    assert "witness_values" in blob["notes"]

    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "index", "dirichlet_value", "dirichlet_target", "dirichlet_rel_err",
        "periodic_value", "periodic_target", "periodic_rel_err",
    ]
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(np.pi**2)
    assert float(first[5]) == pytest.approx(4 * np.pi**2)

    proc = run_cli("example-dirichlet", "--n", "50", "--k", "2", "--out", out)
    assert proc.returncode == 3  # resolution gate


@pytest.mark.parametrize("n", [100, 200])
def test_cli_example_dirichlet_passes_at_coarse_grids(tmp_path, n):
    # the mismatch is measured against the trapezoid norm, so its O(h)
    # normalization error no longer fails the smallest accepted grids
    proc = run_cli("example-dirichlet", "--n", n, "--k", "5", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["residuals"]["mismatch_dev"] <= 2.0 / (n + 1) ** 2


def test_cli_log_level_controls_stderr(tmp_path):
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    quiet = run_cli("charmat", mat, "--out", tmp_path / "q", env={"CHARMAT_LOG": "error"})
    chatty = run_cli("charmat", mat, "--out", tmp_path / "c", env={"CHARMAT_LOG": "info"})
    assert quiet.returncode == 0 and chatty.returncode == 0
    assert "wrote" not in quiet.stderr
    assert "wrote p11.json" in chatty.stderr
    bogus = run_cli("charmat", mat, "--out", tmp_path / "b", env={"CHARMAT_LOG": "loud"})
    assert bogus.returncode == 0
    assert "unknown CHARMAT_LOG" in bogus.stderr


def test_cli_projection_rank_note_is_the_integer_rank(tmp_path, capsys):
    # the note counts the eigenvalues <= lam; the trace of the projection
    # it comes from carries rounding (e.g. 2.9999999999999996 for rank 3)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = (X + X.conj().T) / 2.0
    mat = tmp_path / "H.json"
    save_matrix(mat, H)
    w = np.linalg.eigvalsh(H)
    # one height below the spectrum, one between each pair, one above it
    heights = [w[0] - 1.0, *((w[:-1] + w[1:]) / 2.0), w[-1] + 1.0]
    for lam in heights:
        argv = ["selfadjoint", str(mat), "projection", "--lam", repr(float(lam))]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["notes"]["rank"] == str(int(np.sum(w <= lam)))


# ------------------------------------------------------------ forked writers


def _awkward_matrix() -> np.ndarray:
    A = np.empty((2, 2), dtype=complex)
    A.real = [[1e16, -0.0], [5e-324, 1.0]]
    A.imag = [[-0.0, 5e-324], [0.0, -1e16]]
    return A


def test_save_matrices_writes_the_bytes_of_save_matrix(tmp_path):
    rng = np.random.default_rng(11)
    mats = {"real": rng.standard_normal((7, 5)), "awkward": _awkward_matrix()}
    with save_matrices({tmp_path / f"{k}.json": A for k, A in mats.items()}):
        pass
    for k, A in mats.items():
        save_matrix(tmp_path / f"{k}_inline.json", A)
        assert file_digest(tmp_path / f"{k}.json") == file_digest(tmp_path / f"{k}_inline.json")


def test_charmat_forks_one_writer_for_its_four_blocks(tmp_path, monkeypatch, capsys):
    # a writer per file cost four forks and exits: 21-30 ms of a 2x2 call's wall time
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert main(["charmat", str(mat), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert forks == [os.getpid()]
    P = char_matrix(HERMITIAN)
    for name in ("p11", "p12", "p21", "p22"):
        assert load_matrix(tmp_path / "o" / f"{name}.json").tobytes() == getattr(P, name).tobytes()
    _assert_no_child_left()


def test_save_matrices_writes_in_process_when_no_fork_is_possible(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with save_matrices({tmp_path / "a.json": HERMITIAN}):
        assert load_matrix(tmp_path / "a.json").tobytes() == HERMITIAN.tobytes()


@pytest.mark.parametrize("kind", ["real", "complex", "awkward"])
def test_cli_block_files_match_in_process_save_matrix(tmp_path, capsys, kind):
    rng = np.random.default_rng(12)
    T = {"real": rng.standard_normal((6, 6)),
         "complex": rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
         "awkward": _awkward_matrix()}[kind]
    mat = tmp_path / "T.json"
    save_matrix(mat, T)
    assert main(["charmat", str(mat), "--out", str(tmp_path / "o")]) in (0, 1)
    capsys.readouterr()
    P = char_matrix(load_matrix(mat))
    for name in ("p11", "p12", "p21", "p22"):
        save_matrix(tmp_path / f"{name}_inline.json", getattr(P, name))
        assert file_digest(tmp_path / "o" / f"{name}.json") == \
            file_digest(tmp_path / f"{name}_inline.json")


@pytest.mark.parametrize("command, target", [
    ("charmat", "p11.json"),
    ("charmat", "p12.json"),  # a file that is not the first
    ("charmat", "report.json"),
    ("example-dirichlet", "eigenvalues.csv"),
])
def test_cli_exit_3_when_an_output_cannot_be_written(tmp_path, capsys, command, target):
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    out = tmp_path / "o"
    (out / target).mkdir(parents=True)
    argv = {"charmat": [str(mat)], "example-dirichlet": ["--n", "100", "--k", "2"]}[command]
    assert main([command, *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"invariant violation: cannot write {out / target}: Is a directory" in err
    if target != "report.json":
        assert not (out / "report.json").exists()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_reaps_every_writer(tmp_path, monkeypatch, capsys):
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    P = char_matrix(HERMITIAN)

    assert main(["charmat", str(mat), "--out", str(tmp_path / "ok")]) == 0
    (tmp_path / "bad" / "p21.json").mkdir(parents=True)
    assert main(["charmat", str(mat), "--out", str(tmp_path / "bad")]) == 3

    # a compute failure while the writers run still leaves complete blocks
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "verify_identities", singular)
    assert main(["charmat", str(mat), "--out", str(tmp_path / "linalg")]) == 4
    assert "numerical failure: Singular matrix" in capsys.readouterr().err
    for name in ("p11", "p12", "p21", "p22"):
        assert load_matrix(tmp_path / "linalg" / f"{name}.json").tobytes() == \
            getattr(P, name).tobytes()
    _assert_no_child_left()


def test_writers_never_return_into_the_caller(tmp_path, monkeypatch, capsys, in_children_only):
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    (tmp_path / "bad" / "p22.json").mkdir(parents=True)
    assert main(["charmat", str(mat), "--out", str(tmp_path / "ok")]) == 0
    assert main(["charmat", str(mat), "--out", str(tmp_path / "bad")]) == 3
    resolvent_argv = ["selfadjoint", str(mat), "resolvent", "--z", "2j", "--out"]
    assert main([*resolvent_argv, str(tmp_path / "ref")]) == 0
    for escape in (SystemExit(0), KeyboardInterrupt()):
        def leave(path, A, escape=escape):
            raise escape

        monkeypatch.setattr(charmat.io, "save_matrix", in_children_only(leave, save_matrix))
        out = tmp_path / type(escape).__name__
        # the writer left without writing; the command wrote the file itself
        assert main([*resolvent_argv, str(out)]) == 0
        assert file_digest(out / "resolvent.json") == file_digest(tmp_path / "ref" / "resolvent.json")
    capsys.readouterr()
    marker = tmp_path / "marker.txt"
    with open(marker, "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")
    assert marker.read_text().splitlines() == [str(os.getpid())]
    _assert_no_child_left()


def test_save_matrices_writes_what_a_writer_did_not(tmp_path, monkeypatch, in_children_only):
    def exhausted(path, A):
        raise MemoryError

    def killed(path, A):  # a partial file, then SIGKILL mid-write
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"rows": 2, ')
        os.kill(os.getpid(), signal.SIGKILL)

    # out of memory in the writer and again here
    monkeypatch.setattr(charmat.io, "save_matrix", exhausted)
    with pytest.raises(MemoryError, match="a.json"):
        with save_matrices({tmp_path / "a.json": HERMITIAN}):
            pass
    monkeypatch.setattr(charmat.io, "save_matrix", in_children_only(killed, save_matrix))
    with save_matrices({tmp_path / "b.json": HERMITIAN}):
        pass
    save_matrix(tmp_path / "b_inline.json", HERMITIAN)
    assert file_digest(tmp_path / "b.json") == file_digest(tmp_path / "b_inline.json")
    # the body's exception wins over a writer's failure
    with pytest.raises(ValueError, match="body"):
        with save_matrices({tmp_path / "c.json": HERMITIAN}):
            raise ValueError("body")
    _assert_no_child_left()


def test_charmat_log_holds_when_main_runs_in_process(tmp_path, monkeypatch, caplog):
    # pytest has set up logging before main runs, so basicConfig alone does nothing
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    monkeypatch.setenv("CHARMAT_LOG", "info")
    assert main(["charmat", str(mat), "--out", str(tmp_path / "o")]) == 0
    assert ("charmat", logging.INFO, "wrote p11.json") in caplog.record_tuples


def test_cli_writes_the_blocks_its_writers_did_not(tmp_path, monkeypatch, caplog, in_children_only):
    # the writer fails, in the child only: the command writes the four
    # blocks itself, exits 0, and logs each retry at CHARMAT_LOG=info
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    out = tmp_path / "o"

    def fail_in_writer(path, A):
        raise OSError("no write in the writer")

    monkeypatch.setattr(charmat.io, "save_matrix", in_children_only(fail_in_writer, save_matrix))
    monkeypatch.setenv("CHARMAT_LOG", "info")
    assert main(["charmat", str(mat), "--out", str(out)]) == 0
    monkeypatch.undo()
    P = char_matrix(HERMITIAN)
    for name in ("p11", "p12", "p21", "p22"):
        path = out / f"{name}.json"
        save_matrix(tmp_path / f"{name}_inline.json", getattr(P, name))
        assert file_digest(path) == file_digest(tmp_path / f"{name}_inline.json")
        message = f"writer of {path} exited with 1; writing it here"
        assert ("charmat", logging.INFO, message) in caplog.record_tuples
    _assert_no_child_left()


def test_cli_exit_4_when_a_writer_runs_out_of_memory(tmp_path, monkeypatch, capsys):
    def exhausted(path, A):
        raise MemoryError

    monkeypatch.setattr(charmat.io, "save_matrix", exhausted)
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    assert main(["charmat", str(mat), "--out", str(tmp_path / "o")]) == 4
    assert "numerical failure: out of memory: writing" in capsys.readouterr().err


def test_cli_exit_4_names_the_file_when_no_writer_can_fork(tmp_path, monkeypatch, capsys):
    # with no process to spare the blocks are written in process; running out of
    # memory there names the file, as the retry after a failed writer does
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    def exhausted(path, A):
        raise MemoryError

    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(charmat.io, "save_matrix", exhausted)
    out = tmp_path / "o"
    assert main(["charmat", str(mat), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"numerical failure: out of memory: writing {out / 'p11.json'}" in err
    _assert_no_child_left()


# ------------------------------------------------------------ the --tol table

#: The default bound of every report label (README, "Common flags").
DEFAULT_BOUNDS = {
    **dict.fromkeys(("A6", "A7", "A9", "A12", "A13", "oracle"), 1e-10),
    "A8": 0.0, "A11": 1e-9,
    **{f"fiberwise_{b}": 1e-10 for b in ("p11", "p12", "p21", "p22")},
    **{f"suite_{s}": 1e-9 for s in ("adjoint", "modulus", "inverse", "polynomial")},
    **dict.fromkeys(("suite_selfadjoint", "suite_positive", "suite_normal"), 0.0),
    "norm_consistency": 1e-10,
    "dirichlet_rel_err_max": 1e-2, "dirichlet_rel_err_first": 5e-3, "periodic_kernel": 1e-8,
    "periodic_pair_rel_err": 1e-2, "witness_periodic_dev": 1e-8,
    "witness_dirichlet_window": 0.0, "witness_gap_margin": 0.0, "mismatch_dev": 1e-3,
    **dict.fromkeys(("resolvent_identity", "projection_idempotent", "projection_hermitian",
                     "group_unitary"), 1e-10),
    "stone": 1e-3, "fourier": 1e-4,
}

#: The yes/no verdicts, whose bound of 0 no --tol moves.
VERDICT_LABELS = {"A8", "suite_selfadjoint", "suite_positive", "suite_normal"}

CHARMAT_LABELS = {"A6", "A7", "A8", "A9", "A12", "A13", "oracle"}
VERIFY_LABELS = {f"fiberwise_{b}" for b in ("p11", "p12", "p21", "p22")} | {
    f"suite_{s}" for s in ("adjoint", "modulus", "selfadjoint", "positive", "normal",
                           "polynomial")} | {"norm_consistency"}


def _matrix_obj(A) -> dict:
    A = np.asarray(A, dtype=complex)
    return {"rows": A.shape[0], "cols": A.shape[1], "data": A.view(float).reshape(-1, 2).tolist()}


TOL_TABLE_CASES = {
    "charmat-injective": (["charmat", "{T}", "--oracle"], CHARMAT_LABELS | {"A11"}),
    "charmat-singular": (["charmat", "{S}", "--oracle"], CHARMAT_LABELS),
    "verify-injective": (["verify", "{F}"], VERIFY_LABELS | {"suite_inverse"}),
    "verify-singular": (["verify", "{G}"], VERIFY_LABELS),
    "example-dirichlet": (["example-dirichlet", "--n", "100", "--k", "5"],
                          {"dirichlet_rel_err_max", "dirichlet_rel_err_first", "periodic_kernel",
                           "periodic_pair_rel_err", "witness_periodic_dev",
                           "witness_dirichlet_window", "witness_gap_margin", "mismatch_dev"}),
    "resolvent": (["selfadjoint", "{H}", "resolvent", "--z", "2j"], {"resolvent_identity"}),
    "projection": (["selfadjoint", "{H}", "projection", "--lam", "2"],
                   {"projection_idempotent", "projection_hermitian"}),
    "group": (["selfadjoint", "{H}", "group", "--s", "0.5"], {"group_unitary"}),
    "stone": (["selfadjoint", "{H}", "stone", "--lam", "2", "--seed", "1"], {"stone"}),
    "fourier": (["selfadjoint", "{H}", "fourier", "--z", "2j", "--seed", "1"], {"fourier"}),
}


@pytest.mark.parametrize("tol", [None, 0.5], ids=["default", "tol-0.5"])
@pytest.mark.parametrize("case", TOL_TABLE_CASES)
def test_cli_tol_overrides_every_bound_but_the_verdicts(tmp_path, capsys, case, tol):
    rng = np.random.default_rng(41)
    files = {
        "T": rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        "S": np.array([[1.0, 2.0], [2.0, 4.0]]),  # singular: A11 is skipped
        "H": HERMITIAN,
    }
    for name, A in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(_matrix_obj(A)))
    fibers = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    (tmp_path / "F.json").write_text(json.dumps(
        {"grid": [0.0, 1.0, 2.0], "fibers": [_matrix_obj(F) for F in fibers]}))
    (tmp_path / "G.json").write_text(json.dumps(  # a singular fiber: suite_inverse is skipped
        {"grid": [0.0, 1.0], "fibers": [_matrix_obj([[1.0]]), _matrix_obj([[0.0]])]}))

    argv, labels = TOL_TABLE_CASES[case]
    argv = [a.format(**{k: tmp_path / f"{k}.json" for k in "TSHFG"}) for a in argv]
    out = tmp_path / "out"
    extra = [] if tol is None else ["--tol", str(tol)]
    assert main([*argv, "--out", str(out), *extra]) in (0, 1)
    capsys.readouterr()
    tolerances = json.loads((out / "report.json").read_text())["tolerances"]
    assert set(tolerances) == labels
    expected = {label: DEFAULT_BOUNDS[label] if tol is None or label in VERDICT_LABELS else tol
                for label in labels}
    assert tolerances == expected
