import json
import os
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
from charmat.graph import char_matrix
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
    ("charmat", "p12.json"),  # a writer that is not the first
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


def test_writers_never_return_into_the_caller(tmp_path, monkeypatch, capsys):
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    (tmp_path / "bad" / "p22.json").mkdir(parents=True)
    assert main(["charmat", str(mat), "--out", str(tmp_path / "ok")]) == 0
    assert main(["charmat", str(mat), "--out", str(tmp_path / "bad")]) == 3
    for escape in (SystemExit(0), KeyboardInterrupt()):
        def leave(path, A, escape=escape):
            raise escape

        monkeypatch.setattr(charmat.io, "save_matrix", leave)
        assert main(["selfadjoint", str(mat), "resolvent", "--z", "2j",
                     "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()
    marker = tmp_path / "marker.txt"
    with open(marker, "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")
    assert marker.read_text().splitlines() == [str(os.getpid())]
    _assert_no_child_left()


def test_save_matrices_turns_writer_failures_into_exceptions(tmp_path, monkeypatch):
    def exhausted(path, A):
        raise MemoryError

    def killed(path, A):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(charmat.io, "save_matrix", exhausted)
    with pytest.raises(MemoryError, match="a.json"):
        with save_matrices({tmp_path / "a.json": HERMITIAN}):
            pass
    monkeypatch.setattr(charmat.io, "save_matrix", killed)
    with pytest.raises(OSError, match="killed by signal") as info:
        with save_matrices({tmp_path / "b.json": HERMITIAN}):
            pass
    assert info.value.filename == str(tmp_path / "b.json")
    # the body's exception wins over a writer's failure
    with pytest.raises(ValueError, match="body"):
        with save_matrices({tmp_path / "c.json": HERMITIAN}):
            raise ValueError("body")
    _assert_no_child_left()


def test_cli_exit_4_when_a_writer_runs_out_of_memory(tmp_path, monkeypatch, capsys):
    def exhausted(path, A):
        raise MemoryError

    monkeypatch.setattr(charmat.io, "save_matrix", exhausted)
    mat = tmp_path / "T.json"
    save_matrix(mat, HERMITIAN)
    assert main(["charmat", str(mat), "--out", str(tmp_path / "o")]) == 4
    assert "numerical failure: out of memory: writing" in capsys.readouterr().err
