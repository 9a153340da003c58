"""Command-line verification tools.

The ``charmat``, ``verify``, ``example-dirichlet`` and ``selfadjoint`` commands
(README, "Command line").  Each extends its report with the library checks'
:class:`~charmat.hilbert.Checks` and adds the residuals it computes itself, with
this module's constants as bounds.  A report's ``pass`` is true exactly when
every residual is at most its bound; ``--tol`` replaces every bound but those of
the verdicts that the checks mark.  :func:`main` returns the exit code of
README's table; a flag error raises ``SystemExit(3)``.  :func:`run` is the
process entry.
"""

from __future__ import annotations

import argparse
import csv
import gc
import logging
import os
import sys
import time

import numpy as np

from .boundary import (
    GridDiscretization,
    boundary_mismatch,
    deficiency_vector,
    laplacian,  # noqa: F401 -- unused here, but perfbench/tracer.py wraps cli.laplacian
    laplacian_eigenvalues,
    separation_witness,
    trapezoid_norm,
)
from .calculus import (
    fourier_resolvent_check,
    resolvent,
    spectral_projection,
    stone_formula_check,
    unitary_group,
)
# char_matrix_fiberwise and family_norm are unused here, but perfbench/tracer.py wraps both
from .family import char_matrix_fiberwise, decomposition_suite, family_norm  # noqa: F401
from .graph import (
    IDENTITY_TOL,
    adjoint_char_matrix,
    char_matrix,
    char_matrix_oracle,
    inverse_char_matrix,
    verify_identities,
)
from .hilbert import adjoint, require_hermitian
from .io import (
    ParseError,
    Report,
    file_digest,
    load_family,
    load_matrix,
    params_digest,
    save_matrix,
)

log = logging.getLogger("charmat")

#: Default bounds of the labels computed here; each library check returns its own.
INVERSE_TOL = 1e-9  # A11: its reference graph goes through inv(T)
SPECTRUM_REL_TOL = 1e-2
FIRST_EIGENVALUE_REL_TOL = 5e-3
KERNEL_EIGENVALUE_TOL = 1e-8
WITNESS_PERIODIC_TOL = 1e-8
MISMATCH_TOL = 1e-3

#: Analytic mismatch of the normalized defect state: (1 - 1/e) / sqrt((1 - e^-2)/2).
MISMATCH_TARGET = 0.9613710597474939

#: Each ``selfadjoint`` check and the flag it requires.
_REQUIRES = {"resolvent": "z", "projection": "lam", "group": "s", "stone": "lam", "fourier": "z"}


class _Parser(argparse.ArgumentParser):
    """Argument errors are invariant violations: exit 3, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _finite(parse, nonnegative: bool = False):
    """An argparse ``type=`` like ``parse`` that rejects nan, +-inf and, if asked, negatives."""
    def finite(text: str):
        value = parse(text)
        # nan is the one value unequal to itself; abs() covers complex parts and never overflows an int
        if value != value or abs(value) == np.inf:
            raise argparse.ArgumentTypeError("must be finite")
        if nonnegative and value < 0:
            raise argparse.ArgumentTypeError("must be non-negative")
        return value

    finite.__name__ = parse.__name__  # as in argparse's "invalid float value: ..."
    return finite


def _add_common(p: argparse.ArgumentParser) -> None:
    # no residual is negative, so a negative tolerance could only fail every label
    p.add_argument("--tol", type=_finite(float, nonnegative=True), default=None,
                   help="override every residual tolerance except the yes/no verdicts")
    p.add_argument("--seed", type=_finite(int, nonnegative=True), default=None,
                   help="seed for randomized probe vectors")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report file format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="charmat", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charmat", help="characteristic matrix of a matrix file")
    p.add_argument("input", help="matrix file (JSON)")
    p.add_argument("--oracle", action="store_true",
                   help="also cross-check against the orthonormalization oracle")
    _add_common(p)
    p.set_defaults(run=cmd_charmat)

    p = sub.add_parser("verify", help="block-diagonal consistency suite for a family file")
    p.add_argument("input", help="family file (JSON)")
    _add_common(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("example-dirichlet",
                       help="boundary-condition example: spectra, witness, mismatch")
    p.add_argument("--n", type=int, required=True, help="grid resolution (>= 100)")
    p.add_argument("--k", type=int, required=True, help="eigenvalues to tabulate (<= n/10)")
    _add_common(p)
    p.set_defaults(run=cmd_example_dirichlet)

    p = sub.add_parser("selfadjoint", help="functional-calculus checks for a Hermitian file")
    p.add_argument("input", help="Hermitian matrix file (JSON)")
    p.add_argument("subcommand", choices=tuple(_REQUIRES))
    p.add_argument("--z", type=_finite(complex), default=None,
                   help="spectral parameter, e.g. '2j' or '1+2j'")
    p.add_argument("--lam", type=_finite(float), default=None, help="spectral height")
    p.add_argument("--s", type=_finite(float), default=None, help="group time")
    p.add_argument("--smax", type=_finite(float), default=20.0,
                   help="fourier's integral truncation (integrated exactly, as stone's is)")
    p.add_argument("--epsilon", type=_finite(float), default=1e-4, help="resolvent offset")
    p.add_argument("--delta", type=_finite(float), default=1e-2, help="endpoint overshoot")
    _add_common(p)
    p.set_defaults(run=cmd_selfadjoint)

    return parser


def _probe_vectors(n: int, seed):
    """Deterministic probe pair: seeded complex Gaussians, or flat vectors."""
    if seed is None:
        v = np.ones(n) / np.sqrt(n)
        return v, v
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return f / np.linalg.norm(f), g / np.linalg.norm(g)


def cmd_charmat(args) -> Report:
    T = load_matrix(args.input)
    report = Report(command="charmat", inputs=file_digest(args.input), seed=args.seed)

    P = char_matrix(T)
    for b in ("p11", "p12", "p21", "p22"):
        save_matrix(os.path.join(args.out, f"{b}.json"), getattr(P, b))
        log.info("wrote %s.json", b)

    report.extend(verify_identities(T, P))

    report.add("A9", adjoint_char_matrix(P).blockwise_distance(char_matrix(adjoint(T))),
               IDENTITY_TOL)
    try:
        Pinv = inverse_char_matrix(P)
    except ValueError as exc:
        report.notes["A11"] = f"skipped: {exc}"
    else:
        report.add("A11", Pinv.blockwise_distance(char_matrix(np.linalg.inv(T))), INVERSE_TOL)

    if args.oracle:
        report.add("oracle", P.blockwise_distance(char_matrix_oracle(T)), IDENTITY_TOL)
    return report


def cmd_verify(args) -> Report:
    fam = load_family(args.input)
    report = Report(command="verify", inputs=file_digest(args.input), seed=args.seed)
    report.extend(decomposition_suite(fam, seed=args.seed))
    return report


def cmd_example_dirichlet(args) -> Report:
    n, k = args.n, args.k
    if n < 100:
        raise ValueError(f"n must be at least 100, got {n}")
    if k < 1 or k > n // 10:
        raise ValueError(f"k must lie in [1, n/10] = [1, {n // 10}], got {k}")
    report = Report(command="example-dirichlet",
                    inputs=params_digest({"n": n, "k": k}), seed=args.seed)

    gd = GridDiscretization(n, "dirichlet")
    dval = laplacian_eigenvalues(gd, k)
    periodic_eigs = laplacian_eigenvalues(GridDiscretization(n, "periodic"), k + 1)

    j = np.arange(1, k + 1)
    dtgt = (j * np.pi) ** 2
    drel = abs(dval - dtgt) / dtgt
    pval = periodic_eigs[1:]  # index 0 is the kernel
    ptgt = 4.0 * np.pi**2 * ((j + 1) // 2) ** 2
    prel = abs(pval - ptgt) / ptgt
    csv_path = os.path.join(args.out, "eigenvalues.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "dirichlet_value", "dirichlet_target", "dirichlet_rel_err",
                    "periodic_value", "periodic_target", "periodic_rel_err"])
        for index, *cells in zip(j.tolist(), dval, dtgt, drel, pval, ptgt, prel):
            w.writerow([index] + [repr(float(x)) for x in cells])
    log.info("wrote %s", csv_path)

    report.add("dirichlet_rel_err_max", drel.max(), SPECTRUM_REL_TOL)
    report.add("dirichlet_rel_err_first", drel[0], FIRST_EIGENVALUE_REL_TOL)
    report.add("periodic_kernel", abs(periodic_eigs[0]), KERNEL_EIGENVALUE_TOL)
    report.add("periodic_pair_rel_err", prel[:2].max(), SPECTRUM_REL_TOL)

    valD, valP = separation_witness(n)
    report.add("witness_periodic_dev", abs(valP - 1.0), WITNESS_PERIODIC_TOL)
    report.add("witness_dirichlet_window", max(0.0, 0.070 - valD, valD - 0.081), 0.0)
    report.add("witness_gap_margin", max(0.0, 0.8 - abs(valP - valD)), 0.0)
    report.notes["witness_values"] = f"valD={valD!r}, valP={valP!r}"

    e = deficiency_vector(gd)
    mismatch = boundary_mismatch(e, gd) / trapezoid_norm(gd, e)
    report.add("mismatch_dev", abs(mismatch - MISMATCH_TARGET), MISMATCH_TOL)
    report.notes["mismatch_value"] = repr(mismatch)
    return report


def cmd_selfadjoint(args) -> Report:
    sub = args.subcommand
    T = require_hermitian(load_matrix(args.input))
    report = Report(command=f"selfadjoint {sub}", inputs=file_digest(args.input), seed=args.seed)
    if getattr(args, _REQUIRES[sub]) is None:
        raise ValueError(f"selfadjoint {sub} requires --{_REQUIRES[sub]}")

    if sub == "resolvent":
        R = resolvent(T, args.z)
        save_matrix(os.path.join(args.out, "resolvent.json"), R)
        resid = np.linalg.norm((T - args.z * np.eye(len(T))) @ R - np.eye(len(T)), "fro")
        report.add("resolvent_identity", resid, IDENTITY_TOL)
    elif sub == "projection":
        E = spectral_projection(T, args.lam)
        save_matrix(os.path.join(args.out, "projection.json"), E)
        report.add("projection_idempotent", np.linalg.norm(E @ E - E, "fro"), IDENTITY_TOL)
        report.add("projection_hermitian", np.linalg.norm(E - adjoint(E), "fro"), IDENTITY_TOL)
        # the trace of an orthogonal projection is its rank, up to rounding
        report.notes["rank"] = str(round(float(np.real(np.trace(E)))))
    elif sub == "group":
        U = unitary_group(T, args.s)
        save_matrix(os.path.join(args.out, "unitary.json"), U)
        report.add("group_unitary", np.linalg.norm(adjoint(U) @ U - np.eye(len(U)), "fro"),
                   IDENTITY_TOL)
    elif sub == "stone":
        f, g = _probe_vectors(len(T), args.seed)
        report.extend(stone_formula_check(T, args.lam, f, g, args.epsilon, args.delta))
    elif sub == "fourier":
        f, g = _probe_vectors(len(T), args.seed)
        report.extend(fourier_resolvent_check(T, args.z, f, g, args.smax))
    return report


def _configure_logging() -> None:
    level_name = os.environ.get("CHARMAT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    # basicConfig adds the stderr handler only while the root logger has none, so the
    # level goes on the charmat logger itself: it then holds in a host that set up logging
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(levels.get(level_name, logging.ERROR))
    if level_name not in levels:
        log.error("unknown CHARMAT_LOG value %r; using 'error'", level_name)


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"invariant violation: cannot create output directory {args.out!r}: {exc}",
              file=sys.stderr)
        return 3

    start = time.perf_counter()
    try:
        report = args.run(args)
        if args.tol is not None:
            report.bounds = {k: v if k in report.verdicts else args.tol
                             for k, v in report.bounds.items()}
        report.wall_time_ms = 1000.0 * (time.perf_counter() - start)
        report.save(os.path.join(args.out, f"report.{args.format}"), args.format)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    # LinAlgError subclasses ValueError, so it must be caught first
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    # a failed read is a ParseError, so an OSError here is a failed output write
    except OSError as exc:
        print(f"invariant violation: cannot write {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
        return 3
    try:
        print(report.to_json())
    except BrokenPipeError:
        pass  # the echo is best effort: the report file and the exit code carry the verdict
    if not report.all_pass:
        worst = max(report.residuals, key=lambda k: report.residuals[k] - report.bounds[k])
        log.error("residual failure: %s = %r exceeds %r",
                  worst, report.residuals[worst], report.bounds[worst])
        return 1
    return 0


def run() -> None:
    """The ``charmat`` process: ``python -m charmat``, ``python -m charmat.cli`` and the
    console script.  Runs :func:`main` on ``sys.argv`` and exits with its code."""
    # every module is imported by now; frozen, their objects sit in the permanent
    # generation, which neither the command's collections nor the exit collection walk
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the interpreter's own flush
        # at exit has nothing to fail on (the idiom of Python's signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
