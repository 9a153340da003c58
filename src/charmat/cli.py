"""Command-line verification tools.

Four commands, all emitting a machine-readable report (JSON on stdout and
``report.json``/``report.csv`` in the output directory):

- ``charmat INPUT``: characteristic matrix of a square matrix file; writes
  the four blocks and the identity-suite residuals, optionally
  cross-checked against the orthonormalization oracle (``--oracle``).
- ``verify INPUT``: fiberwise/block-diagonal consistency suite for a
  family file.
- ``example-dirichlet --n N --k K``: spectra of the second-order operators
  under Dirichlet and periodic boundary conditions, the separation witness
  pair, and the defect-state mismatch; eigenvalues also land in a CSV.
- ``selfadjoint INPUT SUBCOMMAND``: resolvent / spectral projection /
  unitary group / quadrature identity checks for a Hermitian matrix file.

A label passes when its residual is at most its tolerance: the bound that
the library returns with the residual, or this module's constant.  ``--tol``
(non-negative) overrides every tolerance but those of the ``VERDICTS``.

Exit codes: 0 all residuals within tolerance, 1 residual failure, 2 parse
error, 3 invariant or flag violation (or an output that cannot be
written), 4 numerical failure.  The
``CHARMAT_LOG`` environment variable (``error``, ``info``, ``debug``)
controls log verbosity.  ``--seed`` seeds the randomized probe vectors of the
quadrature subcommands and of ``verify``, whose ``suite_*`` residuals are
probe estimates of relative Frobenius residuals; ``verify`` without it uses
a fixed seed, so one file always gives one report.
"""

from __future__ import annotations

import argparse
import csv
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
# char_matrix_fiberwise is unused here, but perfbench/tracer.py wraps cli.char_matrix_fiberwise
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
# save_matrix is unused here, but perfbench/tracer.py wraps cli.save_matrix
from .io import (  # noqa: F401
    ParseError,
    Report,
    file_digest,
    load_family,
    load_matrix,
    params_digest,
    save_matrices,
    save_matrix,
)

log = logging.getLogger("charmat")

#: Default bounds of the labels computed here; the library returns the bounds of
#: the identity suite and the decomposition suite with their residuals.
INVERSE_TOL = 1e-9  # A11: its reference graph goes through inv(T)
STONE_TOL = 1e-3
FOURIER_TOL = 1e-4
SPECTRUM_REL_TOL = 1e-2
FIRST_EIGENVALUE_REL_TOL = 5e-3
KERNEL_EIGENVALUE_TOL = 1e-8
WITNESS_PERIODIC_TOL = 1e-8
MISMATCH_TOL = 1e-3

#: Yes/no verdicts, bounded by 0 whatever --tol says: no tolerance passes a disagreement.
VERDICTS = ("A8", "suite_selfadjoint", "suite_positive", "suite_normal")

#: Analytic mismatch of the normalized defect state: (1 - 1/e) / sqrt((1 - e^-2)/2).
MISMATCH_TARGET = 0.9613710597474939


class _Parser(argparse.ArgumentParser):
    """Argument errors are invariant violations: exit 3, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _finite(parse, nonnegative: bool = False):
    """An argparse ``type=`` that parses like ``parse``, rejects nan and +-inf and, if asked, negatives."""
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


def _count(text: str) -> int:
    """An argparse ``type=`` for ``--steps``: an int from 1 up to the float range.

    The quadratures turn ``steps`` into floats, so a larger int would end in
    an ``OverflowError`` there.
    """
    value = int(text)
    if not 1 <= value <= sys.float_info.max:  # an int compares with a float exactly
        raise argparse.ArgumentTypeError(f"must lie in [1, {sys.float_info.max:g}]")
    return value


_count.__name__ = "int"  # as in argparse's "invalid int value: ..."


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

    p = sub.add_parser("verify", help="block-diagonal consistency suite for a family file")
    p.add_argument("input", help="family file (JSON)")
    _add_common(p)

    p = sub.add_parser("example-dirichlet",
                       help="boundary-condition example: spectra, witness, mismatch")
    p.add_argument("--n", type=int, required=True, help="grid resolution (>= 100)")
    p.add_argument("--k", type=int, required=True, help="eigenvalues to tabulate (<= n/10)")
    _add_common(p)

    p = sub.add_parser("selfadjoint", help="functional-calculus checks for a Hermitian file")
    p.add_argument("input", help="Hermitian matrix file (JSON)")
    p.add_argument("subcommand",
                   choices=("resolvent", "projection", "group", "stone", "fourier"))
    p.add_argument("--z", type=_finite(complex), default=None,
                   help="spectral parameter, e.g. '2j' or '1+2j'")
    p.add_argument("--lam", type=_finite(float), default=None, help="spectral height")
    p.add_argument("--s", type=_finite(float), default=None, help="group time")
    p.add_argument("--smax", type=_finite(float), default=20.0, help="integral truncation")
    p.add_argument("--steps", type=_count, default=40_000, help="quadrature subintervals")
    p.add_argument("--epsilon", type=_finite(float), default=1e-4, help="resolvent offset")
    p.add_argument("--delta", type=_finite(float), default=1e-2, help="endpoint overshoot")
    _add_common(p)

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


def cmd_charmat(args, outdir: str) -> Report:
    T = load_matrix(args.input)
    report = Report(command="charmat", inputs=file_digest(args.input), seed=args.seed)

    P = char_matrix(T)
    blocks = ("p11", "p12", "p21", "p22")
    # the blocks are written while the checks below run
    with save_matrices({os.path.join(outdir, f"{b}.json"): getattr(P, b) for b in blocks}):
        ident = verify_identities(T, P)
        for label, residual in ident.residuals.items():
            report.add(label, residual, ident.bounds[label])
        report.notes["A8_sigma_min"] = repr(ident.sigma_min)

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
    for b in blocks:
        log.info("wrote %s.json", b)
    return report


def cmd_verify(args, outdir: str) -> Report:
    fam = load_family(args.input)
    report = Report(command="verify", inputs=file_digest(args.input), seed=args.seed)

    suite = decomposition_suite(fam, seed=args.seed)
    fiberwise = suite.pop("char_matrix")
    for block, value in fiberwise["gaps"].items():
        report.add(f"fiberwise_{block}", value, fiberwise["gap_bound"])
    for name, item in suite.items():
        if item["applicable"]:
            report.add(f"suite_{name}", item["residual"], item["bound"])
        if item["note"]:
            report.notes[f"suite_{name}"] = item["note"]

    # bounds |family_norm - ||A||_2| / max(1, ||A||_2); 0 or rounding for a block-diagonal A
    norm, error = suite["modulus"]["norm"], suite["modulus"]["norm_error"]
    report.add("norm_consistency", (abs(family_norm(fam) - norm) + error) / max(1.0, norm),
               IDENTITY_TOL)
    return report


def cmd_example_dirichlet(args, outdir: str) -> Report:
    n, k = args.n, args.k
    if n < 100:
        raise ValueError(f"n must be at least 100, got {n}")
    if k < 1 or k > n // 10:
        raise ValueError(f"k must lie in [1, n/10] = [1, {n // 10}], got {k}")
    report = Report(command="example-dirichlet",
                    inputs=params_digest({"n": n, "k": k}), seed=args.seed)

    gd = GridDiscretization(n, "dirichlet")
    gp = GridDiscretization(n, "periodic")
    dirichlet_eigs = laplacian_eigenvalues(gd, k)
    periodic_eigs = laplacian_eigenvalues(gp, k + 1)

    rows = []
    for j in range(1, k + 1):
        dval = dirichlet_eigs[j - 1]
        dtgt = (j * np.pi) ** 2
        pval = periodic_eigs[j]  # index 0 is the kernel
        ptgt = 4.0 * np.pi**2 * ((j + 1) // 2) ** 2
        rows.append((j, dval, dtgt, abs(dval - dtgt) / dtgt,
                     pval, ptgt, abs(pval - ptgt) / ptgt))
    csv_path = os.path.join(outdir, "eigenvalues.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "dirichlet_value", "dirichlet_target", "dirichlet_rel_err",
                    "periodic_value", "periodic_target", "periodic_rel_err"])
        for row in rows:
            w.writerow([row[0]] + [repr(float(x)) for x in row[1:]])
    log.info("wrote %s", csv_path)

    report.add("dirichlet_rel_err_max", max(r[3] for r in rows), SPECTRUM_REL_TOL)
    report.add("dirichlet_rel_err_first", rows[0][3], FIRST_EIGENVALUE_REL_TOL)
    report.add("periodic_kernel", abs(periodic_eigs[0]), KERNEL_EIGENVALUE_TOL)
    report.add("periodic_pair_rel_err", max(r[6] for r in rows[: min(2, len(rows))]),
               SPECTRUM_REL_TOL)

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


def cmd_selfadjoint(args, outdir: str) -> Report:
    T = require_hermitian(load_matrix(args.input))
    report = Report(command=f"selfadjoint {args.subcommand}",
                    inputs=file_digest(args.input), seed=args.seed)
    sub = args.subcommand

    def need(flag: str):
        if getattr(args, flag) is None:
            raise ValueError(f"selfadjoint {sub} requires --{flag}")
        return getattr(args, flag)

    if sub == "resolvent":
        z = need("z")
        R = resolvent(T, z)
        with save_matrices({os.path.join(outdir, "resolvent.json"): R}):
            resid = np.linalg.norm((T - z * np.eye(len(T))) @ R - np.eye(len(T)), "fro")
        report.add("resolvent_identity", resid, IDENTITY_TOL)
    elif sub == "projection":
        lam = need("lam")
        E = spectral_projection(T, lam)
        with save_matrices({os.path.join(outdir, "projection.json"): E}):
            report.add("projection_idempotent", np.linalg.norm(E @ E - E, "fro"), IDENTITY_TOL)
            report.add("projection_hermitian", np.linalg.norm(E - adjoint(E), "fro"), IDENTITY_TOL)
        # the trace of an orthogonal projection is its rank, up to rounding
        report.notes["rank"] = str(round(float(np.real(np.trace(E)))))
    elif sub == "group":
        s = need("s")
        U = unitary_group(T, s)
        with save_matrices({os.path.join(outdir, "unitary.json"): U}):
            report.add("group_unitary", np.linalg.norm(adjoint(U) @ U - np.eye(len(U)), "fro"),
                       IDENTITY_TOL)
    elif sub == "stone":
        lam = need("lam")
        # only nodes at most epsilon apart over [w_min - 1, lam + delta] resolve the Poisson
        # kernels; a nonpositive epsilon is left to stone_formula_check's own error
        eps, width = args.epsilon, lam + args.delta - (np.linalg.eigvalsh(T)[0] - 1.0)
        if eps > 0 and width / args.steps > eps:
            q = width / eps  # below 2**53, the smallest passing --steps is within 1 of q
            fewest = q if q >= 2**53 else next(
                k for k in range(max(1, int(q) - 1), int(q) + 3) if width / k <= eps)
            raise ValueError(f"quadrature node spacing {width / args.steps:.6g} exceeds "
                             f"--epsilon {eps:g}; use --steps {fewest:.17g} or more")
        f, g = _probe_vectors(len(T), args.seed)
        resid = stone_formula_check(T, lam, f, g, args.epsilon, args.delta, args.steps)
        report.add("stone", resid, STONE_TOL)
    elif sub == "fourier":
        z = need("z")
        f, g = _probe_vectors(len(T), args.seed)
        resid = fourier_resolvent_check(T, z, f, g, args.smax, args.steps)
        report.add("fourier", resid, FOURIER_TOL)
    return report


_DISPATCH = {
    "charmat": cmd_charmat,
    "verify": cmd_verify,
    "example-dirichlet": cmd_example_dirichlet,
    "selfadjoint": cmd_selfadjoint,
}


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
    outdir = args.out
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"invariant violation: cannot create output directory {outdir!r}: {exc}",
              file=sys.stderr)
        return 3

    start = time.perf_counter()
    try:
        report = _DISPATCH[args.command](args, outdir)
        if args.tol is not None:
            report.tolerances = {k: v if k in VERDICTS else args.tol
                                 for k, v in report.tolerances.items()}
        report.wall_time_ms = 1000.0 * (time.perf_counter() - start)
        report.save(os.path.join(outdir, f"report.{args.format}"), args.format)
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
    print(report.to_json())
    if not report.passed:
        worst = max(report.residuals, key=lambda k: report.residuals[k] - report.tolerances[k])
        log.error("residual failure: %s = %r exceeds %r",
                  worst, report.residuals[worst], report.tolerances[worst])
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
