"""Tour of direct integrals: families of matrices acting fiberwise.

A family assigns one n x n matrix to each node of a parameter grid; its
direct integral is the block-diagonal operator on sections.  The point of
the machinery is that everything worth doing to the assembled operator --
characteristic matrix, adjoint, modulus, inverse, polynomials, sums,
products, resolvents, truncations -- can be done fiber by fiber instead,
and the two routes agree.
"""

import numpy as np

from charmat import (
    FamilyVector,
    OperatorFamily,
    ParameterGrid,
    char_matrix_fiberwise,
    decomposition_suite,
    family_norm,
    lennon_product,
    lennon_sum,
    resolvent_limit_check,
    resolvent_reconstruct,
    truncate_family_vector,
)


def main():
    rng = np.random.default_rng(2)

    grid = ParameterGrid(np.linspace(0.0, 1.0, 5))
    print(f"grid: {grid.m} nodes, trapezoid weights {np.round(grid.weights, 3)}")

    fibers = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    fam = OperatorFamily(grid, fibers)
    print(f"assembled block diagonal: {fam.assemble().shape}, "
          f"norm = max fiber norm = {family_norm(fam):.3f}")

    f = FamilyVector(grid, rng.standard_normal((5, 3)))
    out = fam.apply(f)
    print(f"acting fiberwise: section norms {np.round(np.linalg.norm(out.sections, axis=1), 3)}")

    print("\n=== the fibers' characteristic matrices, by two routes ===")
    _, residuals = char_matrix_fiberwise(fam)
    for block, value in residuals.items():
        print(f"  {block}: Gram-vs-SVD {value:.2e}")

    print("\n=== decomposition suite (fibers on seeded probe vectors) ===")
    for name, item in decomposition_suite(fam).items():
        status = "pass" if item["residual"] <= item["bound"] else "FAIL"
        extra = f"  ({item['note']})" if item["note"] else ""
        print(f"  {name:12s} residual {item['residual']:.2e}  [{status}]{extra}")

    print("\n=== sums and products are fiberwise ===")
    other = OperatorFamily(grid, rng.standard_normal((5, 3, 3)))
    s_gap = np.linalg.norm(lennon_sum(fam, other).assemble()
                           - (fam.assemble() + other.assemble()))
    p_gap = np.linalg.norm(lennon_product(fam, other).assemble()
                           - fam.assemble() @ other.assemble())
    print(f"  sum law {s_gap:.2e}, product law {p_gap:.2e}")

    print("\n=== a family is recoverable from its resolvents ===")
    herm = OperatorFamily(grid, (fibers + np.conj(np.transpose(fibers, (0, 2, 1)))) / 2)
    alpha = 2j * np.ones(grid.m)
    res = OperatorFamily(grid, np.stack([
        np.linalg.inv(F - a * np.eye(3)) for F, a in zip(herm.fibers, alpha)
    ]))
    back = resolvent_reconstruct(res, alpha)
    print(f"  round trip error {np.linalg.norm(back.fibers - herm.fibers):.2e}")

    print("\n=== resolvent convergence of (1 + 1/n) T -> T ===")
    ns = [10, 100, 1000, 10_000_000]
    seq = [OperatorFamily(grid, (1 + 1 / n) * herm.fibers) for n in ns]
    check = resolvent_limit_check(seq, herm, z=1j)
    for n, row in zip(ns, check["gaps"]):
        print(f"  n = {n:>8d}: worst fiber gap {row.max():.2e}")
    print(f"  all fibers converged: {check['all_converged']}")

    print("\n=== classical truncation of a section ===")
    for level in (0.5, 2.0, 8.0):
        cut = truncate_family_vector(herm, f, level)
        kept = int(np.count_nonzero(np.linalg.norm(cut.sections, axis=1)))
        print(f"  level {level:4.1f}: keeps {kept}/{grid.m} sections")


if __name__ == "__main__":
    main()
