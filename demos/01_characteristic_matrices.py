"""Tour of characteristic matrices: blocks, identities, and transforms.

The characteristic matrix of an operator T is the orthogonal projection
onto its graph {(f, T f)}, written as four n x n blocks.  This script
builds one, checks the algebraic identity suite, cross-checks against an
independent orthonormalization oracle, and shows how taking the adjoint
and the inverse of T act as simple block shuffles.
"""

import numpy as np

from charmat import (
    adjoint,
    adjoint_char_matrix,
    char_matrix,
    char_matrix_oracle,
    inverse_char_matrix,
    operator_from_char_matrix,
    verify_identities,
)


def main():
    rng = np.random.default_rng(1)

    print("=== a scalar warm-up: T = [2] ===")
    P = char_matrix(np.array([[2.0]]))
    print(f"blocks: p11={P.p11[0,0]:.3f}  p12={P.p12[0,0]:.3f}  "
          f"p21={P.p21[0,0]:.3f}  p22={P.p22[0,0]:.3f}")
    print("(1/5, 2/5, 2/5, 4/5: the projection onto the line through (1, 2))")

    print("\n=== a random 5x5 operator ===")
    T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    P = char_matrix(T)
    full = P.assemble()
    print(f"assembled projection is 10x10, idempotency gap "
          f"{np.linalg.norm(full @ full - full):.2e}")

    report = verify_identities(T, P)
    print("identity suite residuals, each against its bound:")
    for label, value in report.residuals.items():
        bound = report.bounds[label]
        mark = "pass" if value <= bound else "FAIL"
        print(f"  {label}: {value:.3e} <= {bound:g}  [{mark}]")
    print(f"(A8 is how far the smallest singular value, {report.sigma_min:.3e}, "
          f"falls short of the kernel threshold)")

    gap = P.blockwise_distance(char_matrix_oracle(T))
    print(f"independent QR-based oracle agrees blockwise to {gap:.2e}")

    print("\n=== adjoint: reflect and swap the blocks ===")
    gap = adjoint_char_matrix(P).blockwise_distance(char_matrix(adjoint(T)))
    print(f"(I - p22, p21, p12, I - p11) vs direct route: {gap:.2e}")

    print("\n=== inverse: swap the diagonal blocks ===")
    T_inv = T + 4.0 * np.eye(5)  # comfortably invertible
    P_shift = char_matrix(T_inv)
    gap = inverse_char_matrix(P_shift).blockwise_distance(
        char_matrix(np.linalg.inv(T_inv))
    )
    print(f"(p22, p21, p12, p11) vs direct route: {gap:.2e}")

    print("\n=== recovery: the blocks remember the operator ===")
    T_back = operator_from_char_matrix(P)
    print(f"reconstructed operator matches to {np.linalg.norm(T_back - T):.2e}")


if __name__ == "__main__":
    main()
