"""Tour of the self-adjoint functional calculus and its integral identities.

For a Hermitian matrix the spectral theorem is a finite sum, which makes
the classical integral identities of the calculus checkable in closed
form: the half-line Fourier transform of the unitary group recovers
the resolvent, the jump of the resolvent across the real axis recovers
the spectral projections, and step functions of the operator converge
exactly as their scalar counterparts do.
"""

import numpy as np

from charmat import (
    bounded_calculus_step_check,
    fourier_resolvent_check,
    resolvent,
    spectral_decomposition,
    spectral_projection,
    spectral_transform_check,
    stone_formula_check,
    unitary_group,
)


def main():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    T = (A + A.conj().T) / 2

    print("=== spectral decomposition ===")
    dec = spectral_decomposition(T)
    print(f"eigenvalues: {np.round(dec.eigenvalues, 3)}")
    resolution = np.linalg.norm(dec.projectors.sum(axis=0) - np.eye(5))
    print(f"projectors resolve the identity to {resolution:.2e}")

    lam = float(np.median(dec.eigenvalues))
    E = spectral_projection(T, lam)
    print(f"projection at lam={lam:.3f} has rank {np.trace(E).real:.0f} "
          f"(right-continuous: eigenvalues at lam are included)")

    print("\n=== resolvent and unitary group ===")
    z = 0.5 + 1.0j
    R = resolvent(T, z)
    print(f"|| (T - z) R - I || = "
          f"{np.linalg.norm((T - z * np.eye(5)) @ R - np.eye(5)):.2e}")
    U = unitary_group(T, 0.8)
    print(f"|| U* U - I || = {np.linalg.norm(U.conj().T @ U - np.eye(5)):.2e}")

    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    g = rng.standard_normal(5) + 1j * rng.standard_normal(5)

    print("\n=== identity 1: group -> resolvent (half-line Fourier transform) ===")
    print("  (f, (T-z)^-1 g) = i * int_0^inf e^(izs) (f, e^(-isT) g) ds,  Im z > 0")
    for smax in (10.0, 20.0, 40.0):
        dev = fourier_resolvent_check(T, z, f, g, smax=smax)
        print(f"  truncated at smax={smax:>4.0f}: deviation {dev:.2e} "
              f"(tail ~ e^-smax = {np.exp(-smax):.1e})")
    print("(the integral is exact, so the deviation is the tail, down to rounding)")

    print("\n=== identity 2: resolvent -> projection (jump across the axis) ===")
    print("  (f, E(lam) g) ~ (2 pi i)^-1 int (f, [R(u+ie) - R(u-ie)] g) du")
    # the integrand is a Poisson spike of width epsilon at each eigenvalue,
    # integrated exactly, so what is left is Stone's own O(epsilon) error
    for eps in (1e-2, 1e-3, 1e-4):
        dev = stone_formula_check(T, lam, f, g, epsilon=eps, delta=0.05)
        print(f"  epsilon = {eps:.0e}: deviation {dev:.2e}")

    print("\n=== identity 3: spectral sum -> group (exact, no quadrature) ===")
    for s in (0.5, 3.0):
        print(f"  s = {s}: deviation {spectral_transform_check(T, s, f, g):.2e}")

    print("\n=== step functions of the operator ===")

    def staircase(k):
        return lambda x: np.floor(x * k) / k

    out = bounded_calculus_step_check(T, F=lambda x: x, Fsteps=[staircase(k) for k in (2, 8, 32)])
    for k, op_err, sup in zip((2, 8, 32), out["op_errors"], out["sup_distances"]):
        print(f"  staircase 1/{k:2d}: ||F_n(T) - T|| = {op_err:.4f} "
              f"= sup|F_n - id| = {sup:.4f}")
    print("(operator convergence is exactly scalar sup-convergence on the spectrum)")


if __name__ == "__main__":
    main()
