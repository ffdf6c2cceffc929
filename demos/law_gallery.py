"""Tour of the matrix law samplers and the special-function layer.

Draws from each of the four families on the positive definite cone,
checks a few moments against their closed forms, and evaluates the
multivariate gamma / beta constants and the scalar integral transform
that shows up in the one dimensional kernel algebra.
"""

import numpy as np

from posdefwalks import (
    Law,
    ModelParams,
    QuadratureCdf,
    density_wrt_mu,
    make_stream,
    multivariate_beta,
    multivariate_gamma,
    phi_d1,
    sample,
    trace,
)

rng = make_stream(2024, 0)

print("=== samplers at d=2 ===")
p = ModelParams(2, 3.0, 6.0)
n = 20000
for law in Law:
    draws = sample(law, p, rng, size=n)
    tr = trace(draws)
    print(f"{law.value:>10s}: mean trace {tr.mean():8.4f}  (sd {tr.std():.4f})")

# Wishart trace has mean 2*d*alpha = 12 here; the other families sit
# strictly inside or heavy-tailed around comparable scales.
print()

print("=== normalization constants ===")
print(f"Gamma_2(3)   = {multivariate_gamma(2, 3.0):.10f}   (3*pi/2 = {3 * np.pi / 2:.10f})")
print(f"Beta_2(2,2)  = {multivariate_beta(2, 2.0, 2.0):.10f}   (pi/45  = {np.pi / 45:.10f})")
print()

print("=== densities integrate to one against dx/x ===")
p1 = ModelParams(1, 2.5, 4.0)
for law in (Law.WISHART, Law.INV_WISHART, Law.BETA2):

    def density(x):
        return float(density_wrt_mu(law, p1, np.array([[x]])))

    # The CDF table's total mass: its grid over [1e-2, 1e2] plus both tails.
    total = QuadratureCdf(density, 1e-2, 1e2).total_mass
    print(f"{law.value:>10s}: integral = {total:.8f}")
print()

print("=== the scalar transform phi ===")
# phi(s) is decreasing in s and finite for every s > 0
for s in (0.25, 1.0, 4.0, 16.0):
    print(f"phi(s={s:5.2f}) = {phi_d1(p1, s):.8f}")
