"""Independent oracle computations used to freeze expected values in the tests.

Everything here is deliberately written without importing the package under
test. Values derived from these oracles are frozen as literals in the test
modules; each oracle also self-checks against a second independent route
(hand algebra, mpmath, or plain quadrature) so that a bug in an oracle cannot
silently agree with a bug in the library.
"""

import math

import numpy as np
from scipy import integrate

# ---------------------------------------------------------------------------
# Digamma via recurrence shift plus asymptotic (Bernoulli) series.
# Coefficients are B_{2n}/(2n) for n = 1..7.

_BERN = [
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
]


def digamma_series(x):
    """psi(x) for x > 0, abs error well below 1e-13 after shifting to x >= 12."""
    if x <= 0:
        raise ValueError("x must be positive")
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for c in _BERN:
        series += c * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - series * (x * x) * inv2


# Frozen high-precision references (mpmath at 30 digits, computed once):
#   psi(1)   = -0.577215664901532860606512090082
#   psi(2)   =  0.422784335098467139393487909918
#   psi(1/2) = -1.963510026021423479440976333
PSI_1 = -0.5772156649015329
PSI_2 = 0.4227843350984671
PSI_HALF = -1.9635100260214235


def hand_cholesky_2x2(x):
    """Solve u^T u = x for upper triangular u with positive diagonal, d=2.

    u11 = sqrt(x11); u12 = x12/u11; u22 = sqrt(x22 - u12^2).
    """
    u11 = math.sqrt(x[0][0])
    u12 = x[0][1] / u11
    u22 = math.sqrt(x[1][1] - u12 * u12)
    return [[u11, u12], [0.0, u22]]


def beta_integral(a, b):
    """B(a, b) by direct quadrature of the Euler integral on (0, 1)."""
    val, err = integrate.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0, 1)
    assert err < 1e-12
    return val


def mu_integral(fn, epsabs=1e-10, epsrel=1e-8):
    """int_0^inf fn(x) dx/x by adaptive quadrature in t = log x over [-60, 60].

    The integrands of the tests decay at least like x^(+-1/2), so the mass
    outside the window is below 1e-13 of the total.
    """
    val, err = integrate.quad(
        lambda t: fn(math.exp(t)), -60.0, 60.0, epsabs=epsabs, epsrel=epsrel, limit=2000,
        full_output=1,
    )[:2]
    assert err <= 10.0 * max(epsabs, epsrel * abs(val))
    return val


def gamma_cdf_quadrature(shape, xs):
    """CDF of the unit-scale gamma law by quadrature of its density."""
    xs = np.atleast_1d(xs)
    out = []
    for x in xs:
        val, _ = integrate.quad(
            lambda t: t ** (shape - 1) * math.exp(-t) / math.gamma(shape), 0, x
        )
        out.append(val)
    return np.array(out)


def inv_gamma_mean(nu):
    """Mean of the inverse of a unit-scale gamma(nu) variable, nu > 1."""
    return 1.0 / (nu - 1.0)


def grsk_hand_step(x, y, z, a, b):
    """One two-row update evaluated directly from its defining formulas."""
    xn = x * b
    yn = (y + xn) * a
    zn = z / x * (xn * y) / (xn + y)
    return xn, yn, zn


def ks_critical_two_sample(n1, n2, p=1e-3):
    """Asymptotic two-sided critical KS distance at tail probability p."""
    from scipy.special import kolmogi

    en = math.sqrt(n1 * n2 / (n1 + n2))
    return kolmogi(p) / en


# ---------------------------------------------------------------------------
# The d=1 eigenfunction phi(s) = int_0^inf x^(alpha-beta) (1+sx)^(-alpha)
# e^(-1/x) dx/x. Frozen at 30 digits by mpmath (dps=45): adaptive quad of the
# equivalent y = 1/x form, agreeing with Gamma(beta) s^(beta-alpha)
# U(beta, beta-alpha+1, s) to 1e-40 at the integer parameters (where
# scipy.special.hyperu returns NaN for small s) and to 1e-24 at (0.6, 0.55),
# where the mass of y^(beta-1) near y = 0 matters for small s.
PHI_S = (1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6)
PHI_MP = {
    (2.0, 5.0): (
        1.999999999998000000000003,
        1.99999800000299994804675023623,
        1.99800297564216584462772260398,
        1.01826318838402962829460750315,
        0.0000237621400394478065152877282216,
        2.39997600021599798402015978227e-11,
    ),
    (3.0, 4.0): (
        0.999999999921338583646754131124,
        0.999962785033390970976381820498,
        0.983467860997875524442293153204,
        0.1237421448992385167829897541,
        0.00000000592871287476331177351521230939,
        5.99992800071999280007559915329e-18,
    ),
    (0.6, 0.55): (
        63.4894955589020213151992206359,
        21.5300956134051676175658491017,
        9.22281942329882848704776882397,
        1.3309441685588948845187964778,
        0.025605401406604864322703456893,
        0.000405951928262506552239719548293,
    ),
}


# phi where beta <= alpha and s is far below e^-60, so that its mass lies near
# y = s, under the engine's grid. Frozen at 30 digits by mpmath (dps=80):
# quad of the y-form in t = log y over [log s - 200/beta, 7] plus its closed
# form below, agreeing with the Gamma(beta) s^(beta-alpha) U form to 1e-80.
PHI_TINY_S = {
    (2.0, 1.0, 1e-30): 999999999999999999999999999931.0,
    (2.0, 1.0, 1e-26): 99999999999999999999999940.7100,
    (2.0, 2.0, 1e-40): 90.5261880548602945001131460973,
    (0.6, 0.55, 1e-40): 2092.33367644082228110608373819,
    # phi = 1/s - e^s E1(s) at (2, 1), by mpmath at the double s (dps=80).
    (2.0, 1.0, 1e-170): 1.00000000000000001665450095114e170,
    (2.0, 1.0, 1e-300): 9.99999999999999974940908164791e299,
}


def phi_quad(alpha, beta, s):
    """phi(s) by adaptive quadrature of its defining x-form in v = log x."""

    def integrand(v):
        return math.exp((alpha - beta) * v - alpha * math.log1p(s * math.exp(v)) - math.exp(-v))

    # The integrand dies like exp(-e^-v) on the left and like e^(-beta v) on
    # the right; v = log(1/s) marks where (1+sx) turns on.
    pts = sorted({-3.0, 0.0, 3.0, -math.log(s)})
    val, err = integrate.quad(integrand, -6.0, 80.0, points=pts, epsabs=0.0, epsrel=1e-12, limit=400)
    assert err < 1e-11 * val
    return val


def eigen_lhs_nested(alpha, beta, s):
    """int Q(s; t) phi(t) dt/t by nested adaptive quadrature, t = e^u.

    Q(s; t) = (t/s)^alpha (1 + t/s)^-(alpha+beta) e^-t / B(alpha, beta); by the
    f = 1 eigenfunction identity the result equals phi(s).
    """
    log_b = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)

    def outer(u):
        ratio = math.exp(u) / s
        q = math.exp(alpha * math.log(ratio) - (alpha + beta) * math.log1p(ratio) - math.exp(u) - log_b)
        return q * phi_quad(alpha, beta, math.exp(u)) if q > 0.0 else 0.0

    lo, hi = math.log(s) - 40.0, math.log(s) + 6.0
    val, err = integrate.quad(outer, lo, hi, points=[math.log(s)], epsabs=0.0, epsrel=1e-11, limit=200)
    assert err < 1e-10 * val
    return val
