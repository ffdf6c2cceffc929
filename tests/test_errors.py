"""Typed errors on the library's guard paths, each with its message."""

import re

import numpy as np
import pytest

from posdefwalks import matcore, matdist, walks
from posdefwalks.errors import DomainError, NotPositiveDefinite
from posdefwalks.lyapunov import closed_form_mu
from posdefwalks.special import Law, ModelParams, density_wrt_mu, phi_d1
from posdefwalks.verify import check_my_markov_d1

_P1, _P2 = ModelParams(1, 2.0, 5.0), ModelParams(2, 2.0, 5.0)
_GRSK = walks.GrskState(1.0, 1.0, 1.0)

# id: (call, error type, its whole message)
_GUARDS = {
    "posdef-1d": (
        lambda: matcore.posdef(np.ones(3)), NotPositiveDefinite, "matrix must be square, got shape (3,)"
    ),
    "posdef-non-square": (
        lambda: matcore.posdef(np.ones((2, 3))), NotPositiveDefinite, "matrix must be square, got shape (2, 3)"
    ),
    "sqrt_factor-indefinite-3x3": (
        lambda: matcore.sqrt_factor(np.diag([1.0, -1.0, 1.0])),
        NotPositiveDefinite,
        "matrix has a nonpositive eigenvalue",
    ),
    "walk-steps=-1": (lambda: walks.WalkConfig(_P1, steps=-1), DomainError, "steps must be nonnegative"),
    "grsk_trajectory-unequal": (
        lambda: walks.grsk_trajectory(_GRSK, [1.0, 2.0], [1.0]),
        DomainError,
        "increment sequences must have equal length",
    ),
    "grsk_my_identity-n=0": (
        lambda: walks.grsk_my_identity_check(_GRSK, [1.0], [1.0], n=0),
        DomainError,
        "need 1 <= n <= len(increments), sequences of equal length",
    ),
    "params-dim=0": (lambda: ModelParams(0, 1, 2), DomainError, "dim must be a positive integer, got 0"),
    "phi-d=2": (lambda: phi_d1(_P2, 1.0), DomainError, "phi is evaluated at d=1 only"),
    "phi-alpha=0": (
        lambda: phi_d1(ModelParams(1, 0.0, 5.0), 1.0), DomainError, "phi requires alpha > 0, got alpha=0.0"
    ),
    "phi-alpha=-1": (
        lambda: phi_d1(ModelParams(1, -1.0, 5.0), np.array([0.5, 1.0])),
        DomainError,
        "phi requires alpha > 0, got alpha=-1.0",
    ),
    "phi-beta=0": (lambda: phi_d1(ModelParams(1, 2.0, 0.0), 1.0), DomainError, "phi requires beta > 0"),
    "phi-beta=-1": (lambda: phi_d1(ModelParams(1, 2.0, -1.0), 1.0), DomainError, "phi requires beta > 0"),
    "density-invbeta1": (
        lambda: density_wrt_mu(Law.INV_BETA1, _P1, np.full((1, 1), 0.5)),
        DomainError,
        "no closed-form density for law invbeta1",
    ),
    "closed_form_mu-beta1": (lambda: closed_form_mu(Law.BETA1, _P1), DomainError, "no closed form for law beta1"),
    "sample_factor-beta1": (
        lambda: matdist.sample_factor(Law.BETA1, _P1, matdist.make_stream(0), size=2),
        DomainError,
        "no triangular factor construction for law beta1",
    ),
    "my_markov-d=2": (
        lambda: check_my_markov_d1(_P2, 10, matdist.make_stream(0)),
        DomainError,
        "the Markov marginals check runs at d=1 only",
    ),
}


@pytest.mark.parametrize("call, error, message", _GUARDS.values(), ids=_GUARDS)
def test_guard_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
