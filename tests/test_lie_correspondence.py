"""The Lie correspondence: each guardian representation rho is the
derivative, at the identity, of a group representation R, so
exp(t rho(A)) = R(e^{tA}) for every t.

add_k integrates to the multiplicative compound (Lambda^k) and L_p to the
upper Schlaflian (Sym^p); see Fulton & Harris, Representation Theory,
lectures 6 and 8.
"""

import numpy as np
import pytest

from matguard.compound import add_compound, mult_compound
from matguard.core import expm, maxabs
from matguard.schlaflian import lower_schlaflian, upper_schlaflian

TIMES = (0.3, 0.7, 1.5)


def assert_integrates(algebra, group, a, order):
    for t in TIMES:
        expected = group(expm(a, t), order)
        got = expm(algebra(a, order), t)
        assert maxabs(got - expected) <= 1e-10 * maxabs(expected), (order, t)


@pytest.mark.parametrize("n", range(1, 7))
def test_exp_of_additive_compound_is_multiplicative_compound(n):
    a = np.random.default_rng(30 + n).standard_normal((n, n))
    for k in range(1, n + 1):
        assert_integrates(add_compound, mult_compound, a, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_exp_of_lower_schlaflian_is_upper_schlaflian(n):
    a = np.random.default_rng(40 + n).standard_normal((n, n))
    for p in range(1, 5):
        assert_integrates(lower_schlaflian, upper_schlaflian, a, p)
