"""Stacked routines against their one-matrix calls, bit for bit.

``core.expm`` and ``ode.matrix_ode_rk4`` take stacks; a member of a larger
stack must come out exactly as it does alone, whatever the rest of the
stack, its squaring count or its memory layout.  The rho builders,
``apply_rho``, ``contragradient``, ``lie_bracket``, ``mult_compound``, the
ODE integrators and the ODE checks take a stack (..., rows, cols) and
return the stack of their one-matrix results, bytes included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matguard.compound as compound
import matguard.core as core
import matguard.ode as ode
from matguard.bialternate import bialternate_sum_self
from matguard.compound import add_compound, mult_compound
from matguard.core import THETA_13, expm, is_hurwitz, norm1
from matguard.kron import kron_sum_self
from matguard.ode import (
    check_skew_basis_columns,
    check_skew_reduction,
    check_symmetric_reduction,
    matrix_ode_closed_form,
    matrix_ode_rk4,
    skew_basis_element,
)
from matguard.representations import (
    GuardianMapKind,
    apply_rho,
    contragradient,
    guardian_evaluate,
    lie_bracket,
)
from matguard.schlaflian import lower_schlaflian


def squarings(a, t):
    norm = norm1(a) * abs(t)
    return math.ceil(math.log2(norm / THETA_13)) if norm > THETA_13 else 0


def assert_members_equal_expm(stack, times):
    out = expm(stack[:, None], times)
    assert out.shape == (len(stack), len(times), *stack.shape[1:]) and out.flags.c_contiguous
    for member, row in zip(stack, out):
        for t, got in zip(times, row):
            assert np.array_equal(got, expm(member, t))


def test_expm_stack_with_mixed_squaring_counts_and_a_diagonal_member():
    rng = np.random.default_rng(7)
    scales = np.array([0.01, 1.0, 10.0, 100.0, 3.0, 1.0])
    stack = rng.standard_normal((6, 5, 5)) * scales[:, None, None]
    stack[4] = np.diag(np.diagonal(stack[4]))
    times = np.array([0.3, 1.5, -2.0])
    counts = {squarings(a, t) for a in stack for t in times}
    assert len(counts) >= 6, counts
    assert_members_equal_expm(stack, times)


def test_expm_stack_of_an_f_ordered_compound_stack():
    # add_compound of a stack returns a view that is not C-contiguous; its rows
    # fed to @ as they are would take another BLAS path than a C-ordered copy.
    rng = np.random.default_rng(8)
    stack = add_compound(rng.standard_normal((9, 6, 6)), 2)
    assert not stack.flags.c_contiguous
    assert_members_equal_expm(stack, np.array([0.3, 0.7, 1.5]))


def test_expm_stack_member_does_not_depend_on_its_neighbours():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((4, 3, 3))
    times = np.array([0.8])
    alone = expm(stack[2:3, None], times)[0, 0]
    for other in (stack, stack[::-1].copy(), np.concatenate([stack, 50 * stack])):
        index = next(i for i, m in enumerate(other) if np.array_equal(m, stack[2]))
        assert np.array_equal(expm(other[:, None], times)[index, 0], alone)
        assert np.array_equal(expm(other[:, None], np.array([5.0, 0.8, 0.0]))[index, 1], alone)


def test_expm_past_float_range_reads_inf_without_a_warning():
    # max Re(lambda) t = 1200 > log(float max), for a full and a diagonal member
    stack = np.array([[[300.0, 1.0], [0.0, -300.0]], [[300.0, 0.0], [0.0, -1.0]]])
    times = np.array([4.0, 0.5])
    assert_members_equal_expm(stack, times)
    out = expm(stack[:, None], times)
    assert np.isinf(out[:, 0]).any(axis=(1, 2)).all() and np.isfinite(out[:, 1]).all()


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1),
       st.sampled_from([1, 30, core.CHUNK_ENTRIES]))
@settings(max_examples=40, deadline=None)
def test_expm_stack_members_equal_their_single_calls(count, n, seed, chunk_entries):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, n, n)) * 10.0 ** rng.uniform(-3, 2, (count, 1, 1))
    diagonal = rng.random(count) < 0.3
    stack[diagonal] *= np.eye(n)
    times = rng.choice([0.0, 0.3, -0.7, 1.5, 4.0], int(rng.integers(1, 4)))
    with pytest.MonkeyPatch.context() as monkeypatch:  # groups split at every size
        monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk_entries)
        assert_members_equal_expm(stack, times)


def assert_members_equal_rk4(a, x, t_end, steps):
    out = matrix_ode_rk4(a, x, t_end, steps)
    for a_i, x_i, got in zip(a, x, out):
        assert np.array_equal(got, matrix_ode_rk4(a_i, x_i, t_end, steps))


def test_rk4_stack_members_equal_their_single_calls():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((5, 4, 4)) / 4.0
    x = rng.standard_normal((5, 4, 4))
    assert_members_equal_rk4(a, x, 1.0, 64)
    halves = np.concatenate([x + x.swapaxes(1, 2), x - x.swapaxes(1, 2)])
    assert_members_equal_rk4(np.concatenate([a, a]), halves, 0.7, 9)


def test_rk4_stack_of_an_f_ordered_compound_stack():
    rng = np.random.default_rng(11)
    a = add_compound(rng.standard_normal((6, 5, 5)) / 5.0, 2)
    x = add_compound(rng.standard_normal((6, 5, 5)), 2)
    assert not a.flags.c_contiguous and not x.flags.c_contiguous
    assert_members_equal_rk4(a, x, 1.0, 16)


@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 12), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_rk4_stack_property(count, n, steps, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, n, n))
    x = rng.standard_normal((count, n, n))
    assert_members_equal_rk4(a, x, float(rng.uniform(-1.0, 2.0)), steps)


# ------------------------------------------- rho builders on stacks

def signed_zero_stack(rng, lead, n):
    """A stack lead + (n, n) of normals with exact 0.0 and -0.0 entries."""
    stack = rng.standard_normal((*lead, n, n))
    cells = rng.random(stack.shape)
    stack[cells < 0.25] = 0.0
    stack[(cells >= 0.25) & (cells < 0.5)] = -0.0
    return stack


def builders(n):
    """(name, f) of every one-argument stack builder valid at n."""
    out = [("kron", kron_sum_self)]
    out += [(f"add{k}", lambda a, k=k: add_compound(a, k)) for k in range(1, n + 1)]
    out += [(f"schlaflian{p}", lambda a, p=p: lower_schlaflian(a, p)) for p in (1, 2, 3)]
    kinds = [kind for kind in GuardianMapKind
             if n >= 2 or kind in (GuardianMapKind.KRONECKER_SUM,
                                   GuardianMapKind.LOWER_SCHLAFLIAN_2)]
    out += [(f"rho_{kind.value}", lambda a, kind=kind: apply_rho(kind, a)) for kind in kinds]
    out += [(f"contra_{kind.value}", lambda a, kind=kind: contragradient(kind, a))
            for kind in kinds]
    if n >= 2:
        out.append(("bialt", bialternate_sum_self))
    return out


def assert_stack_is_its_members(name, f, *stacks):
    out = f(*stacks)
    members = [s.reshape(-1, *s.shape[-2:]) for s in stacks]
    expected = np.array([f(*ms) for ms in zip(*members)])
    assert out.shape == stacks[0].shape[:-2] + expected.shape[1:], name
    assert out.tobytes() == expected.reshape(out.shape).tobytes(), name


@given(st.lists(st.integers(1, 5), min_size=1, max_size=2), st.integers(1, 7),
       st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_rho_builders_of_a_stack_are_their_members_byte_for_byte(lead, n, seed):
    rng = np.random.default_rng(seed)
    stack = signed_zero_stack(rng, lead, n)
    for name, f in builders(n):
        assert_stack_is_its_members(name, f, stack)
    assert_stack_is_its_members("bracket", lie_bracket, stack, signed_zero_stack(rng, lead, n))


def test_builders_of_one_matrix_keep_their_2d_shape():
    a = signed_zero_stack(np.random.default_rng(3), (), 4)
    for name, f in builders(4):
        assert f(a).ndim == 2, name
    assert lie_bracket(a, a.T).ndim == 2


@pytest.mark.parametrize("name", [name for name, _ in builders(3)] + ["bracket"])
def test_a_stack_with_one_non_finite_member_is_refused(name):
    stack = np.random.default_rng(4).standard_normal((3, 3, 3))
    stack[1, 2, 0] = np.nan
    f = dict(builders(3)).get(name, lambda a: lie_bracket(a, np.zeros_like(a)))
    with pytest.raises(ValueError, match="a contains non-finite entries"):
        f(stack)


@pytest.mark.parametrize("name", [name for name, _ in builders(3)] + ["bracket"])
def test_a_non_square_stack_is_refused(name):
    stack = np.zeros((2, 3, 4))
    f = dict(builders(3)).get(name, lambda a: lie_bracket(a, a))
    with pytest.raises(ValueError, match="must be square"):
        f(stack)


@pytest.mark.parametrize("f", [lambda a: guardian_evaluate("add2", a), is_hurwitz])
def test_one_matrix_callers_refuse_a_stack(f):
    with pytest.raises(ValueError, match="must be 2-dimensional"):
        f(np.zeros((2, 2, 2)))


# ------------------------------- expm, the ODE and mult_compound on stacks

TIMES = [0.0, 0.3, -0.7, 1.5]


def assert_bytes(name, out, members, lead):
    """``out`` is the stack ``lead`` of the one-matrix results ``members``."""
    expected = np.array(members)
    expected = expected.reshape(*lead, *expected.shape[1:])
    assert out.shape == expected.shape, name
    assert out.tobytes() == expected.tobytes(), name


@given(st.lists(st.integers(1, 4), min_size=1, max_size=2), st.integers(1, 5),
       st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_expm_and_the_ode_of_a_stack_are_their_members_byte_for_byte(lead, n, seed):
    rng = np.random.default_rng(seed)
    a, x = signed_zero_stack(rng, lead, n), signed_zero_stack(rng, lead, n)
    t = float(rng.choice(TIMES))
    t_lead = rng.choice(TIMES, lead)
    times = rng.choice(TIMES, int(rng.integers(1, 4)))
    flat = list(zip(a.reshape(-1, n, n), x.reshape(-1, n, n), t_lead.ravel()))
    each_time = (..., None, slice(None), slice(None))  # every member at every time

    def mirror(y):
        return y.swapaxes(-1, -2)

    checks = [("expm", lambda m, _, t: expm(m, t)),
              ("closed_form", matrix_ode_closed_form),
              ("symmetric", lambda m, y, t: check_symmetric_reduction(m, y + mirror(y), t))]
    if n >= 2:
        checks.append(("skew", lambda m, y, t: check_skew_reduction(m, y - mirror(y), t)))
    for name, f in checks:
        assert_bytes(name, f(a, x, t), [f(m, y, t) for m, y, _ in flat], lead)
        assert_bytes(name, f(a, x, t_lead), [f(m, y, s) for m, y, s in flat], lead)
        assert_bytes(name, f(a[each_time], x[each_time], times),
                     [[f(m, y, s) for s in times] for m, y, _ in flat], lead)
    steps = int(rng.integers(1, 5))
    assert_bytes("rk4", matrix_ode_rk4(a, x, t, steps),
                 [matrix_ode_rk4(m, y, t, steps) for m, y, _ in flat], lead)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(2, 6),
       st.integers(0, 2**31 - 1), st.sampled_from([1, 300, core.CHUNK_ENTRIES]))
@settings(max_examples=30, deadline=None)
def test_skew_basis_columns_of_a_stack_are_its_one_pair_calls(lead, n, seed, chunk_entries):
    rng = np.random.default_rng(seed)
    a = signed_zero_stack(rng, lead, n)
    i, j = np.add(np.triu_indices(n, 1), 1)[:, rng.permutation(n * (n - 1) // 2)]
    members = a.reshape(-1, n, n)
    with pytest.MonkeyPatch.context() as monkeypatch:  # pairs split into runs at every size
        monkeypatch.setattr(ode, "CHUNK_ENTRIES", chunk_entries)
        assert_bytes("pairs", check_skew_basis_columns(a, i, j),
                     [[check_skew_basis_columns(m, p, q) for p, q in zip(i, j)]
                      for m in members], lead)
        assert_bytes("one pair", check_skew_basis_columns(a, i[0], j[0]),
                     [check_skew_basis_columns(m, i[0], j[0]) for m in members], lead)
    assert_bytes("basis", skew_basis_element(n, i, j),
                 [skew_basis_element(n, p, q) for p, q in zip(i, j)], [len(i)])


@given(st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(1, 7),
       st.integers(1, 7), st.integers(0, 2**31 - 1), st.sampled_from([1, 60, 1 << 18]))
@settings(max_examples=40, deadline=None)
def test_mult_compound_of_a_stack_is_its_members_byte_for_byte(lead, rows, cols, seed,
                                                               stack_entries):
    rng = np.random.default_rng(seed)
    a = signed_zero_stack(rng, lead, max(rows, cols))[..., :rows, :cols]
    with pytest.MonkeyPatch.context() as monkeypatch:  # blocks split at every size
        monkeypatch.setattr(compound, "_STACK_ENTRIES", stack_entries)
        for k in range(1, min(rows, cols) + 1):
            assert_stack_is_its_members(f"k={k}", lambda m, k=k: mult_compound(m, k), a)


@pytest.mark.parametrize("shape", [(5, 7), (7, 5), (6, 6)])
def test_mult_compound_of_a_stack_at_every_k_on_tall_and_wide_shapes(shape):
    a = signed_zero_stack(np.random.default_rng(12), (2, 3), max(shape))[..., :shape[0], :shape[1]]
    for k in range(1, min(shape) + 1):  # k >= 4 takes the LAPACK path
        assert_stack_is_its_members(f"k={k}", lambda m, k=k: mult_compound(m, k), a)


def test_one_matrix_checks_at_a_scalar_time_or_one_pair_return_floats():
    rng = np.random.default_rng(13)
    a, x = rng.standard_normal((2, 3, 3))
    for residual in (check_symmetric_reduction(a, x + x.T, 0.3),
                     check_skew_reduction(a, x - x.T, 0.3),
                     check_skew_basis_columns(a, 1, 3)):
        assert type(residual) is float


def test_times_that_do_not_broadcast_or_are_not_finite_are_refused():
    a = np.zeros((2, 3, 3))
    for f in (expm, lambda a, t: matrix_ode_closed_form(a, a, t),
              lambda a, t: check_symmetric_reduction(a, a, t)):
        with pytest.raises(ValueError, match="broadcast"):
            f(a, np.zeros(3))
        with pytest.raises(ValueError, match="t must be finite"):
            f(a, np.array([0.5, np.nan]))


@pytest.mark.parametrize("i, j", [(2, 2), (0, 2), (2, 4), ([1, 3], [2, 3]),
                                  ([[1]], [[2]]), ([1, 2], [3]), ([], []), (1.5, 2),
                                  (1, 2.0), ([1.0, 2.0], [2.0, 3.0]),
                                  (np.array([1]), np.array([2.0])), (True, 2), (1, True)])
def test_invalid_pairs_are_refused(i, j):
    with pytest.raises(ValueError, match="need 1 <= i < j <= n"):
        check_skew_basis_columns(np.zeros((2, 3, 3)), i, j)
    with pytest.raises(ValueError, match="need 1 <= i < j <= n"):
        skew_basis_element(3, i, j)


def test_mult_compound_refuses_a_stack_with_one_non_finite_member():
    stack = np.random.default_rng(14).standard_normal((3, 4, 3))
    stack[1, 3, 0] = np.nan
    with pytest.raises(ValueError, match="a contains non-finite entries"):
        mult_compound(stack, 2)
