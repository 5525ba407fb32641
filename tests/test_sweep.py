import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import matguard.sweep as sweep_module
from loop_reference import sweep_events_loop
from matguard.core import MAX_ENTRIES
from matguard.io import dumps_canonical
from matguard.representations import GuardianMapKind, guardian_evaluate
from matguard.sweep import ParamFamily, refine_crossing, sweep

ROT = ParamFamily(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
SHIFTED = ParamFamily(np.array([[-0.3, 1.0], [-1.0, -0.3]]), np.eye(2))


def member(family, theta):
    """A(theta), the one-member stack of ``ParamFamily.members``."""
    return family.members(np.array([float(theta)]))[0]


def located_events(result):
    return sorted(
        list(result.crossings) + list(result.touches), key=lambda c: c.theta
    )


def events(result):
    """The canonical bytes of a sweep's crossings and of its touches."""
    obj = result.to_obj()
    return dumps_canonical(obj["crossings"]), dumps_canonical(obj["touches"])


# ------------------------------------------------------------ ParamFamily


def test_family_evaluation_linear_and_quadratic():
    fam = ParamFamily(np.eye(2), 2.0 * np.eye(2), -np.eye(2))
    assert np.array_equal(member(fam, 3.0), (1 + 6 - 9) * np.eye(2))
    assert fam.n == 2


def test_family_validates_shapes():
    with pytest.raises(ValueError):
        ParamFamily(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        ParamFamily(np.eye(2), np.eye(2), np.eye(4))
    with pytest.raises(ValueError):
        ParamFamily(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ParamFamily(np.eye(2), None)


EYE2 = {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 1.0]]}


def test_family_json_round_trip():
    doc = {"n": 2, "base": EYE2, "dir1": {"rows": 2, "cols": 2, "data": [[0.0, 1.0], [2.0, 0.0]]},
           "dir2": None}
    back = ParamFamily.from_obj(json.loads(json.dumps(doc)))
    assert np.array_equal(back.base, np.eye(2))
    assert np.array_equal(back.dir1, np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert back.dir2 is None

    quad = {"n": 2, "base": EYE2, "dir1": EYE2,
            "dir2": {"rows": 2, "cols": 2, "data": [[3.0, 0.0], [0.0, 3.0]]}}
    back = ParamFamily.from_obj(json.loads(json.dumps(quad)))
    assert np.array_equal(back.dir2, 3.0 * np.eye(2))


def test_family_from_obj_rejects_bad_documents():
    from matguard.io import MatrixIOError

    good = {"n": 2, "base": EYE2, "dir1": EYE2, "dir2": None}
    with pytest.raises(MatrixIOError):
        ParamFamily.from_obj("nope")
    missing = dict(good)
    del missing["dir1"]
    with pytest.raises(MatrixIOError):
        ParamFamily.from_obj(missing)
    wrong_n = dict(good)
    wrong_n["n"] = 5
    with pytest.raises(MatrixIOError):
        ParamFamily.from_obj(wrong_n)
    for n in (2.0, True):  # 2.0 == 2, and bool is an int subclass
        with pytest.raises(MatrixIOError, match="family n must be an integer"):
            ParamFamily.from_obj(dict(good, n=n))


# ------------------------------------------------------------------ sweep


def test_rotation_family_single_event_all_kinds():
    for kind in GuardianMapKind:
        res = sweep(ROT, kind, -1.0, 1.0, 21, refine=True)
        events = located_events(res)
        assert len(events) == 1
        assert abs(events[0].theta) <= 1e-8


def test_rotation_family_kron_sees_double_root_as_touch():
    # f_kron(theta) = 16 theta^2 (theta^2+1)^2 touches zero without a sign
    # change, but events come from det(A) det(A^[2]) = 2 theta (theta^2+1): add2's.
    res = sweep(ROT, "kron", -1.0, 1.0, 21)
    assert events(res) == events(sweep(ROT, "add2", -1.0, 1.0, 21))
    assert res.touches == () and res.crossings[0].detection == "grid_zero"


def test_rotation_family_add2_grid_zero_is_crossing():
    res = sweep(ROT, "add2", -1.0, 1.0, 21)
    assert len(res.crossings) == 1
    assert res.crossings[0].detection == "grid_zero"
    assert res.crossings[0].theta == 0.0
    assert res.touches == ()


@pytest.mark.parametrize("kind", ["add2", "schlaflian", "bialt"])
def test_shifted_family_bisection(kind):
    # 20 samples put no grid point near 0.3, forcing a genuine bracket.
    res = sweep(SHIFTED, kind, -1.0, 1.0, 20, refine=True)
    assert len(res.crossings) == 1
    c = res.crossings[0]
    assert c.detection == "sign_change"
    assert c.refined
    assert abs(c.theta - 0.3) <= 1e-8
    assert c.lo <= c.theta <= c.hi


def test_unrefined_sweep_reports_bracket_midpoint(monkeypatch):
    calls = counted_zero_signs(monkeypatch)
    res = sweep(SHIFTED, "add2", -1.0, 1.0, 20, refine=False)
    (c,) = res.crossings
    assert not c.refined
    assert c.width == c.hi - c.lo
    assert c.lo < 0.3 < c.hi
    # across the float range the midpoint is 0.0 and hi - lo overflows
    wide = ParamFamily(np.array([[-1.0, 1.0], [-1.0, -1.0]]), np.eye(2))
    (c,) = sweep(wide, "add2", -1.7e308, 1.7e308, 2).crossings
    assert c.theta == 0.0 and c.width == math.inf
    assert '"width":null' in dumps_canonical(c.to_obj())
    assert calls == []  # the brackets are located without evaluating f


# Pairs theta +- i and 0.35 + theta +- 2i: the second crosses at -0.35,
# between grid points, and the first at the grid point 0.0.
MIXED = ParamFamily(
    np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0.35, 2], [0, 0, -2, 0.35]]),
    np.eye(4),
)


@pytest.mark.parametrize("kind", ["add2", "bialt", "schlaflian"])
def test_one_scan_reports_bracket_then_grid_zero(kind):
    res = sweep(MIXED, kind, -1.0, 1.0, 21, refine=True)
    first, second = res.crossings
    assert first.detection == "sign_change" and abs(first.theta + 0.35) <= 1e-8
    assert first.lo < first.theta < first.hi
    assert second.detection == "grid_zero" and second.theta == 0.0
    assert res.touches == ()


def test_one_scan_kron_sees_only_the_grid_touch():
    # f_kron >= 0, yet the crossing at -0.35 is bracketed by det(A) det(A^[2]).
    res = sweep(MIXED, "kron", -1.0, 1.0, 21, refine=True)
    assert events(res) == events(sweep(MIXED, "add2", -1.0, 1.0, 21, refine=True))
    assert [c.detection for c in res.crossings] == ["sign_change", "grid_zero"]


def test_zero_eigenvalue_crossing_needs_det_factor():
    # A(theta) = diag(theta, -1): g = theta - 1 stays nonzero at the
    # boundary crossing theta = 0; only f = det * g catches it.
    fam = ParamFamily(np.diag([0.0, -1.0]), np.diag([1.0, 0.0]))
    at_zero = guardian_evaluate("add2", member(fam, 0.0))
    assert at_zero.g_value.sign != 0
    assert at_zero.f_value.sign == 0
    res = sweep(fam, "add2", -1.0, 1.0, 21, refine=True)
    assert any(abs(c.theta) <= 1e-8 for c in res.crossings)


def test_constant_stable_family_has_no_events():
    fam = ParamFamily(-np.eye(2), np.zeros((2, 2)))
    res = sweep(fam, "kron", -1.0, 1.0, 11)
    assert res.crossings == () and res.touches == ()
    assert all(sign != 0 for sign in res.f_sign)
    assert all(alpha < 0 for alpha in res.max_re_lambda)


def test_sweep_columns_are_read_only():
    res = sweep(SHIFTED, "add2", -1.0, 1.0, 5)
    for column in sweep_module.COLUMNS:
        assert len(getattr(res, column)) == 5
        with pytest.raises(ValueError, match="read-only"):
            getattr(res, column)[0] = 0


@st.composite
def sign_sequences(draw):
    """Signs built from runs, each constant (so zeros sit side by side) or
    alternating between two drawn signs (-1, 1, -1 or 0, 1, 0, say)."""
    signs = []
    runs = st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
                     st.integers(1, 6), st.booleans())
    for first, second, length, alternating in draw(st.lists(runs, min_size=1, max_size=10)):
        signs += [second if alternating and k % 2 else first for k in range(length)]
    assume(len(signs) >= 2)
    return signs


@given(signs=sign_sequences(), chunk_entries=st.sampled_from([1, 3, sweep_module.CHUNK_ENTRIES]))
@example(signs=[0, 0, 1, 0, 1, 0, -1, 0, 0], chunk_entries=1)
@example(signs=[0, 1, -1, 1, -1, 0], chunk_entries=sweep_module.CHUNK_ENTRIES)
@example(signs=[-1, 0], chunk_entries=sweep_module.CHUNK_ENTRIES)
@settings(max_examples=200, deadline=None)
def test_events_from_the_sign_column_match_the_per_sample_scan(signs, chunk_entries):
    # A(theta) = [[theta]] on the grid 0, 1, ..., so each member is its sample's index
    def drawn_factors(kind, stack):
        s = np.array(signs)[stack[:, 0, 0].astype(int)]
        logs = np.where(s == 0, -np.inf, 0.0)
        return (s, logs), (s, logs), (s, logs), (np.ones_like(s), np.zeros(len(s)))

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sweep_module, "guardian_factor_stack", drawn_factors)
        monkeypatch.setattr(sweep_module, "CHUNK_ENTRIES", chunk_entries)
        res = sweep(ParamFamily([[0.0]], [[1.0]]), "add2", 0.0, len(signs) - 1.0,
                    len(signs), refine=False)
    assert res.theta.tolist() == list(range(len(signs)))
    assert res.f_sign.tolist() == signs

    def midpoint(lo, hi):  # an unrefined bracket's; its A is [[theta]]
        return 0.5 * lo + 0.5 * hi, hi - lo, 0.5 * lo + 0.5 * hi

    crossings, touches = sweep_events_loop(res.theta.tolist(), signs,
                                           res.max_re_lambda.tolist(), midpoint, False)
    assert res.crossings == tuple(crossings)
    assert res.touches == tuple(touches)


def test_sweep_sample_table_fields():
    res = sweep(ROT, "add2", -1.0, 1.0, 5)
    obj = res.to_obj()
    assert len(obj["samples"]) == 5
    assert list(obj["samples"][0]) == ["theta", "f_sign", "f_logmag", "max_re_lambda"]
    assert obj["kind"] == "add2"


def test_crossing_record_keys_follow_the_fields():
    (c,) = sweep(SHIFTED, "add2", -1.0, 1.0, 20).crossings
    assert list(c.to_obj()) == [
        "theta", "lo", "hi", "width", "detection", "refined", "max_re_lambda"
    ]


def test_sweep_validates_grid():
    with pytest.raises(ValueError):
        sweep(ROT, "add2", -1.0, 1.0, 1)
    with pytest.raises(ValueError):
        sweep(ROT, "add2", 1.0, -1.0, 10)
    with pytest.raises(ValueError):
        sweep(ROT, "add2", 0.0, 0.0, 10)


# A(-2) overflows: were the size guard to act only after a grid that starts
# at -2, the first chunk would refuse at once instead of sweeping the grid.
OVERFLOWING = ParamFamily(-np.eye(2), 1e308 * np.eye(2))


def test_sweep_size_guard_acts_before_the_grid_is_allocated():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="entry guard"):
            sweep(OVERFLOWING, "add2", -2.0, 1.0, MAX_ENTRIES + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the grid alone would take 200 MB


def test_sweep_refuses_an_overflowing_member_by_its_theta():
    with pytest.raises(ValueError, match=r"^family member A\(theta\) at theta=-2\.0 has"):
        sweep(OVERFLOWING, "add2", -2.0, 1.0, 5)
    quadratic = ParamFamily(-np.eye(2), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError, match=r"^family member A\(theta\) at theta=1e\+200 has"):
        sweep(quadratic, "add2", 1e200, 1e201, 3)


def test_quadratic_member_past_the_square_of_theta_stays_finite():
    # theta^2 overflows, yet theta^2 dir2 (or its absence) keeps A(theta) finite
    zero_dir2 = ParamFamily(-np.eye(2), 1e-200 * np.eye(2), np.zeros((2, 2)))
    assert len(sweep(zero_dir2, "add2", 1e199, 1e200, 3).theta) == 3
    tiny_dir2 = ParamFamily(-np.eye(2), np.zeros((2, 2)), 1e-300 * np.eye(2))
    res = sweep(tiny_dir2, "add2", 1e150, 1e155, 3)
    assert len(res.theta) == 3
    assert np.allclose(member(tiny_dir2, 1e155), 1e10 * np.eye(2) - np.eye(2), rtol=1e-14)


def test_sweep_validates_tol_without_a_bracket():
    # SHIFTED crosses at 0.3 only, so [-1, 0] has no bracket to refine
    assert sweep(SHIFTED, "add2", -1.0, 0.0, 5, refine=True).crossings == ()
    for tol in (float("nan"), -1.0, 0.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            sweep(SHIFTED, "add2", -1.0, 0.0, 5, refine=True, tol=tol)


# ------------------------------------------------------- refine_crossing


def test_refine_crossing_shifted_family():
    for kind in ["add2", "schlaflian", "bialt"]:
        star = refine_crossing(SHIFTED, kind, 0.1, 0.45, tol=1e-8)
        assert abs(star - 0.3) <= 1e-8


def test_refine_crossing_on_kron_bisects_det_a_times_det_alt():
    # f_kron >= 0 has the same sign at both ends; det(A) det(A^[2]) does not
    assert abs(refine_crossing(SHIFTED, "kron", 0.1, 0.45) - 0.3) <= 1e-8
    with pytest.raises(ValueError, match=r"det\(A\) det\(A\^\[2\]\) has the same sign"):
        refine_crossing(SHIFTED, "kron", -0.9, -0.5)


def test_refine_crossing_rotation_family():
    star = refine_crossing(ROT, "add2", -0.7, 0.9, tol=1e-8)
    assert abs(star) <= 1e-8


def test_refine_crossing_same_sign_bracket_errors():
    with pytest.raises(ValueError):
        refine_crossing(SHIFTED, "add2", -0.9, -0.5)


def test_refine_crossing_zero_endpoint_returned():
    assert refine_crossing(ROT, "add2", 0.0, 0.5) == 0.0
    assert refine_crossing(ROT, "add2", -0.5, 0.0) == 0.0


def test_refine_crossing_validates_bracket():
    with pytest.raises(ValueError):
        refine_crossing(ROT, "add2", 0.5, 0.5)
    with pytest.raises(ValueError):
        refine_crossing(ROT, "add2", 0.5, -0.5)
    with pytest.raises(ValueError):
        refine_crossing(ROT, "add2", -0.5, 0.5, tol=0.0)
    with pytest.raises(ValueError):
        refine_crossing(ROT, "add2", -0.5, 0.5, tol=float("nan"))


def test_refine_crossing_wide_bracket_lands_on_the_crossing():
    for end in (1e100, 1.7e308):  # at 1.7e308, hi - lo overflows to inf
        assert abs(refine_crossing(SHIFTED, "add2", -end, end) - 0.3) <= 1e-8
        (c,) = sweep(SHIFTED, "add2", -end, end, 2, refine=True).crossings
        assert abs(c.theta - 0.3) <= 1e-8
        assert abs(c.max_re_lambda) <= 1e-8


def test_refined_width_bounds_the_distance_to_the_crossing():
    # bisection ends on a midpoint that proves f = 0, about 3.6e-13 from 0.3
    (c,) = sweep(SHIFTED, "add2", 0.1, 0.45, 2, refine=True, tol=5e-324).crossings
    assert abs(c.theta - 0.3) <= c.width / 2


def counted_zero_signs(monkeypatch, zero_signs=sweep_module._zero_signs):
    """Record every theta whose sign det(A) det(A^[2]) the stacked sign seam evaluates."""
    calls = []
    monkeypatch.setattr(sweep_module, "_zero_signs",
                        lambda *args: calls.extend(args[2]) or zero_signs(*args))
    return calls


def test_refine_crossing_with_the_least_tol_ends_near_the_crossing(monkeypatch):
    calls = counted_zero_signs(monkeypatch)
    star = refine_crossing(SHIFTED, "add2", 0.1, 0.45, tol=5e-324)
    assert abs(star - 0.3) <= 1e-11
    assert len(calls) < 64  # a proved zero ends it, as with any tol below the zero band


def test_refine_crossing_ends_when_no_float_lies_between_the_ends(monkeypatch):
    # A sign that jumps at 0.3 and never reads zero: only the float grid ends bisection.
    # The ends are the grid's, so the fake keeps the real signs at 0.1 (-1) and 0.45 (+1).
    calls = counted_zero_signs(monkeypatch,
                            lambda family, kind, thetas: np.where(thetas < 0.3, -1, 1))
    star = refine_crossing(SHIFTED, "add2", 0.1, 0.45, tol=5e-324)
    assert math.nextafter(0.3, 0.0) <= star <= 0.3
    assert len(calls) < 64


def test_refine_crossing_bracket_whose_ends_sum_past_float_range():
    # Crosses at 1.5e308; lo + hi overflows, the midpoint must not.
    family = ParamFamily(np.array([[-1.5, 1.0], [-1.0, -1.5]]), 1e-308 * np.eye(2))
    star = refine_crossing(family, "add2", 1e308, 1.7e308)
    assert math.isclose(star, 1.5e308, rel_tol=1e-12)
    (c,) = sweep(family, "add2", 1e308, 1.7e308, 2).crossings  # the unrefined midpoint
    assert math.isclose(c.theta, 1.35e308, rel_tol=1e-15)


@st.composite
def crossing_pair_families(draw):
    """Q diag(blocks) Q^T + theta I: pair j is theta + c_j +- i w_j, crossing at -c_j."""
    count = draw(st.integers(2, 4))
    centres = draw(st.lists(st.floats(-0.95, 0.95), min_size=count, max_size=count))
    widths = draw(st.lists(st.floats(0.25, 3.0), min_size=count, max_size=count))
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                        .standard_normal((2 * count, 2 * count)))
    base = np.zeros((2 * count, 2 * count))
    for j, (c, w) in enumerate(zip(centres, widths)):
        base[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[c, w], [-w, c]]
    return ParamFamily(q @ base @ q.T, np.eye(2 * count))


@st.composite
def real_crossing_families(draw):
    """Q diag(c) Q^T + theta Q diag(r) Q^T: eigenvalue j is c_j + theta r_j, real,
    crossing at -c_j / r_j."""
    count = draw(st.integers(2, 5))
    centres = draw(st.lists(st.floats(-0.95, 0.95), min_size=count, max_size=count))
    rates = draw(st.lists(st.floats(0.5, 2.0), min_size=count, max_size=count))
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                        .standard_normal((count, count)))
    return ParamFamily(q @ np.diag(centres) @ q.T, q @ np.diag(rates) @ q.T)


@given(family=st.one_of(crossing_pair_families(), real_crossing_families()),
       samples=st.integers(2, 40), refine=st.booleans(),
       tol=st.sampled_from([1e-4, 1e-8, 5e-324]))
@settings(max_examples=40, deadline=None)
def test_every_kind_reports_the_same_events(family, samples, refine, tol):
    kinds = ["kron", "add2", "schlaflian", "bialt"]
    found = {events(sweep(family, kind, -1.0, 1.0, samples, refine=refine, tol=tol))
             for kind in kinds}
    assert len(found) == 1


def test_every_kind_finds_the_real_crossing_of_the_mirrored_family():
    # eigenvalues -1 + 20 theta, -2, -3: the real crossing at 0.05, then the
    # pairs (2, -2) at 0.15 and (3, -3) at 0.2, where det A^[2] vanishes inside
    # the unstable region
    family = ParamFamily(np.diag([-1.0, -2.0, -3.0]), np.diag([20.0, 0.0, 0.0]))
    for kind in GuardianMapKind:
        res = sweep(family, kind, 0.0, 0.31, 30, refine=True)
        assert any(abs(c.theta - 0.05) <= 1e-8 for c in res.crossings), kind


@given(family=crossing_pair_families(), samples=st.integers(10, 40), refine=st.booleans(),
       kind=st.sampled_from(["add2", "bialt", "schlaflian"]))
@settings(max_examples=40, deadline=None)
def test_crossings_come_out_in_theta_order(family, samples, refine, kind):
    res = sweep(family, kind, -1.0, 1.0, samples, refine=refine)
    thetas = [c.theta for c in res.crossings]
    assert thetas == sorted(thetas)
    assert all(c.lo <= c.theta <= c.hi for c in res.crossings)


@given(family=crossing_pair_families(), samples=st.integers(10, 40),
       kind=st.sampled_from(["add2", "bialt", "schlaflian"]),
       tol=st.sampled_from([1e-4, 1e-8, 5e-324]))
@settings(max_examples=40, deadline=None)
def test_refined_crossing_lies_within_half_its_width_of_a_known_crossing(
        family, samples, kind, tol):
    known = -np.linalg.eigvals(family.base).real  # -c_j, each twice
    res = sweep(family, kind, -1.0, 1.0, samples, refine=True, tol=tol)
    for c in res.crossings:
        if c.detection == "sign_change":
            # well below the ~1e-13 a zero-proving midpoint may miss by; width may
            # exceed tol when that midpoint ends bisection early
            assert np.abs(known - c.theta).min() <= c.width / 2 + 1e-14
            assert 0 < c.width <= c.hi - c.lo


def known_crossings(family):
    """The roots of det A and det A^[2] along a normal family: each eigenvalue
    c_j + theta r_j and each pair sum, from one basis that diagonalises both
    members (the eigenvectors of a generic combination of the two)."""
    base, dir1 = family.base, family.dir1
    _, q = np.linalg.eig(base + 0.5772156649 * dir1)
    c = np.diag(np.linalg.solve(q, base @ q))
    r = np.diag(np.linalg.solve(q, dir1 @ q))
    i, j = np.triu_indices(len(c), 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a root at infinity
        roots = np.r_[-c / r, -(c[i] + c[j]) / (r[i] + r[j])]
    return roots[(abs(roots.imag) <= 1e-12) & np.isfinite(roots)].real


def counted_rounds(monkeypatch):
    """Record the number of thetas of every call to the stacked sign seam."""
    rounds = []
    zero_signs = sweep_module._zero_signs
    monkeypatch.setattr(sweep_module, "_zero_signs",
                        lambda *args: rounds.append(len(args[2])) or zero_signs(*args))
    return rounds


@given(family=st.one_of(crossing_pair_families(), real_crossing_families()),
       samples=st.integers(2, 40), kind=st.sampled_from(["kron", "add2", "schlaflian", "bialt"]),
       tol=st.sampled_from([1e-4, 1e-8]))
@settings(max_examples=60, deadline=None)
def test_refined_sweep_proves_every_crossing_in_one_round(family, samples, kind, tol):
    known = known_crossings(family)
    # A root within ~1e-7 of a grid point leaves the pencil shifted there too ill
    # conditioned to propose a root of its bracket within tol/4 (within ~1e-308
    # the solve overflows): that bracket is bisected, as the other properties check.
    grid = 2 * np.linspace(-0.5, 0.5, samples)
    assume(not known.size or np.abs(known[:, None] - grid).min() > 1e-6)
    with pytest.MonkeyPatch.context() as monkeypatch:
        rounds = counted_rounds(monkeypatch)  # the grid has its own path
        res = sweep(family, kind, -1.0, 1.0, samples, refine=True, tol=tol)
    brackets = [c for c in res.crossings if c.detection == "sign_change"]
    assert len(rounds) == (1 if brackets else 0)
    for c in brackets:
        assert np.abs(known - c.theta).min() <= c.width / 2 + 1e-14
        assert 0 < c.width <= tol


def test_quadratic_family_refines_through_the_companion_pencil(monkeypatch):
    # Q (D0 + theta^2 I) Q^T: eigenvalue j is c_j + theta^2, crossing at
    # +-sqrt(-c_j), and pair (i, j) sums to zero at +-sqrt(-(c_i + c_j) / 2)
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    c = np.array([-0.04, -0.09, -0.25, -0.64])
    family = ParamFamily(q @ np.diag(c) @ q.T, np.zeros((4, 4)), np.eye(4))
    i, j = np.triu_indices(4, 1)
    known = np.sqrt(np.r_[-c, -(c[i] + c[j]) / 2])
    known = np.r_[-known, known]
    sizes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: sizes.append(m.shape[-1]) or eigvals(m))
    rounds = counted_rounds(monkeypatch)
    res = sweep(family, "add2", -1.0, 1.0, 200, refine=True)
    assert {8, 12} <= set(sizes)  # the 2n and 2 C(n, 2) companions of det A and det A^[2]
    assert len(rounds) == 1
    assert len(res.crossings) == len(known) == 20
    for c in res.crossings:
        assert c.detection == "sign_change"
        assert np.abs(known - c.theta).min() <= c.width / 2 + 1e-14
        assert 0 < c.width <= 1e-8


def test_sweep_module_is_not_shadowed():
    import matguard.sweep as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.sweep)


def test_sweep_solves_one_eigenproblem_per_sample_and_none_per_bisection_step(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or eigvals(m))
    for tol in (1e-8, 5e-324):  # at 5e-324 the bracket is bisected after the pencil
        calls.clear()
        res = sweep(MIXED, "add2", -1.0, 1.0, 21, refine=True, tol=tol)
        eigenproblems = sum(len(m) for m in calls)  # members of each stacked call
        # the grid, the bracket's pencils of det A and det A^[2], the crossing's abscissa
        assert eigenproblems == 21 + 2 + 1
    monkeypatch.undo()
    # the grid's f is the one-matrix guardian's
    for theta, sign, logmag in zip(res.theta, res.f_sign, res.f_logmag):
        f = guardian_evaluate("add2", member(MIXED, theta)).f_value
        assert (sign, logmag) == (f.sign, f.log_magnitude)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@given(family=crossing_pair_families(), samples=st.integers(2, 40),
       kind=st.sampled_from(["kron", "add2", "schlaflian", "bialt"]),
       chunk_entries=st.sampled_from([1, 100, sweep_module.CHUNK_ENTRIES]))
@settings(max_examples=40, deadline=None)
def test_sweep_samples_match_the_one_matrix_evaluation_bit_for_bit(
        family, samples, kind, chunk_entries):
    with pytest.MonkeyPatch.context() as monkeypatch:  # chunk seams of every size
        monkeypatch.setattr(sweep_module, "CHUNK_ENTRIES", chunk_entries)
        res = sweep(family, kind, -1.0, 1.0, samples)
    for theta, sign, logmag, alpha in zip(res.theta, res.f_sign, res.f_logmag,
                                          res.max_re_lambda):
        a = member(family, theta)
        f = guardian_evaluate(kind, a).f_value
        assert sign == f.sign
        assert bits(logmag) == bits(f.log_magnitude)
        assert bits(alpha) == bits(np.linalg.eigvals(a).real.max())


@given(family=crossing_pair_families(), samples=st.integers(10, 40),
       kind=st.sampled_from(["add2", "bialt", "schlaflian"]),
       tol=st.sampled_from([1e-4, 1e-8, 5e-324]))
@settings(max_examples=25, deadline=None)
def test_lockstep_bisection_matches_refine_crossing_alone(family, samples, kind, tol):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = counted_zero_signs(monkeypatch)
        res = sweep(family, kind, -1.0, 1.0, samples, refine=True, tol=tol)
        together = list(calls)  # every midpoint of every round; the grid has its own path
        brackets = [c for c in res.crossings if c.detection == "sign_change"]
        for c in brackets:
            calls.clear()
            assert refine_crossing(family, kind, c.lo, c.hi, tol) == c.theta
            # the ends are its grid, so the sign seam sees only the same midpoints
            assert calls == [t for t in together if c.lo < t < c.hi]
    assert sum(c.lo < t < c.hi for c in brackets for t in together) == len(together)


@given(lo=st.floats(-1e300, 1e300), hi=st.floats(-1e300, 1e300), samples=st.integers(2, 300))
@settings(max_examples=60, deadline=None)
def test_grid_from_halves_keeps_every_linspace_byte(lo, hi, samples):
    assume(lo < hi and all(x == 0 or abs(x) > 1e-290 for x in (lo, hi)))
    res = sweep(ParamFamily([[-1.0]], [[0.0]]), "kron", lo, hi, samples)
    assert res.theta.tobytes() == np.linspace(lo, hi, samples).tobytes()


@pytest.mark.parametrize("kind", ["kron", "schlaflian"])
def test_sweep_peak_memory_stays_within_the_chunk_budget(kind):
    # unchunked, the 200-sample A^[2] stack and its gather peak at 2.5 MB
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    family = ParamFamily(q @ np.diag(np.linspace(-0.9, 0.6, 8)) @ q.T + 0.1 * np.eye(8),
                         np.eye(8))
    sweep(family, kind, -1.0, 1.0, 200, refine=True)  # warm the index tables and probes
    tracemalloc.start()
    try:
        sweep(family, kind, -1.0, 1.0, 200, refine=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
