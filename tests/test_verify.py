import json
import tracemalloc

import pytest

import loop_reference
from matguard.verify import SUITES, run_suite


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_each_suite_passes(suite):
    summary = run_suite(suite, 3, 3, 123)
    assert summary["pass"] is True
    assert summary["failures"] == []
    assert summary["suite"] == suite
    assert summary["n"] == 3 and summary["trials"] == 3 and summary["seed"] == 123
    for prop in summary["properties"]:
        assert prop["pass"] is True
        assert prop["max_residual"] <= prop["tolerance"]
        assert prop["trials"] >= 1


def test_all_suite_aggregates():
    summary = run_suite("all", 3, 2, 7)
    names = [part["suite"] for part in summary["suites"]]
    assert names == ["prop4", "cauchy-binet", "brackets", "ode", "lemma1"]
    assert summary["pass"] is True


def test_suites_are_deterministic():
    a = run_suite("all", 3, 2, 99)
    b = run_suite("all", 3, 2, 99)
    assert a == b


def test_different_seeds_differ():
    a = run_suite("cauchy-binet", 4, 3, 1)
    b = run_suite("cauchy-binet", 4, 3, 2)
    assert a != b


def test_run_suite_validates_arguments():
    with pytest.raises(ValueError):
        run_suite("nope", 3, 3, 0)
    with pytest.raises(ValueError):
        run_suite("prop4", 1, 3, 0)
    with pytest.raises(ValueError):
        run_suite("prop4", 3, 0, 0)
    with pytest.raises(ValueError):
        run_suite("prop4", 3, 3, -1)


def test_violation_is_reported_with_instance(monkeypatch):
    # Corrupt the bialternate construction and expect the prop4 suite to
    # fail, carrying the trial index of the offending instance.
    import matguard.bialternate as bmod

    original = bmod.bialternate_sum_self

    def corrupted(a):
        out = original(a)
        out[0, 0] += 1e-6
        return out

    monkeypatch.setattr(bmod, "bialternate_sum_self", corrupted)
    summary = run_suite("prop4", 3, 4, 5)
    assert summary["pass"] is False
    assert summary["failures"]
    first = summary["failures"][0]
    assert first["property"] == "bialt_matches_add2_float"
    assert first["residual"] > first["tolerance"]
    assert "trial" in first


# ------------------------------------- stacked suites against the loops

LOOP_SUITES = {
    "brackets": loop_reference._suite_brackets,
    "ode": loop_reference._suite_ode,
    "lemma1": loop_reference._suite_skew_basis,
}


@pytest.mark.parametrize("suite", sorted(LOOP_SUITES))
@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("trials", [1, 20])
@pytest.mark.parametrize("seed", [0, 1, 40, 4242])
def test_stacked_suite_prints_the_loop_summary(suite, n, trials, seed):
    # At n = 6, 20 trials take several runs of stacked trials in every suite.
    assert json.dumps(run_suite(suite, n, trials, seed)) == \
        json.dumps(LOOP_SUITES[suite](n, trials, seed))


def _assert_failures_match_the_loop(suite, n, trials, seed, fields):
    summary = run_suite(suite, n, trials, seed)
    failures = summary["failures"]
    assert summary["pass"] is False and failures
    assert failures == LOOP_SUITES[suite](n, trials, seed)["failures"]
    assert run_suite("all", n, trials, seed)["failures"] == failures
    keys = [tuple(str(f[k]) for k in fields) for f in failures]
    assert len(set(keys)) == len(keys)
    return failures


def test_corrupt_lower_schlaflian_seen_from_ode_keeps_trial_and_t(monkeypatch):
    import matguard.ode as omod

    original = omod.lower_schlaflian

    def corrupted(a, p):
        out = original(a, p)
        out[a[..., 0, 1] > 0, 0, 0] += 1e-6  # only some trials
        return out

    monkeypatch.setattr(omod, "lower_schlaflian", corrupted)
    failures = _assert_failures_match_the_loop("ode", 6, 20, 5, ("trial", "t"))
    assert {f["property"] for f in failures} == {"symmetric_reduction_two_path"}
    assert 0 < len({f["trial"] for f in failures}) < 20
    assert max(f["trial"] for f in failures) >= 18  # past the first run of trials


def test_corrupt_mult_compound_seen_from_ode_keeps_trial_and_pair(monkeypatch):
    import matguard.ode as omod

    original = omod.mult_compound

    def corrupted(a, k):
        out = original(a, k)
        out[a[..., -1, 1] == 1.0, 0, 0] += 1e-6  # only the pairs (i, n)
        return out

    monkeypatch.setattr(omod, "mult_compound", corrupted)
    failures = _assert_failures_match_the_loop("lemma1", 6, 20, 5, ("trial", "pair"))
    assert {f["property"] for f in failures} == {"skew_basis_columns"}
    assert {f["pair"][1] for f in failures} == {6}
    assert len(failures) == 5 * 20
    assert [f["trial"] for f in failures] == sorted(f["trial"] for f in failures)


def _ode_peak_bytes(trials):
    tracemalloc.start()
    try:
        run_suite("ode", 6, trials, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ode_suite_memory_is_flat_in_trials():
    run_suite("ode", 6, 1, 0)  # warm the cached index tables
    small, large = _ode_peak_bytes(200), _ode_peak_bytes(800)
    assert large <= 1.5 * small, (small, large)


def test_lemma1_suite_memory_at_the_size_guard_stays_small():
    # One trial at n = 32 has 496 pairs: their stacks of A S + S A' run in
    # runs of pairs under the CHUNK_ENTRIES budget, not all at once.
    run_suite("lemma1", 32, 1, 1)  # warm the cached index tables
    tracemalloc.start()
    try:
        run_suite("lemma1", 32, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak
