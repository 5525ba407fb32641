"""The vectorised rho builders reproduce the loop builders bit for bit."""

import re

import numpy as np
import pytest

from loop_reference import (
    add_compound_loop,
    bialternate_sum_self_loop,
    kron_sum_self_loop,
    lower_schlaflian_loop,
    mult_compound_loop,
    upper_schlaflian_loop,
)
from matguard.bialternate import bialternate_sum_self
from matguard.cli import main
from matguard.compound import add_compound, mult_compound
from matguard.core import maxabs
from matguard.io import dumps_canonical, matrix_to_obj, save_matrix_json
from matguard.kron import kron_sum_self
from matguard.schlaflian import lower_schlaflian, upper_schlaflian

NS = range(2, 13)


def corpus_matrix(n: int) -> np.ndarray:
    """Seeded n x n matrix with exact 0.0 and -0.0 entries among normals."""
    rng = np.random.default_rng(1000 + n)
    a = rng.standard_normal((n, n))
    cells = rng.permutation(n * n)
    a.flat[cells[: n * n // 4]] = 0.0
    a.flat[cells[n * n // 4 : n * n // 2]] = -0.0
    return a


def test_corpus_has_signed_zeros():
    a = corpus_matrix(6)
    zeros = a[a == 0.0]
    assert np.any(np.signbit(zeros)) and not np.all(np.signbit(zeros))


@pytest.mark.parametrize("n", NS)
def test_add_compound_matches_loop_bytes(n):
    a = corpus_matrix(n)
    for k in range(1, min(4, n) + 1):
        assert add_compound(a, k).tobytes() == add_compound_loop(a, k).tobytes(), k


@pytest.mark.parametrize("n", NS)
def test_bialternate_matches_loop_bytes(n):
    a = corpus_matrix(n)
    assert bialternate_sum_self(a).tobytes() == bialternate_sum_self_loop(a).tobytes()


@pytest.mark.parametrize("n", NS)
def test_lower_schlaflian_matches_loop_bytes(n):
    a = corpus_matrix(n)
    for p in range(1, 4):
        assert lower_schlaflian(a, p).tobytes() == lower_schlaflian_loop(a, p).tobytes(), p


@pytest.mark.parametrize("n", range(1, 5))
def test_upper_schlaflian_matches_expansion(n):
    # The degree-by-degree U_p sums each entry in another order than the
    # term-by-term expansion, so the two agree to rounding.
    a = corpus_matrix(n)
    for p in range(1, 5):
        expected = upper_schlaflian_loop(a, p)
        assert maxabs(upper_schlaflian(a, p) - expected) <= 1e-13 * maxabs(expected), p


# Sizes where a column key of base-n digits would pass 2**63: n**k for
# add_k, n**p for L_p.  Count-vector keys stay under 2**60.
HIGH_DEGREE = [
    (add_compound, add_compound_loop, 18, 16),
    (add_compound, add_compound_loop, 20, 18),
    (add_compound, add_compound_loop, 32, 31),
    (lower_schlaflian, lower_schlaflian_loop, 2, 64),
    (lower_schlaflian, lower_schlaflian_loop, 3, 40),
]


@pytest.mark.parametrize("build, reference, n, k", HIGH_DEGREE,
                         ids=[f"{b.__name__}-{n}-{k}" for b, _, n, k in HIGH_DEGREE])
def test_high_degree_matches_loop_bytes(build, reference, n, k):
    a = corpus_matrix(n)
    assert build(a, k).tobytes() == reference(a, k).tobytes()


@pytest.mark.parametrize("n", NS)
def test_kron_sum_matches_loop_bytes(n):
    a = corpus_matrix(n)
    assert kron_sum_self(a).tobytes() == kron_sum_self_loop(a).tobytes()


def corpus_rect(rows: int, cols: int) -> np.ndarray:
    """Seeded rows x cols matrix: normals with exact 0.0 and -0.0 entries."""
    rng = np.random.default_rng(2000 + 100 * rows + cols)
    a = rng.standard_normal((rows, cols))
    cells = rng.permutation(rows * cols)
    a.flat[cells[: a.size // 4]] = 0.0
    a.flat[cells[a.size // 4 : a.size // 2]] = -0.0
    return a


MULT_SHAPES = [(5, 5), (6, 6), (7, 7), (5, 8), (8, 5), (6, 9), (3, 12)]


@pytest.mark.parametrize("shape", MULT_SHAPES, ids=[f"{r}x{c}" for r, c in MULT_SHAPES])
@pytest.mark.parametrize("kind", ["signed_zero", "integer"])
def test_mult_compound_matches_loop_bytes(shape, kind):
    if kind == "integer":
        a = np.random.default_rng(shape).integers(-9, 10, size=shape).astype(float)
    else:
        a = corpus_rect(*shape)
    for k in range(1, min(5, *shape) + 1):
        assert mult_compound(a, k).tobytes() == mult_compound_loop(a, k).tobytes(), k


def test_builders_emit_negative_zero():
    # -0.0 survives into the compound outputs, so the byte comparisons see
    # it; the Schlaflian and the Kronecker sum accumulate onto +0.0 and
    # never produce one.
    a = corpus_matrix(5)
    for out in (add_compound(a, 2), add_compound(a, 3), bialternate_sum_self(a),
                mult_compound(a, 2), mult_compound(a, 3)):
        assert np.any((out == 0.0) & np.signbit(out))


@pytest.mark.parametrize(
    "argv, reference, signed_zero",
    [
        (("--map", "add2"), lambda a: add_compound_loop(a, 2), True),
        (("--map", "addk", "--k", "3"), lambda a: add_compound_loop(a, 3), True),
        (("--map", "bialt"), bialternate_sum_self_loop, True),
        (("--map", "schlaflian", "--p", "2"), lambda a: lower_schlaflian_loop(a, 2), False),
        (("--map", "kron"), kron_sum_self_loop, False),
    ],
)
def test_compute_stdout_matches_loop_bytes(capsys, tmp_path, argv, reference, signed_zero):
    a = corpus_matrix(7)
    path = tmp_path / "a.json"
    save_matrix_json(a, path)
    assert main(["compute", *argv, "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == dumps_canonical(matrix_to_obj(reference(a))) + "\n"
    assert bool(re.search(r"-0\.0[,\]]", out)) == signed_zero


def test_compute_schlaflian_past_base_n_keys_matches_loop_bytes(capsys, tmp_path):
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "a.json"
    save_matrix_json(a, path)
    assert main(["compute", "--map", "schlaflian", "--p", "64", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == dumps_canonical(matrix_to_obj(lower_schlaflian_loop(a, 64))) + "\n"
