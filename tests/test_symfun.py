import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ftok import poly, symfun, tableaux
from ftok.shapes import Partition, StrictPartition

ROOT = Path(__file__).resolve().parent.parent


def test_h_boundaries():
    assert symfun.h_poly(0, 1, 3) == poly.ONE
    assert symfun.h_poly(-2, 1, 3) == poly.ZERO


def test_h_examples():
    assert symfun.h_poly(1, 2, 2) == poly.x(2) + poly.a(1)
    assert symfun.h_poly(2, 2, 2) == (poly.x(2) + poly.a(1)) * (poly.x(2) + poly.a(2))
    # k=1, n=2, m=2: terms (1,1), (1,2), (2,2)
    expect = (
        (poly.x(1) + poly.a(1)) * (poly.x(1) + poly.a(2))
        + (poly.x(1) + poly.a(1)) * (poly.x(2) + poly.a(3))
        + (poly.x(2) + poly.a(2)) * (poly.x(2) + poly.a(3))
    )
    assert symfun.h_poly(2, 1, 2) == expect


def _paper_alphabet(k, q, n):
    # A(k, q) as the paper writes it: x_k, sh x_{k+1}, ..., sh^(q-1-k) x_{q-1},
    # then y_q < x_q < ... < y_n < x_n, each shifted q - 1 - k times;
    # a letter is (family, index, number of shifts)
    letters = [("x", r, r - k) for r in range(k, q)]
    for j in range(q, n + 1):
        letters += [("y", j, q - 1 - k), ("x", j, q - 1 - k)]
    return letters


def _brute_q(letters, m):
    # every weakly increasing choice of m letters, an x repeatable and a y at
    # most once; position ell of a letter with s shifts gives x + a_{ell+s}
    # or y - a_{ell+s}
    total = poly.ZERO
    for choice in itertools.combinations_with_replacement(range(len(letters)), m):
        if any(letters[i][0] == "y" and choice.count(i) > 1 for i in choice):
            continue
        term = poly.ONE
        for ell, i in enumerate(choice, start=1):
            family, index, shifts = letters[i]
            var = poly.var_poly(poly.variable(family, index))
            sign = 1 if family == "x" else -1
            term = term * (var + poly.const(sign) * poly.a(ell + shifts))
        total = total + term
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_q_series_matches_the_paper_alphabet(n):
    for k in range(1, n + 1):
        for q in range(k + 1, n + 2):
            letters = _paper_alphabet(k, q, n)
            series = symfun.q_series(k, q, n, 3)
            assert series == [_brute_q(letters, m) for m in range(4)], (k, q, n)


def test_q_zero_and_negative():
    assert symfun.q_poly(1, 2, 2, 0) == poly.ONE
    assert symfun.q_poly(1, 2, 2, -1) == poly.ZERO


def test_q_single_choices():
    # A(1, 2) at n = 2 is x_1 < y_2 < x_2
    assert symfun.q_poly(1, 2, 2, 1) == poly.x(1) + poly.x(2) + poly.y(2) + poly.a(1)
    # A(1, 3) at n = 2 is x_1, sh x_2
    assert symfun.q_poly(1, 3, 2, 1) == (poly.x(1) + poly.a(1)) + (poly.x(2) + poly.a(2))
    assert symfun.q_poly(1, 3, 2, 1) == symfun.h_poly(1, 1, 2)


def test_q_respects_repeatability():
    # A(1, 2) at n = 1 is the lone x_1, which may fill both positions
    assert symfun.q_poly(1, 2, 1, 2) == (poly.x(1) + poly.a(1)) * (poly.x(1) + poly.a(2))


def test_q_has_no_depth_limit():
    # the letters are summed in a loop, so a long q_m needs no stack depth
    code = (
        "import sys\n"
        "from ftok import poly, symfun\n"
        "sys.setrecursionlimit(40)\n"
        "got = symfun.q_poly(1, 2, 1, 12)\n"
        "assert got == poly.product(poly.x(1) + poly.a(ell) for ell in range(1, 13))\n"
        "assert len(got.terms) == 4096, len(got.terms)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("k,n,m", [(1, 2, 2), (1, 3, 3), (2, 4, 2), (1, 4, 3)])
def test_h_equals_q_on_staircase_alphabet(k, n, m):
    # brute force over the weakly increasing index tuples k <= i_1 <= ... <= i_m <= n
    brute = poly.poly_sum(
        poly.product(poly.x(i) + poly.a(i - k + ell) for ell, i in enumerate(idx, start=1))
        for idx in itertools.combinations_with_replacement(range(k, n + 1), m)
    )
    assert symfun.h_poly(m, k, n) == brute
    assert symfun.q_poly(k, n + 1, n, m) == brute


def test_tableau_sum_empty_shape():
    assert symfun.tableau_sum("factorialSchur", Partition(), 3) == poly.ONE
    # the row transfer from the empty top row, n = 0
    assert symfun.tableau_sum("schur", Partition(), 0) == poly.ONE


def test_ring_map_applies_per_cell():
    # a plain one-row sum maps each cell factor x1 + a_j to x1 before the
    # product, so it never expands the 2^30 terms of the factorial strip; the
    # child is killed at the timeout rather than filling memory
    code = (
        "from ftok import poly, symfun\n"
        "from ftok.shapes import Partition, StrictPartition\n"
        "m = 30\n"
        "x1 = poly.x(1) ** m\n"
        "assert symfun.tableau_sum('schur', Partition((m,)), 1) == x1\n"
        "assert symfun.tableau_sum('bigP', StrictPartition((m,)), 1) == x1\n"
        "want = x1 + poly.x(1) ** (m - 1) * poly.y(1)\n"
        "assert symfun.tableau_sum('bigQ', StrictPartition((m,)), 1) == want\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert result.returncode == 0, result.stderr


def test_tableau_sum_examples():
    assert symfun.tableau_sum("factorialSchur", Partition((1,)), 2) == (
        poly.x(1) + poly.a(1)
    ) + (poly.x(2) + poly.a(2))
    assert symfun.tableau_sum("factorialBigP", StrictPartition((2, 1)), 2) == poly.x(
        1
    ) * poly.x(2) * (poly.x(1) + poly.y(2))
    assert symfun.tableau_sum("schur", Partition((1,)), 2) == poly.x(1) + poly.x(2)


def test_tableau_sum_bad_shape():
    assert symfun.InvalidShapeForKind is tableaux.InvalidShapeForKind
    with pytest.raises(symfun.InvalidShapeForKind, match="^sst needs a Partition shape$"):
        symfun.tableau_sum("factorialSchur", StrictPartition((2, 1)), 2)
    with pytest.raises(symfun.InvalidShapeForKind, match="^primedP needs a StrictPartition shape$"):
        symfun.tableau_sum("factorialBigP", Partition((2, 1)), 2)
    with pytest.raises(symfun.InvalidShapeForKind):
        symfun.tableau_sum("weird", Partition((1,)), 1)


def test_tableau_sum_outside_n():
    with pytest.raises(ValueError, match=r"^n must be at least 0, got -1$"):
        symfun.tableau_sum("schur", Partition((1,)), -1)
    # more nonzero parts than letters: no tableau, so the sum is 0
    assert symfun.tableau_sum("schur", Partition((1, 1)), 1) == poly.ZERO
    assert symfun.tableau_sum("factorialBigP", StrictPartition((2, 1, 0)), 1) == poly.ZERO


@pytest.mark.parametrize(
    "kind, shape, n",
    [("schur", Partition((10**6,)), 0), ("factorialBigQ", StrictPartition((10**6, 1)), 1)],
)
def test_tableau_sum_outside_n_builds_no_diagram(kind, shape, n):
    # the shape class is checked without its cells: a diagram of 10**6
    # cells would peak near 91 MiB
    tracemalloc.start()
    try:
        assert symfun.tableau_sum.__wrapped__(kind, shape, n) == poly.ZERO
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_lemma2_needs_a_strict_partition():
    with pytest.raises(symfun.InvalidShapeForKind, match="^lemma2 needs a StrictPartition shape$"):
        symfun.det_formula("lemma2", Partition((1,)), 1)


def test_plain_kinds_are_a_to_zero():
    for kind, plain in [
        ("factorialSchur", "schur"),
        ("factorialBigP", "bigP"),
        ("factorialBigQ", "bigQ"),
    ]:
        shape = Partition((2, 1)) if kind == "factorialSchur" else StrictPartition((2, 1))
        fact = symfun.tableau_sum(kind, shape, 2)
        assert poly.substitute(fact, {"a": poly.ZERO}) == symfun.tableau_sum(
            plain, shape, 2
        )


def test_det_formula_examples():
    assert symfun.det_formula("lemma2", StrictPartition((1,)), 1) == poly.x(1)
    assert symfun.det_formula("lemma1", Partition((1,)), 2) == (
        poly.x(1) + poly.a(1)
    ) + (poly.x(2) + poly.a(2))
    assert symfun.det_formula("lemma2", StrictPartition((2, 1)), 2) == poly.x(
        1
    ) * poly.x(2) * (poly.x(1) + poly.y(2))


def test_det_formula_preconditions():
    with pytest.raises(symfun.InvalidShapeForKind):
        symfun.det_formula("lemma2", StrictPartition((2, 1)), 3)
    with pytest.raises(symfun.InvalidShapeForKind):
        symfun.det_formula("lemma2", StrictPartition((3, 2, 0)), 3)
    with pytest.raises(
        symfun.InvalidShapeForKind, match=r"exactly 2 parts, all positive, got \(3, 2, 0\)$"
    ):
        symfun.det_formula("lemma2", StrictPartition((3, 2, 0)), 2)
    with pytest.raises(symfun.InvalidShapeForKind):
        symfun.det_formula("lemma1", StrictPartition((2, 1)), 2)
    with pytest.raises(symfun.InvalidShapeForKind):
        symfun.det_formula("other", Partition((1,)), 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vandermonde_is_the_vandermonde_determinant(n):
    got = symfun.vandermonde(n, lambda i, j: poly.x(i) - poly.x(j))
    matrix = [[poly.x(i) ** (n - j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    assert got == poly.det(matrix)


def test_vandermonde_of_no_pairs_is_one():
    for n in (0, 1):
        assert symfun.vandermonde(n, lambda i, j: poly.x(i) - poly.x(j)) == poly.ONE


def test_theorem_rhs_examples():
    assert symfun.theorem_rhs(Partition(), 2, "P") == poly.x(1) * poly.x(2) * (
        poly.x(1) + poly.y(2)
    )
    assert symfun.theorem_rhs(Partition(), 1, "Q") == poly.x(1) + poly.y(1)
    s = symfun.tableau_sum("factorialSchur", Partition((1,)), 2)
    expect = (
        (poly.x(1) + poly.y(1))
        * (poly.x(1) + poly.y(2))
        * (poly.x(2) + poly.y(2))
        * s
    )
    assert symfun.theorem_rhs(Partition((1,)), 2, "Q") == expect
    with pytest.raises(ValueError):
        symfun.theorem_rhs(Partition((1,)), 2, "R")


@pytest.mark.parametrize("mu", [Partition((1,)), Partition((2, 1)), Partition((3, 1))])
def test_factorial_schur_symmetric_in_x1_x2(mu):
    s = symfun.tableau_sum("factorialSchur", mu, 3)
    swap = {
        poly.variable("x", 1): poly.x(2),
        poly.variable("x", 2): poly.x(1),
    }
    assert poly.substitute(s, swap) == s


@pytest.mark.parametrize(
    "kind,shape",
    [
        ("factorialSchur", Partition((2, 1))),
        ("factorialBigQ", StrictPartition((3, 2, 1))),
        ("factorialBigP", StrictPartition((3, 2, 1))),
    ],
)
def test_a0_independence(kind, shape):
    s = symfun.tableau_sum(kind, shape, 3)
    # poly.a(0) is ZERO, so no weight builds the kernel field a0: equal exactly
    # when no term has an a0 factor; a negative power would raise
    assert poly.substitute(s, {poly.variable("a", 0): poly.ZERO}) == s
