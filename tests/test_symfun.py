import itertools

import pytest

from ftok import poly, symfun, tableaux
from ftok.shapes import Partition, StrictPartition
from ftok.symfun import ShiftedAlphabet, x_slot, y_slot


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


def test_q_zero_and_negative():
    alpha = symfun.interleaved_alphabet(1, 2)
    assert symfun.q_poly(alpha, 0) == poly.ONE
    assert symfun.q_poly(alpha, -1) == poly.ZERO


def test_q_single_choices():
    alpha = ShiftedAlphabet([x_slot(1), y_slot(2), x_slot(2)])
    assert symfun.q_poly(alpha, 1) == poly.x(1) + poly.x(2) + poly.y(2) + poly.a(1)
    shifted = ShiftedAlphabet([x_slot(1), x_slot(2, 1)])
    assert symfun.q_poly(shifted, 1) == (poly.x(1) + poly.a(1)) + (
        poly.x(2) + poly.a(2)
    )
    assert symfun.q_poly(shifted, 1) == symfun.h_poly(1, 1, 2)


def test_q_respects_repeatability():
    alpha = ShiftedAlphabet([y_slot(2)])
    # a y-slot cannot be chosen twice
    assert symfun.q_poly(alpha, 2) == poly.ZERO
    alpha = ShiftedAlphabet([x_slot(1)])
    assert symfun.q_poly(alpha, 2) == (poly.x(1) + poly.a(1)) * (poly.x(1) + poly.a(2))


@pytest.mark.parametrize("k,n,m", [(1, 2, 2), (1, 3, 3), (2, 4, 2), (1, 4, 3)])
def test_h_equals_q_on_staircase_alphabet(k, n, m):
    # brute force over the weakly increasing index tuples k <= i_1 <= ... <= i_m <= n
    brute = poly.poly_sum(
        poly.product(poly.x(i) + poly.a(i - k + ell) for ell, i in enumerate(idx, start=1))
        for idx in itertools.combinations_with_replacement(range(k, n + 1), m)
    )
    assert symfun.h_poly(m, k, n) == brute
    assert symfun.q_poly(symfun.staircase_alphabet(k, n), m) == brute


def test_tableau_sum_empty_shape():
    assert symfun.tableau_sum("factorialSchur", Partition(), 3) == poly.ONE


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
    with pytest.raises(symfun.InvalidShapeForKind):
        symfun.tableau_sum("factorialSchur", StrictPartition((2, 1)), 2)
    with pytest.raises(symfun.InvalidShapeForKind):
        symfun.tableau_sum("factorialBigP", Partition((2, 1)), 2)
    with pytest.raises(symfun.InvalidShapeForKind):
        symfun.tableau_sum("weird", Partition((1,)), 1)


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
    # equal exactly when no term has an a0 factor; a negative power would raise
    assert poly.substitute(s, {poly.variable("a", 0): poly.ZERO}) == s
