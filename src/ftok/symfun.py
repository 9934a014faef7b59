"""Symmetric function constructors: tableau sums, one-row blocks, determinants.

``KINDS`` names every tableau sum: a kind is a factorial tableau sum and the
ring map that specialises it (``a := 0`` for the plain kinds, ``y := x`` for
Ikeda's factorial Q-function), applied to each strip of the row transfer.
The one-row building block is ``q_poly`` (sum over slot multisets of a
:class:`ShiftedAlphabet`); ``h_poly`` is ``q_poly`` on the staircase alphabet.
The two Jacobi-Trudi style determinants and the identity right-hand sides, a
deformed ``vandermonde`` times a factorial Schur function, sit on top of them.
"""

from __future__ import annotations

import functools

from . import combin, poly, tableaux
from .shapes import FrozenValue, Partition, StrictPartition
from .tableaux import InvalidShapeForKind

# symmetric function kind -> (tableau kind, the ring map that turns the
# factorial tableau sum into this function, or None for the factorial sums)
KINDS = {
    "schur": ("sst", {"a": poly.ZERO}),
    "factorialSchur": ("sst", None),
    "bigP": ("primedP", {"a": poly.ZERO}),
    "bigQ": ("primedQ", {"a": poly.ZERO}),
    "factorialBigP": ("primedP", None),
    "factorialBigQ": ("primedQ", None),
    # Ikeda's factorial Q-function, the y := x reduction of corollary 1
    "ikedaQ": ("primedQ", {"y": poly.x}),
}


class Slot(FrozenValue):
    """One argument of q_m.

    The ell-th chosen slot with variable v contributes (v + sign * a_{ell +
    offset}).  x-slots (sign +1) may be chosen repeatedly, y-slots (sign -1)
    at most once.  ``offset`` counts the shift operators inserted to the
    slot's left.
    """

    __slots__ = ("var", "sign", "offset")  # poly.variable key, +-1, int

    def __init__(self, var: tuple[int, int], sign: int, offset: int):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "offset", offset)


def x_slot(i: int, offset: int = 0) -> Slot:
    return Slot(poly.variable("x", i), 1, offset)


def y_slot(i: int, offset: int = 0) -> Slot:
    return Slot(poly.variable("y", i), -1, offset)


class ShiftedAlphabet(FrozenValue):
    __slots__ = ("slots",)  # tuple of Slot

    def __init__(self, slots):
        object.__setattr__(self, "slots", tuple(slots))


def interleaved_alphabet(k: int, n: int) -> ShiftedAlphabet:
    """x_k < y_{k+1} < x_{k+1} < ... < y_n < x_n, all offsets 0."""
    slots = [x_slot(k)]
    for j in range(k + 1, n + 1):
        slots.append(y_slot(j))
        slots.append(x_slot(j))
    return ShiftedAlphabet(slots)


@functools.cache  # h_poly builds one per determinant entry
def staircase_alphabet(k: int, n: int) -> ShiftedAlphabet:
    """x_k, sh x_{k+1}, sh x_{k+2}, ...: offset j - k on slot x_j."""
    return ShiftedAlphabet(x_slot(j, j - k) for j in range(k, n + 1))


def q_poly(alphabet: ShiftedAlphabet, m: int) -> poly.Polynomial:
    """Sum over weakly increasing m-multisets of slots (x-slots repeatable)."""
    if m < 0:
        return poly.ZERO
    slots = alphabet.slots
    memo: dict[tuple[int, int], poly.Polynomial] = {}

    def tail(s: int, ell: int) -> poly.Polynomial:
        # choices for positions ell..m drawn from slots[s:]
        if ell > m:
            return poly.ONE
        key = (s, ell)
        got = memo.get(key)
        if got is not None:
            return got
        total = memo[key] = poly.sum_of_products(
            (
                poly.var_poly(slot.var) + poly.const(slot.sign) * poly.a(ell + slot.offset),
                # an x-slot (sign +1) may be chosen again
                tail(s2 if slot.sign > 0 else s2 + 1, ell + 1),
            )
            for s2, slot in enumerate(slots[s:], start=s)
        )
        return total

    return tail(0, 1)


def h_poly(m: int, k: int, n: int) -> poly.Polynomial:
    """Sum over k <= i_1 <= ... <= i_m <= n of prod (x_{i_l} + a_{i_l - k + l})."""
    return q_poly(staircase_alphabet(k, n), m)


@functools.cache
def tableau_sum(kind: str, shape, n: int) -> poly.Polynomial:
    """Weighted tableau sum of one of the ``KINDS``.

    The cells holding entries ``<= k`` form a shape ``kappa_k`` with at most
    k rows, and ``kappa_k / kappa_(k-1)`` is the strip of the letter k.  So the
    sum is ``combin.row_transfer`` of ``tableaux.strip_sum`` down from the
    shape padded to n rows, over strict rows for the primed kinds.  A kind's
    ring map is a homomorphism, so it is applied to each strip sum
    (``_strip_sum``) before the row transfer multiplies them, never to the
    finished sum.  The brute-force sum of ``tableaux.weight`` over
    ``tableaux.enumerate_tableaux``, with the ring map substituted afterwards,
    is its oracle.
    """
    if kind not in KINDS:
        raise InvalidShapeForKind(f"unknown symmetric function kind {kind!r}")
    tkind = KINDS[kind][0]
    tableaux.diagram_cells(tkind, shape)  # InvalidShapeForKind on the wrong shape class
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    parts = tuple(p for p in shape.parts if p > 0)
    if len(parts) > n:
        return poly.ZERO
    return combin.row_transfer(
        parts + (0,) * (n - len(parts)),
        lambda k, outer, inner: _strip_sum(kind, outer, inner),
        strict=tableaux.KINDS[tkind][0] is StrictPartition,
    )


@functools.cache
def _strip_sum(kind: str, outer: tuple[int, ...], inner: tuple[int, ...]) -> poly.Polynomial:
    """``tableaux.strip_sum`` of the kind's tableau kind under its ring map.

    A strip depends only on the kind and its two rows, so the sums of one
    process share it: the strips below the top rows recur in every shape.
    """
    tkind, ring_map = KINDS[kind]
    total = tableaux.strip_sum(tkind, outer, inner)
    return total if ring_map is None else poly.substitute(total, ring_map)


@functools.cache
def det_formula(kind: str, shape, n: int) -> poly.Polynomial:
    """The two determinant expressions for the factorial functions.

    lemma1: entry (k, l) is h_{mu_l - l + k} over x_k..x_n.
    lemma2: entry (k, l) is x_k * q_{lambda_l - 1} over the interleaved
    alphabet starting at x_k; needs a strict shape of exactly n positive parts.
    """
    if kind == "lemma1":
        if not isinstance(shape, Partition):
            raise InvalidShapeForKind("lemma1 needs a Partition shape")
        mu = shape.padded(n)
        matrix = [
            [h_poly(mu[ell] - (ell + 1) + (k + 1), k + 1, n) for ell in range(n)]
            for k in range(n)
        ]
        return poly.det(matrix)
    if kind == "lemma2":
        if not isinstance(shape, StrictPartition):
            raise InvalidShapeForKind("lemma2 needs a StrictPartition shape")
        lam = tuple(shape.parts)
        if len(lam) != n or shape.length() != n:
            raise InvalidShapeForKind(f"lemma2 needs exactly {n} positive parts, got {lam}")
        matrix = [
            [
                poly.x(k + 1) * q_poly(interleaved_alphabet(k + 1, n), lam[ell] - 1)
                for ell in range(n)
            ]
            for k in range(n)
        ]
        return poly.det(matrix)
    raise InvalidShapeForKind(f"unknown determinant kind {kind!r}")


def vandermonde(n: int, pair) -> poly.Polynomial:
    """The deformed Vandermonde ``prod_{1 <= i < j <= n} pair(i, j)``."""
    return poly.product(
        pair(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )


def theorem_rhs(mu: Partition, n: int, klass: str) -> poly.Polynomial:
    """Product prefactor times the factorial Schur function.

    P class: prod_i x_i * prod_{i<j} (x_i + y_j) * s_mu(x|a).
    Q class: prod_{i<=j} (x_i + y_j) * s_mu(x|a).
    """
    if klass not in ("P", "Q"):
        raise ValueError(f"class must be 'P' or 'Q', got {klass!r}")
    mu.padded(n)  # raises MuTooLong when mu does not fit
    s = tableau_sum("factorialSchur", mu.normalized(), n)
    diagonal = poly.product(
        poly.x(i) if klass == "P" else poly.x(i) + poly.y(i) for i in range(1, n + 1)
    )
    return diagonal * vandermonde(n, lambda i, j: poly.x(i) + poly.y(j)) * s
