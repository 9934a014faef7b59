"""Symmetric function constructors: tableau sums, one-row blocks, determinants.

``KINDS`` names every tableau sum: a kind is a factorial tableau sum and the
ring map that specialises it (``a := 0`` for the plain kinds, ``y := x`` for
Ikeda's factorial Q-function), applied to each cell factor of each strip.
The one-row building block is q_m over the paper's alphabets A(k, q):
``q_series(k, q, n, top)`` gives q_0..q_top in one pass over the letters of
A(k, q).  The lemma 2 entries read A(k, k + 1), lemma 3 relates neighbouring
members, and ``h_poly`` is ``q_poly`` on A(k, n + 1).
The two Jacobi-Trudi style determinants and the identity right-hand sides, a
deformed ``vandermonde`` times a factorial Schur function, sit on top of them.
"""

from __future__ import annotations

import functools

from . import combin, poly, tableaux
from .shapes import Partition, StrictPartition
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


def q_series(k: int, q: int, n: int, top: int) -> list[poly.Polynomial]:
    """[q_0, ..., q_top] over the paper's alphabet A(k, q).

    A(k, q) is x_k, sh x_{k+1}, ..., sh^(q-1-k) x_{q-1}, then
    y_q < x_q < ... < y_n < x_n, each shifted q - 1 - k times.  q_m sums, over
    the weakly increasing choices of m letters (an x repeatable, a y at most
    once), the product over positions ell of x + a_{ell+s} or y - a_{ell+s},
    s being the letter's shifts.  One pass over the letters: entry ell holds
    the choices among the letters so far that fill positions 1..ell.

    q = k + 1 gives the lemma 2 entries, q = n + 1 the ``h_poly`` ones, and
    lemma 3 relates A(k, q), A(k + 1, q + 1) and A(k, q + 1).
    """
    letters = [("x", r, r - k) for r in range(k, q)]
    for j in range(q, n + 1):
        letters += [("y", j, q - 1 - k), ("x", j, q - 1 - k)]
    series = [poly.ONE] + [poly.ZERO] * top
    for family, index, shift in letters:
        var = poly.var_poly(poly.variable(family, index))
        if family == "x":  # repeatable: ell upward, so entry ell - 1 may hold it already
            for ell in range(1, top + 1):
                series[ell] = series[ell] + series[ell - 1] * (var + poly.a(ell + shift))
        else:  # at most once: ell downward, so entry ell - 1 does not hold it yet
            for ell in range(top, 0, -1):
                series[ell] = series[ell] + series[ell - 1] * (var - poly.a(ell + shift))
    return series


def q_poly(k: int, q: int, n: int, m: int) -> poly.Polynomial:
    """q_m over A(k, q); 0 for m < 0."""
    return q_series(k, q, n, m)[m] if m >= 0 else poly.ZERO


def h_poly(m: int, k: int, n: int) -> poly.Polynomial:
    """Sum over k <= i_1 <= ... <= i_m <= n of prod (x_{i_l} + a_{i_l - k + l})."""
    return q_poly(k, n + 1, n, m)


@functools.cache
def tableau_sum(kind: str, shape, n: int) -> poly.Polynomial:
    """Weighted tableau sum of one of the ``KINDS``.

    The cells holding entries ``<= k`` form a shape ``kappa_k`` with at most
    k rows, and ``kappa_k / kappa_(k-1)`` is the strip of the letter k.  So the
    sum is ``combin.row_transfer`` of ``tableaux.strip_sum`` down from the
    shape padded to n rows, over strict rows for the primed kinds.  A kind's
    ring map is a homomorphism, so it is applied to each cell factor of each
    strip (``_strip_sum``) before their product expands, never to the
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
        tableaux.KINDS[tkind][0] is StrictPartition,
        ("tableau_sum", kind),
    )


@functools.cache
def _strip_sum(kind: str, outer: tuple[int, ...], inner: tuple[int, ...]) -> poly.Polynomial:
    """``tableaux.strip_sum`` of the kind's tableau kind, its ring map on each cell.

    A strip depends only on the kind and its two rows, so the sums of one
    process share it: the strips below the top rows recur in every shape.
    """
    tkind, ring_map = KINDS[kind]
    return tableaux.strip_sum(tkind, outer, inner, ring_map)


@functools.cache
def det_formula(kind: str, shape, n: int) -> poly.Polynomial:
    """The two determinant expressions for the factorial functions.

    lemma1: entry (k, l) is h_{mu_l - l + k} over x_k..x_n.
    lemma2: entry (k, l) is x_k * q_{lambda_l - 1} over A(k, k + 1),
    x_k < y_{k+1} < x_{k+1} < ... < y_n < x_n; needs a strict shape of exactly
    n parts, all positive.
    Each row reads its n entries from one ``q_series`` of its alphabet.
    """
    if n < 1:
        raise InvalidShapeForKind(f"n must be at least 1, got {n}")
    if kind == "lemma1":
        if not isinstance(shape, Partition):
            raise InvalidShapeForKind("lemma1 needs a Partition shape")
        mu = shape.padded(n)
        matrix = []
        for k in range(1, n + 1):
            # mu_l - l + k falls with l; below zero the entry is 0, and a
            # negative index would read the series from its end
            series = q_series(k, n + 1, n, mu[0] - 1 + k)
            degrees = [part - ell + k for ell, part in enumerate(mu, start=1)]
            matrix.append([series[m] if m >= 0 else poly.ZERO for m in degrees])
        return poly.det(matrix)
    if kind == "lemma2":
        if not isinstance(shape, StrictPartition):
            raise InvalidShapeForKind("lemma2 needs a StrictPartition shape")
        lam = tuple(shape.parts)
        if len(lam) != n or shape.length() != n:
            raise InvalidShapeForKind(f"lemma2 needs exactly {n} parts, all positive, got {lam}")
        matrix = []
        for k in range(1, n + 1):
            series = q_series(k, k + 1, n, lam[0] - 1)
            matrix.append([poly.x(k) * series[part - 1] for part in lam])
        return poly.det(matrix)
    raise InvalidShapeForKind(f"unknown determinant kind {kind!r}")


def vandermonde(n: int, pair) -> poly.Polynomial:
    """The deformed Vandermonde ``prod_{1 <= i < j <= n} pair(i, j)``."""
    return poly.product(
        pair(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )


@functools.cache
def theorem_rhs(mu: Partition, n: int, klass: str) -> poly.Polynomial:
    """Product prefactor times the factorial Schur function.

    P class: prod_i x_i * prod_{i<j} (x_i + y_j) * s_mu(x|a).
    Q class: prod_{i<=j} (x_i + y_j) * s_mu(x|a).
    Built once per process: theorem 1 and corollaries 2 and 3 share it.
    """
    if klass not in ("P", "Q"):
        raise ValueError(f"class must be 'P' or 'Q', got {klass!r}")
    mu.padded(n)  # raises MuTooLong when mu does not fit
    s = tableau_sum("factorialSchur", mu.normalized(), n)
    diagonal = poly.product(
        poly.x(i) if klass == "P" else poly.x(i) + poly.y(i) for i in range(1, n + 1)
    )
    return diagonal * vandermonde(n, lambda i, j: poly.x(i) + poly.y(j)) * s
