"""Semistandard, shifted and primed shifted tableaux.

Four kinds are supported:

* ``sst``      -- semistandard: rows weakly increase, columns strictly increase.
* ``shifted``  -- shifted diagram, weak rows and columns, strict diagonals.
* ``primedQ``  -- primed shifted over 1' < 1 < 2' < 2 < ...: weak rows/columns,
                  at most one k' per row, at most one k per column.
* ``primedP``  -- primedQ with no primed entries on the main diagonal.

Cells are keyed by 1-based matrix coordinates matching the (shifted) diagram.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator

from . import poly
from .shapes import (FrozenValue, Partition, StrictPartition, conjugate, depth_first, is_int,
                     shifted_cells, young_cells)

# tableau kind -> (shape class, the diagram's cells, whether entries may be primed)
KINDS = {
    "sst": (Partition, young_cells, False),
    "shifted": (StrictPartition, shifted_cells, False),
    "primedP": (StrictPartition, shifted_cells, True),
    "primedQ": (StrictPartition, shifted_cells, True),
}


class InvalidShapeForKind(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class InvalidTableau(ValueError):
    pass


_ENTRY_RE = re.compile(r"([1-9][0-9]*)(')?")


@functools.total_ordering
class CellEntry(FrozenValue):
    """An entry k or k' of the primed alphabet; k' sorts just below k."""

    __slots__ = ("sort_key", "value", "primed")  # (value, 0 if primed else 1), int, bool

    def __init__(self, value: int, primed: bool = False):
        if value < 1:
            raise ValueError("entries start at 1")
        super().__init__((value, 0 if primed else 1), value, primed)

    def __lt__(self, other):
        # sort_key fixes value and primed, so this orders as the field tuples do
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key < other.sort_key

    def __str__(self):
        return f"{self.value}'" if self.primed else str(self.value)

    @staticmethod
    def from_str(text: str) -> "CellEntry":
        """Parse the text ``str`` writes: ASCII ``[1-9][0-9]*``, then ``'`` if primed."""
        m = _ENTRY_RE.fullmatch(text)
        if m is None:
            raise InvalidTableau(f"bad cell entry {text!r}")
        return CellEntry(int(m[1]), bool(m[2]))


class Violation(FrozenValue):
    __slots__ = ("rule", "cell")  # str, (i, j)


class Tableau(FrozenValue):
    # str, Partition | StrictPartition, int, sorted tuple of ((i, j), CellEntry)
    __slots__ = ("kind", "shape", "n", "cells")

    def __init__(self, kind, shape, n, cells):
        _kind(kind)
        if isinstance(cells, dict):
            cells = tuple(sorted(cells.items()))
        super().__init__(kind, shape, n, tuple(cells))

    def cell_map(self) -> dict:
        return dict(self.cells)

    def to_json(self) -> dict:
        rows: dict[int, list[str]] = {}
        for (i, _), e in self.cells:
            rows.setdefault(i, []).append(str(e))
        nrows = len(self.shape.parts)
        return {
            "kind": self.kind,
            "shape": list(self.shape.parts),
            "n": self.n,
            "rows": [rows.get(i + 1, []) for i in range(nrows)],
        }

    @staticmethod
    def from_json(data: dict) -> "Tableau":
        try:
            kind = data["kind"]
            klass, diagram, _ = _kind(kind)
            shape = klass(data["shape"])
            if not all(isinstance(r, list) for r in [data["rows"], *data["rows"]]):
                raise InvalidTableau("tableau rows must be lists of cell texts")
            cells = {}
            for i, row in enumerate(data["rows"], start=1):
                offset = i if diagram is shifted_cells else 1
                for k, text in enumerate(row):
                    cells[(i, offset + k)] = CellEntry.from_str(text)
            n = data["n"]
        except (KeyError, TypeError, AttributeError) as e:
            raise InvalidTableau(f"malformed tableau JSON: {e!r}") from e
        if not is_int(n):
            raise InvalidTableau(f"n must be an integer, got {n!r}")
        return Tableau(kind, shape, n, cells)


def _kind(kind) -> tuple:
    """The ``KINDS`` entry of ``kind``; InvalidShapeForKind when it has none."""
    try:
        return KINDS[kind]
    except (KeyError, TypeError):
        raise InvalidShapeForKind(f"unknown tableau kind {kind!r}") from None


def diagram_cells(kind: str, shape) -> list[tuple[int, int]]:
    klass, diagram, _ = _kind(kind)
    if not isinstance(shape, klass):
        raise InvalidShapeForKind(f"{kind} needs a {klass.__name__} shape")
    return diagram(shape)


def validate(t: Tableau) -> Violation | None:
    """None when valid; otherwise the first violated rule in cell order."""
    want = set(diagram_cells(t.kind, t.shape))
    cells = dict(t.cells)
    if want != cells.keys():
        raise ShapeMismatch(f"cells {sorted(cells)} do not match the diagram {sorted(want)}")
    primes_ok = KINDS[t.kind][2]
    for (i, j), e in sorted(cells.items()):
        if e.value > t.n or (e.primed and not primes_ok):
            return Violation("alphabet", (i, j))
        rule = _violation(t.kind, cells, i, j, e)
        if rule is not None:
            return Violation(rule, (i, j))
    return None


def _violation(kind: str, cells: dict, i: int, j: int, e: CellEntry) -> str | None:
    """The first rule that ``e`` in cell (i, j) breaks against the cells to its
    left and above it, or None.

    P3 and P4 compare ``e`` with its neighbour only: P1 and P2 hold at every
    earlier cell, so rows and columns weakly increase up to (i, j) and a
    repeat of ``e`` to the left or above would have to be the neighbour.
    """
    left = cells.get((i, j - 1))
    up = cells.get((i - 1, j))
    if kind == "sst":
        if left is not None and e.sort_key < left.sort_key:
            return "T1"
        if up is not None and e.value <= up.value:
            return "T2"
    elif kind == "shifted":
        if left is not None and e.sort_key < left.sort_key:
            return "S1"
        if up is not None and e.sort_key < up.sort_key:
            return "S2"
        diag = cells.get((i - 1, j - 1))
        if diag is not None and e.value <= diag.value:
            return "S3"
    else:
        if left is not None and e.sort_key < left.sort_key:
            return "P1"
        if up is not None and e.sort_key < up.sort_key:
            return "P2"
        if e.primed and left == e:
            return "P3"
        if not e.primed and up == e:
            return "P4"
        if kind == "primedP" and e.primed and i == j:
            return "P5"
    return None


def check(t: Tableau) -> None:
    """Raise InvalidTableau naming the first rule ``t`` violates (see validate)."""
    v = validate(t)
    if v is not None:
        raise InvalidTableau(f"rule {v.rule} violated at {v.cell}")


def _alphabet(kind: str, n: int) -> list[CellEntry]:
    primes = (True, False) if KINDS[kind][2] else (False,)
    return [CellEntry(k, primed) for k in range(1, n + 1) for primed in primes]


def enumerate_tableaux(kind: str, shape, n: int) -> Iterator[Tableau]:
    """All valid fillings, each exactly once, in row-major / entry-ascending order.

    ``n = 0`` is the empty alphabet, so only the empty shape has a filling.
    """
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    order = diagram_cells(kind, shape)
    alphabet = _alphabet(kind, n)
    cells: dict = {}

    def entries(filled):
        i, j = order[len(filled)]
        for e in alphabet:
            if _violation(kind, cells, i, j, e) is None:
                cells[(i, j)] = e  # left set on backing out: _violation reads only earlier cells
                yield e

    return (
        Tableau(kind, shape, n, dict(zip(order, filled)))
        for filled in depth_first(entries, lambda filled: len(filled) == len(order))
    )


@functools.cache
def cell_weight(kind: str, i: int, j: int, k: int, primed: bool) -> poly.Polynomial:
    """Weight of the entry k (k' when ``primed``) in cell (i, j) of an sst or
    primed tableau, built once per process.

    sst: x_k + a_{k+j-i}.  Primed kinds: x_k + a_{j-i} for k and
    y_k - a_{j-i} for k', with a_0 = 0, so x_k or y_k on the diagonal (k'
    there only in the Q class).
    """
    if kind == "sst":
        return poly.x(k) + poly.a(k + j - i)
    if primed:
        return poly.y(k) - poly.a(j - i)
    return poly.x(k) + poly.a(j - i)


def weight(t: Tableau) -> poly.Polynomial:
    """Product of cell weights; raises InvalidTableau on an invalid filling.

    sst and primed cells weigh :func:`cell_weight`.  Shifted tableaux carry the
    collapsed weights: x_k on the diagonal, x_k + a_{j-i} under a repeat to the
    left, y_k - a_{j-i} above a repeat below, else x_k + y_k.
    """
    check(t)
    cells = dict(t.cells)
    factors = []
    for (i, j), e in sorted(cells.items()):
        k = e.value
        if t.kind != "shifted":
            factors.append(cell_weight(t.kind, i, j, k, e.primed))
        elif i == j:
            factors.append(poly.x(k))
        elif cells.get((i, j - 1)) == e:
            factors.append(poly.x(k) + poly.a(j - i))
        elif cells.get((i + 1, j)) == e:
            factors.append(poly.y(k) - poly.a(j - i))
        else:
            factors.append(poly.x(k) + poly.y(k))
    return poly.product(factors)


def strip_sum(kind: str, outer: tuple, inner: tuple, ring_map=None) -> poly.Polynomial:
    """Weighted sum over the fillings of the strip ``outer / inner`` by the
    letter ``k = len(outer)`` (k and k' for the primed kinds), ``ring_map`` (a
    homomorphism), if any, substituted into each cell factor before the product.

    ``outer`` and ``inner`` are the row lengths of the cells holding entries
    ``<= k`` and ``<= k - 1``: a k-tuple and a (k-1)-tuple from
    ``shapes.interlacing(outer, ...)``, so that the strip has at most one cell
    in each column of an sst diagram.  In a primed tableau the strip's k'
    cells form a vertical strip and its k cells a horizontal one: a cell with
    a strip cell to its left holds k, a cell with a strip cell below it holds
    k', and any other cell holds either (only k on the diagonal of a primedP
    tableau).  Interlacing leaves no cell with both neighbours, so the cells
    choose independently and the sum is a product over the cells.
    """
    k = len(outer)
    inner = inner + (0,)
    factors = []
    for i, (lo, hi) in enumerate(zip(inner, outer), start=1):
        if kind == "sst":
            factors.extend(cell_weight(kind, i, j, k, False) for j in range(lo + 1, hi + 1))
            continue
        if lo == hi:
            continue
        j = i + lo  # the first strip cell of row i; the others hold k
        if i < k and lo == outer[i] and inner[i] < outer[i]:
            # the strip of row i + 1 ends in column j, under this cell
            factors.append(cell_weight(kind, i, j, k, True))
        elif kind == "primedP" and i == j:
            factors.append(cell_weight(kind, i, j, k, False))
        else:
            factors.append(
                cell_weight(kind, i, j, k, True) + cell_weight(kind, i, j, k, False)
            )
        factors.extend(cell_weight(kind, i, jj, k, False) for jj in range(j + 1, i + hi))
    return poly.product([poly.substitute(f, ring_map) for f in factors] if ring_map else factors)


def sst_count(shape: Partition, n: int) -> int:
    """Hook-content product formula for |T^shape[n]| (independent count oracle)."""
    parts = [p for p in shape.parts if p > 0]
    cols = conjugate(shape).parts
    numerator = denominator = 1
    for i, p in enumerate(parts, start=1):
        for j in range(1, p + 1):
            numerator *= n + j - i
            denominator *= (p - j) + (cols[j - 1] - i) + 1
    count, remainder = divmod(numerator, denominator)
    assert remainder == 0
    return count
