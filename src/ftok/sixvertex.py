"""Square ice partition functions and configuration rendering.

Configurations are represented by compass point matrices; the square-ice
picture is a rendering.  ``ice_sum`` sums a weight of the compass rows over
the admissible configurations for the boundary shape mu + delta, by row
transfer; a partition function is its sum of Boltzmann row weights, and
lemma 4 its sum of t^(#SW - #NE).
"""

from __future__ import annotations

from . import combin, poly
from .shapes import Partition, shape_for


def ice_sum(mu: Partition, n: int, row_weight, *args) -> poly.Polynomial:
    """Sum over the ice of boundary shape mu + delta of the product of
    ``row_weight(letters, i, *args)`` over its rows i, ``letters`` being row
    i's compass letters.

    A configuration's row i is fixed by its Gelfand-Tsetlin rows i - 1 and i
    (``combin.cpm_row``), so this is one ``combin.gt_row_sum`` of
    :func:`_ice_row`.  Each row is read over columns 1..row[0] only, so that
    its weight does not depend on the top row and its sum is shared by every
    top that reaches it.  Neither pattern row holds a column to the right of
    row[0], so every vertex there is ``SE``; ``row_weight`` must not change
    when ``SE`` letters are appended, as ``SE`` weighs 1 in every Boltzmann
    variant and adds nothing to #SW - #NE.
    """
    if n < 1:
        raise combin.InvalidShape(f"n must be at least 1, got {n}")
    return combin.gt_row_sum(shape_for(mu, n, "delta"), _ice_row, row_weight, *args)


def _ice_row(i: int, row: tuple[int, ...], lower: tuple[int, ...], row_weight,
             *args) -> poly.Polynomial:
    """The row weight of :func:`ice_sum`: ``row_weight`` of row i's compass
    letters over columns 1..row[0]."""
    return row_weight(combin.cpm_row(lower, row, row[0]), i, *args)


def partition_function(mu: Partition, n: int, variant: str) -> poly.Polynomial:
    """The ``ice_sum`` of the Boltzmann row weights of ``variant``."""
    return ice_sum(mu, n, combin.cpm_row_weight, combin.BoltzmannTable(variant))


def sw_minus_ne_weight(letters, i: int) -> poly.Polynomial:
    """Lemma 4's statistic of one ice row: t^(#SW - #NE) over its letters."""
    return poly.var_poly(poly.variable("t"), letters.count("SW") - letters.count("NE"))


def render_sic(c: combin.CPM) -> str:
    """ASCII arrow grid, one vertex per entry.

    The compass letters name the incoming edge directions of a vertex, so the
    edge characters follow directly: an arrow points toward the vertex on the
    sides named by its letters and away on the others.
    """
    n, m = c.dims()
    grid = [[" "] * (2 * m + 1) for _ in range(2 * n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            letter = c.entries[i - 1][j - 1]
            combin.check_letter(letter)
            r, col = 2 * i - 1, 2 * j - 1
            grid[r][col] = "+"
            grid[r - 1][col] = "v" if "N" in letter else "^"
            grid[r + 1][col] = "^" if "S" in letter else "v"
            grid[r][col - 1] = ">" if "W" in letter else "<"
            grid[r][col + 1] = "<" if "E" in letter else ">"
    return "\n".join("".join(row).rstrip() for row in grid)
