"""Square ice partition functions and configuration rendering.

Configurations are represented by compass point matrices; the square-ice
picture is a rendering.  ``ice_sum`` sums a weight of the compass rows over
the admissible configurations for the boundary shape mu + delta, by row
transfer; a partition function is its sum of Boltzmann row weights.
"""

from __future__ import annotations

from . import combin, poly
from .shapes import Partition, shape_for


def ice_sum(mu: Partition, n: int, row_weight) -> poly.Polynomial:
    """Sum over the ice of boundary shape mu + delta of the product of
    ``row_weight(letters, i)`` over its rows i, ``letters`` being row i's
    compass letters.

    A configuration's row i is fixed by its Gelfand-Tsetlin rows i - 1 and i
    (``combin.cpm_row``), so this is one ``combin.gt_row_sum``.
    """
    if n < 1:
        raise combin.InvalidShape(f"n must be at least 1, got {n}")
    lam = shape_for(mu, n, "delta")
    width = lam.breadth()
    return combin.gt_row_sum(
        lam, lambda i, row, lower: row_weight(combin.cpm_row(lower, row, width), i)
    )


def partition_function(mu: Partition, n: int, variant: str) -> poly.Polynomial:
    """The ``ice_sum`` of the Boltzmann row weights of ``variant``."""
    table = combin.BoltzmannTable(variant)
    return ice_sum(mu, n, lambda letters, i: combin.cpm_row_weight(letters, i, table))


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
            if letter not in combin.CPM_LETTERS:
                raise combin.InvalidCPM(f"unknown entry {letter!r}")
            r, col = 2 * i - 1, 2 * j - 1
            grid[r][col] = "+"
            grid[r - 1][col] = "v" if "N" in letter else "^"
            grid[r + 1][col] = "^" if "S" in letter else "v"
            grid[r][col - 1] = ">" if "W" in letter else "<"
            grid[r][col + 1] = "<" if "E" in letter else ">"
    return "\n".join("".join(row).rstrip() for row in grid)
