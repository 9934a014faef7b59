"""Square ice partition functions and configuration rendering.

Configurations are represented by compass point matrices; the square-ice
picture is a rendering.  Partition functions are exact row-transfer sums over
the admissible configurations for the boundary shape mu + delta.
"""

from __future__ import annotations

from . import combin, poly
from .shapes import Partition, shape_for

def partition_function(mu: Partition, n: int, variant: str) -> poly.Polynomial:
    """Sum of configuration weights over the boundary shape mu + delta.

    A configuration's row i is fixed by its Gelfand-Tsetlin rows i - 1 and i,
    so this is ``combin.gt_row_sum`` over the rows' ice weights.
    """
    table = combin.BoltzmannTable(variant)
    lam = shape_for(mu, n, "delta")
    width = lam.breadth()

    def row_weight(i, row, lower):
        return combin.cpm_row_weight(combin.cpm_row(lower, row, width), i, table)

    return combin.gt_row_sum(lam, row_weight)


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
