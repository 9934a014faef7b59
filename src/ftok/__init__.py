"""Exact combinatorics of factorial Schur P/Q functions.

Laurent-polynomial arithmetic, tableau and lattice-path enumeration, the
Gelfand-Tsetlin / ASM / compass-point bijection web, six-vertex partition
functions, a verification harness for the identities tying them together, and
the on-disk cache of ``ftok sf`` tableau sums.
"""

__version__ = "0.1.0"

__all__ = [
    "poly",
    "shapes",
    "tableaux",
    "symfun",
    "paths",
    "combin",
    "sixvertex",
    "harness",
    "sfcache",
]
