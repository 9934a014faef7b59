"""Non-intersecting lattice path families for the two determinant formulas.

Two conventions are supported, keyed by the tableau kind they encode:

* ``sst``: path i runs from (i, n-i+1) to (n+1, mu_i+n-i+1) with H/V steps
  and a final V step.  The ell-th H edge of path i sits at lattice row
  t(i, ell) and ends in column n-i+ell+1; an H edge at row k ending in
  column j weighs x_k + a_{k+j-n-1}, V edges weigh 1.
* ``pst``: path i runs from (i, 0) to (n+1, lambda_i) with H/V/D steps,
  first step H and last step V.  The first H edge at row k weighs x_k; a
  later H edge ending (k, c) weighs x_k + a_{c-1}; a D edge ending (k, c)
  weighs y_k - a_{c-1}.

Paths of a family may not share any lattice point.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from . import poly, tableaux
from .shapes import FrozenValue, Partition, StrictPartition
from .tableaux import CellEntry, InvalidTableau, Tableau


class MalformedFamily(ValueError):
    pass


class IntersectingPaths(ValueError):
    pass


# the (row, column) change of each step letter
STEPS = {"H": (0, 1), "V": (1, 0), "D": (1, 1)}


class LatticePath(FrozenValue):
    __slots__ = ("start", "steps")  # (row, column), letters of STEPS

    def __init__(self, start: tuple[int, int], steps: str):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)

    def walk(self) -> Iterator[tuple[str, int, int]]:
        """Yield (step, row, column) after each step."""
        r, c = self.start
        for s in self.steps:
            try:
                dr, dc = STEPS[s]
            except KeyError:
                raise MalformedFamily(f"unknown step {s!r}") from None
            r += dr
            c += dc
            yield s, r, c

    def points(self) -> list[tuple[int, int]]:
        return [self.start] + [(r, c) for _, r, c in self.walk()]


class PathFamily(FrozenValue):
    # sst or pst, int, Partition | StrictPartition, tuple of LatticePath
    __slots__ = ("kind", "n", "shape", "paths")

    def __init__(self, kind, n, shape, paths):
        if kind not in ("sst", "pst"):
            raise MalformedFamily(f"unknown family kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "paths", tuple(paths))


def _endpoints(kind: str, shape, n: int, i: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Start and end of path i (1-based)."""
    if kind == "sst":
        mu = shape.padded(n)
        return (i, n - i + 1), (n + 1, mu[i - 1] + n - i + 1)
    lam = tuple(shape.parts)
    if len(lam) != n:
        raise MalformedFamily("pst shape length must equal n")
    return (i, 0), (n + 1, lam[i - 1])


def _check_grammar(kind: str, path: LatticePath) -> None:
    steps = path.steps
    if not steps or steps[-1] != "V":
        raise MalformedFamily("last step must be V")
    if kind == "sst" and "D" in steps:
        raise MalformedFamily("sst paths admit no D steps")
    if kind == "pst" and steps[0] != "H":
        raise MalformedFamily("pst paths start with an H step")


def validate_family(f: PathFamily) -> None:
    """Raises MalformedFamily / IntersectingPaths; returns None when valid."""
    ends = [_endpoints(f.kind, f.shape, f.n, i) for i in range(1, f.n + 1)]
    if len(f.paths) != f.n:
        raise MalformedFamily(f"expected {f.n} paths, got {len(f.paths)}")
    seen: set[tuple[int, int]] = set()
    for i, (path, (start, end)) in enumerate(zip(f.paths, ends), start=1):
        if path.start != start:
            raise MalformedFamily(f"path {i} starts at {path.start}, want {start}")
        _check_grammar(f.kind, path)
        pts = path.points()
        if pts[-1] != end:
            raise MalformedFamily(f"path {i} ends at {pts[-1]}, want {end}")
        overlap = seen.intersection(pts)
        if overlap:
            raise IntersectingPaths(f"shared lattice point {sorted(overlap)[0]}")
        seen.update(pts)


def tableau_to_paths(t: Tableau) -> PathFamily:
    tableaux.check(t)
    if t.kind == "sst":
        kind, row_lengths = "sst", t.shape.padded(t.n)
    elif t.kind == "primedP":
        kind, row_lengths = "pst", t.shape.parts
    else:
        raise InvalidTableau(f"no path encoding for kind {t.kind!r}")
    cells = t.cell_map()
    paths = []
    for i, length in enumerate(row_lengths, start=1):
        first = 1 if kind == "sst" else i  # column of the row's first cell
        steps = []
        at = i
        for j in range(first, first + length):
            e = cells[(i, j)]
            steps.append("V" * (e.value - at - e.primed) + ("D" if e.primed else "H"))
            at = e.value
        steps.append("V" * (t.n + 1 - at))
        start, _ = _endpoints(kind, t.shape, t.n, i)
        paths.append(LatticePath(start, "".join(steps)))
    fam = PathFamily(kind, t.n, t.shape, paths)
    validate_family(fam)
    return fam


def paths_to_tableau(f: PathFamily) -> Tableau:
    validate_family(f)
    cells = {}
    for i, path in enumerate(f.paths, start=1):
        # an H or D edge ending in column c fills cell (i, c + offset)
        offset = i - f.n - 1 if f.kind == "sst" else i - 1
        for s, r, c in path.walk():
            if s != "V":
                cells[(i, c + offset)] = CellEntry(r, s == "D")
    t = Tableau("sst" if f.kind == "sst" else "primedP", f.shape, f.n, cells)
    v = tableaux.validate(t)
    if v is not None:
        raise MalformedFamily(f"family decodes to rule {v.rule} violation at {v.cell}")
    return t


def _path_weight(kind: str, n: int, path: LatticePath) -> poly.Polynomial:
    factors = []
    for s, r, c in path.walk():
        if s == "D":
            factors.append(poly.y(r) - poly.a(c - 1))
        elif s == "V":
            continue
        elif kind == "sst":
            # path i starts at (i, n - i + 1) and only moves right or down, so
            # the a index r + c - n - 1 of an H edge ending at (r, c) is >= 1
            factors.append(poly.x(r) + poly.a(r + c - n - 1))
        elif c == 1:
            # a pst path starts in column 0 with an H step: its first H edge
            # is the only one ending in column 1
            factors.append(poly.x(r))
        else:
            factors.append(poly.x(r) + poly.a(c - 1))
    return poly.product(factors)


def paths_weight(f: PathFamily) -> poly.Polynomial:
    validate_family(f)
    return poly.product(_path_weight(f.kind, f.n, p) for p in f.paths)


def _free_paths(kind: str, shape, n: int, i: int) -> list[LatticePath]:
    """All monotone paths for endpoint pair i obeying the step grammar."""
    start, end = _endpoints(kind, shape, n, i)
    moves = "HVD" if kind == "pst" else "HV"
    out: list[LatticePath] = []

    def go(r, c, steps):
        if (r, c) == end:
            if steps.endswith("V"):
                out.append(LatticePath(start, steps))
            return
        if r > end[0] or c > end[1]:
            return
        for s in "H" if kind == "pst" and not steps else moves:
            dr, dc = STEPS[s]
            go(r + dr, c + dc, steps + s)

    go(start[0], start[1], "")
    return out


def nonintersecting_families(kind: str, shape, n: int) -> Iterator[PathFamily]:
    """Families matching start i with end i, pairwise point-disjoint."""
    per_pair = [
        [(path, path.points()) for path in _free_paths(kind, shape, n, i)]
        for i in range(1, n + 1)
    ]
    chosen: list[LatticePath] = []
    used: set[tuple[int, int]] = set()

    def pick(i: int) -> Iterator[PathFamily]:
        if i == n:
            yield PathFamily(kind, n, shape, list(chosen))
            return
        for path, pts in per_pair[i]:
            if used.isdisjoint(pts):
                chosen.append(path)
                used.update(pts)
                yield from pick(i + 1)
                chosen.pop()
                used.difference_update(pts)

    return pick(0)


def nonintersecting_sum(kind: str, shape, n: int) -> poly.Polynomial:
    """Lindstrom-Gessel-Viennot oracle: total weight of disjoint families.

    Each family is validated, and each distinct free path is weighed once per
    call however many families hold it.  A family's last path weight goes to
    :func:`poly.sum_of_products` beside the product of the others, so its last
    product is added straight into the sum.  ``paths_weight`` of each family
    is the oracle of this sum.
    """
    weigh = functools.cache(functools.partial(_path_weight, kind, n))

    def factors(f: PathFamily) -> tuple[poly.Polynomial, poly.Polynomial]:
        validate_family(f)
        *head, last = [weigh(p) for p in f.paths] or [poly.ONE]
        return poly.product(head), last

    return poly.sum_of_products(map(factors, nonintersecting_families(kind, shape, n)))
