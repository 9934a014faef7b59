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

from dataclasses import dataclass
from typing import Iterator

from . import poly, tableaux
from .shapes import Partition, StrictPartition
from .tableaux import CellEntry, InvalidTableau, Tableau


class MalformedFamily(ValueError):
    pass


class IntersectingPaths(ValueError):
    pass


@dataclass(frozen=True)
class LatticePath:
    start: tuple[int, int]
    steps: str  # characters H, V, D

    def points(self) -> list[tuple[int, int]]:
        r, c = self.start
        pts = [(r, c)]
        for s in self.steps:
            if s == "H":
                c += 1
            elif s == "V":
                r += 1
            elif s == "D":
                r += 1
                c += 1
            else:
                raise MalformedFamily(f"unknown step {s!r}")
            pts.append((r, c))
        return pts


@dataclass(frozen=True)
class PathFamily:
    kind: str  # sst or pst
    n: int
    shape: Partition | StrictPartition
    paths: tuple[LatticePath, ...]

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
    return (i, 0), (n + 1, lam[i - 1])


def _check_grammar(kind: str, path: LatticePath) -> None:
    steps = path.steps
    if any(s not in "HVD" for s in steps):
        raise MalformedFamily(f"bad step string {steps!r}")
    if not steps or steps[-1] != "V":
        raise MalformedFamily("last step must be V")
    if kind == "sst" and "D" in steps:
        raise MalformedFamily("sst paths admit no D steps")
    if kind == "pst" and steps[0] != "H":
        raise MalformedFamily("pst paths start with an H step")


def validate_family(f: PathFamily) -> None:
    """Raises MalformedFamily / IntersectingPaths; returns None when valid."""
    if f.kind == "pst" and len(tuple(f.shape.parts)) != f.n:
        raise MalformedFamily("pst shape length must equal n")
    if len(f.paths) != f.n:
        raise MalformedFamily(f"expected {f.n} paths, got {len(f.paths)}")
    seen: set[tuple[int, int]] = set()
    for i, path in enumerate(f.paths, start=1):
        start, end = _endpoints(f.kind, f.shape, f.n, i)
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
        return _sst_to_paths(t)
    if t.kind == "primedP":
        return _pst_to_paths(t)
    raise InvalidTableau(f"no path encoding for kind {t.kind!r}")


def _sst_to_paths(t: Tableau) -> PathFamily:
    n = t.n
    cells = t.cell_map()
    mu = t.shape.padded(n)
    paths = []
    for i in range(1, n + 1):
        row = [cells[(i, j)].value for j in range(1, mu[i - 1] + 1)]
        steps = []
        at = i
        for k in row:
            steps.append("V" * (k - at) + "H")
            at = k
        steps.append("V" * (n + 1 - at))
        paths.append(LatticePath((i, n - i + 1), "".join(steps)))
    fam = PathFamily("sst", n, t.shape, paths)
    validate_family(fam)
    return fam


def _pst_to_paths(t: Tableau) -> PathFamily:
    n = t.n
    cells = t.cell_map()
    lam = tuple(t.shape.parts)
    paths = []
    for i in range(1, n + 1):
        # diagonal d holds the entry of cell (i, i+d-1)
        steps = []
        at = i
        first = True
        for d in range(1, lam[i - 1] + 1):
            e = cells[(i, i + d - 1)]
            k = e.value
            if first:
                steps.append("H")  # diagonal entry i, edge (i,0)->(i,1)
                first = False
            elif e.primed:
                steps.append("V" * (k - 1 - at) + "D")
            else:
                steps.append("V" * (k - at) + "H")
            at = k
        steps.append("V" * (n + 1 - at))
        paths.append(LatticePath((i, 0), "".join(steps)))
    fam = PathFamily("pst", n, t.shape, paths)
    validate_family(fam)
    return fam


def paths_to_tableau(f: PathFamily) -> Tableau:
    validate_family(f)
    if f.kind == "sst":
        cells = {}
        for i, path in enumerate(f.paths, start=1):
            r, _ = path.start
            ell = 0
            for s in path.steps:
                if s == "H":
                    ell += 1
                    cells[(i, ell)] = CellEntry(r)
                else:
                    r += 1
        t = Tableau("sst", f.shape, f.n, cells)
    else:
        cells = {}
        for i, path in enumerate(f.paths, start=1):
            r, c = path.start
            for s in path.steps:
                if s == "H":
                    c += 1
                    cells[(i, i + c - 1)] = CellEntry(r)
                elif s == "D":
                    r, c = r + 1, c + 1
                    cells[(i, i + c - 1)] = CellEntry(r, True)
                else:
                    r += 1
        t = Tableau("primedP", f.shape, f.n, cells)
    v = tableaux.validate(t)
    if v is not None:
        raise MalformedFamily(f"family decodes to rule {v.rule} violation at {v.cell}")
    return t


def _path_weight(kind: str, n: int, path: LatticePath) -> poly.Polynomial:
    r, c = path.start
    factors = []
    first = True
    for s in path.steps:
        if s == "H":
            c += 1
            if kind == "sst":
                idx = r + c - n - 1
                if idx < 0:
                    raise MalformedFamily(f"H edge at ({r},{c}) has no weight")
                factors.append(poly.x(r) + poly.a(idx))
            elif first:
                factors.append(poly.x(r))
            else:
                factors.append(poly.x(r) + poly.a(c - 1))
            first = False
        elif s == "D":
            r += 1
            c += 1
            factors.append(poly.y(r) - poly.a(c - 1))
            first = False
        else:
            r += 1
    return poly.product(factors)


def paths_weight(f: PathFamily) -> poly.Polynomial:
    validate_family(f)
    return poly.product(_path_weight(f.kind, f.n, p) for p in f.paths)


def _free_paths(kind: str, shape, n: int, i: int) -> list[LatticePath]:
    """All monotone paths for endpoint pair i obeying the step grammar."""
    start, end = _endpoints(kind, shape, n, i)
    out: list[LatticePath] = []

    def go(r, c, steps):
        if (r, c) == end:
            if steps and steps[-1] == "V" and (kind != "pst" or steps[0] == "H"):
                out.append(LatticePath(start, "".join(steps)))
            return
        if r > end[0] or c > end[1]:
            return
        if kind == "pst" and not steps:
            go(r, c + 1, ["H"])
            return
        go(r, c + 1, steps + ["H"])
        go(r + 1, c, steps + ["V"])
        if kind == "pst":
            go(r + 1, c + 1, steps + ["D"])

    go(start[0], start[1], [])
    return out


def nonintersecting_families(kind: str, shape, n: int) -> Iterator[PathFamily]:
    """Families matching start i with end i, pairwise point-disjoint."""
    per_pair = [_free_paths(kind, shape, n, i) for i in range(1, n + 1)]
    chosen: list[LatticePath] = []
    used: set[tuple[int, int]] = set()

    def pick(i: int) -> Iterator[PathFamily]:
        if i == n:
            yield PathFamily(kind, n, shape, list(chosen))
            return
        for path in per_pair[i]:
            pts = path.points()
            if used.isdisjoint(pts):
                chosen.append(path)
                used.update(pts)
                yield from pick(i + 1)
                chosen.pop()
                used.difference_update(pts)

    return pick(0)


def nonintersecting_sum(kind: str, shape, n: int) -> poly.Polynomial:
    """Lindstrom-Gessel-Viennot oracle: total weight of disjoint families."""
    return poly.poly_sum(
        paths_weight(f) for f in nonintersecting_families(kind, shape, n)
    )
