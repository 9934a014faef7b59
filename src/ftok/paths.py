"""Non-intersecting lattice path families for the two determinant formulas.

Two conventions are supported, keyed by the tableau kind they encode:

* ``sst``: path i runs from (i, n-i+1) to (n+1, mu_i+n-i+1) with H/V steps
  and a final V step.  The ell-th H edge of path i sits at lattice row
  t(i, ell) and ends in column n-i+ell+1; an H edge at row k ending in
  column j weighs x_k + a_{k+j-n-1}, V edges weigh 1.
* ``pst``: path i runs from (i, 0) to (n+1, lambda_i) with H/V/D steps,
  first step H and last step V.  An H edge ending (k, c) weighs
  x_k + a_{c-1} and a D edge ending (k, c) weighs y_k - a_{c-1}, with
  a_0 = 0: the first H edge, the only one ending in column 1, weighs x_k.

Paths of a family may not share any lattice point.  The lattice-path sum
(:func:`row_sweep_sum`) is a :func:`combin.row_transfer` of path-leg weights
down the lattice rows; :func:`nonintersecting_sum` is its family-by-family
oracle.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from . import combin, poly, tableaux
from .shapes import FrozenValue, Partition, StrictPartition, depth_first
from .tableaux import CellEntry, InvalidTableau, Tableau


class MalformedFamily(ValueError):
    pass


class IntersectingPaths(ValueError):
    pass


# the (row, column) change of each step letter
STEPS = {"H": (0, 1), "V": (1, 0), "D": (1, 1)}


class LatticePath(FrozenValue):
    __slots__ = ("start", "steps")  # (row, column), letters of STEPS

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
        super().__init__(kind, n, shape, tuple(paths))


def _endpoints(kind: str, shape, n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) of paths 1..n, once the shape is in the kind's domain:
    an ``sst`` shape fits n rows (else ``MuTooLong``), and a ``pst`` shape has
    exactly n parts, all positive, as a pst path takes at least one H step."""
    if kind == "sst":
        mu = shape.padded(n)
        return [((i, n - i + 1), (n + 1, mu[i - 1] + n - i + 1)) for i in range(1, n + 1)]
    if kind != "pst":
        raise MalformedFamily(f"unknown family kind {kind!r}")
    if len(shape.parts) != n:
        raise MalformedFamily("pst shape length must equal n")
    if 0 in shape.parts:
        raise MalformedFamily(f"pst shape parts must be positive, got {shape.parts}")
    return [((i, 0), (n + 1, part)) for i, part in enumerate(shape.parts, start=1)]


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
    ends = _endpoints(f.kind, f.shape, f.n)
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
    if t.kind not in ("sst", "primedP"):
        raise InvalidTableau(f"no path encoding for kind {t.kind!r}")
    kind = "sst" if t.kind == "sst" else "pst"
    cells = t.cell_map()
    paths = []
    for i, (start, end) in enumerate(_endpoints(kind, t.shape, t.n), start=1):
        first = 1 if kind == "sst" else i  # column of the row's first cell
        steps = []
        at = i
        # row i has one cell per H or D step, each one column right
        for j in range(first, first + end[1] - start[1]):
            e = cells[(i, j)]
            steps.append("V" * (e.value - at - e.primed) + ("D" if e.primed else "H"))
            at = e.value
        steps.append("V" * (t.n + 1 - at))
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


def _edge_weight(kind: str, n: int, step: str, r: int, c: int) -> poly.Polynomial:
    """The weight of a ``step`` edge ending at (r, c)."""
    if step == "V":
        return poly.ONE
    if step == "D":
        return poly.y(r) - poly.a(c - 1)
    if kind == "sst":
        # path i starts at (i, n - i + 1) and only moves right or down, so
        # the a index r + c - n - 1 of an H edge ending at (r, c) is >= 1
        return poly.x(r) + poly.a(r + c - n - 1)
    return poly.x(r) + poly.a(c - 1)


def paths_weight(f: PathFamily) -> poly.Polynomial:
    validate_family(f)
    return poly.product(
        _edge_weight(f.kind, f.n, s, r, c) for path in f.paths for s, r, c in path.walk()
    )


def _free_paths(kind: str, start: tuple[int, int], end: tuple[int, int]) -> list[LatticePath]:
    """All monotone paths from start to end obeying the step grammar, steps in lex order H < V < D."""
    moves = "HVD" if kind == "pst" else "HV"

    def steps(walk):  # walk: the (step, row, column) of each step so far
        _, r, c = walk[-1] if walk else ("", *start)
        for s in "H" if kind == "pst" and not walk else moves:
            dr, dc = STEPS[s]
            # a path stays in the box up to its end and reaches the end by V
            if r + dr <= end[0] and c + dc <= end[1] and (s == "V" or (r + dr, c + dc) != end):
                yield s, r + dr, c + dc

    walks = depth_first(steps, lambda walk: len(walk) > 0 and walk[-1][1:] == end)
    return [LatticePath(start, "".join(s for s, _, _ in walk)) for walk in walks]


def nonintersecting_families(kind: str, shape, n: int) -> Iterator[PathFamily]:
    """Families matching start i with end i, pairwise point-disjoint, in
    lexicographic order of their steps, path by path."""
    per_pair = [[(p, set(p.points())) for p in _free_paths(kind, *ends)] for ends in _endpoints(kind, shape, n)]

    def paths(chosen):  # chosen: the (path, its points) of paths 1..len(chosen)
        return (
            (path, pts) for path, pts in per_pair[len(chosen)]
            if all(pts.isdisjoint(other) for _, other in chosen)
        )

    return (
        PathFamily(kind, n, shape, [path for path, _ in chosen])
        for chosen in depth_first(paths, lambda chosen: len(chosen) == n)
    )


def nonintersecting_sum(kind: str, shape, n: int) -> poly.Polynomial:
    """Lindstrom-Gessel-Viennot oracle: ``paths_weight`` summed family by family."""
    return poly.poly_sum(paths_weight(f) for f in nonintersecting_families(kind, shape, n))


def row_sweep_sum(kind: str, shape, n: int) -> poly.Polynomial:
    """The total weight of the non-intersecting families, as one
    :func:`combin.row_transfer` over lattice rows.

    The state after row r holds how far each path j = 1..r has moved right
    of its start column: its H steps for ``sst``, its entry column into row
    r + 1 for ``pst``.  The top state is mu padded to n, or lambda; path r
    joins row r at 0.  In row r path j runs H steps from its entry e, then
    leaves into row r + 1 at f, so two paths share no point of the row
    exactly when the states interlace, f_j >= e_j >= f_(j+1), weakly for
    ``sst`` and strictly for ``pst``.  With e' the entry column of the path
    to its right, a ``pst`` path may then leave by V when f < e' and by D
    when r < n and f > e.  No path begins by V or D: a ``pst`` top state has
    no 0 part, so no state below it has one, and if path r began by D, so
    would path r + 1, which path n cannot.  V and D edges hold no lattice
    point between their ends, so the row weight, the product of the paths'
    leg sums, counts each family once, as the product of its edge weights.
    :func:`nonintersecting_sum` is its oracle.
    """
    ends = _endpoints(kind, shape, n)
    starts = tuple(start for (_, start), _ in ends)
    top = tuple(end - start for (_, start), (_, end) in ends)
    return combin.row_transfer(top, kind == "pst", _sweep_row, kind, n, starts)


def _sweep_row(r: int, upper: tuple[int, ...], lower: tuple[int, ...], kind: str, n: int,
               starts: tuple[int, ...]) -> poly.Polynomial:
    """The row weight of :func:`row_sweep_sum`: the product of the leg sums of
    paths 1..r in row r, from the states ``lower`` (before the row) to
    ``upper`` (after it), path j starting in column ``starts[j]``."""
    entry = lower + (0,)  # path r enters row r at its start
    return poly.product(
        _leg_sum(kind, n, r, starts[j] + entry[j], starts[j] + upper[j],
                 entry[j - 1] if j and kind == "pst" else None)
        for j in range(r)
    )


@functools.cache
def _leg_sum(kind: str, n: int, r: int, e: int, f: int, right: int | None) -> poly.Polynomial:
    """The summed weight of one path's edges from column e of row r to column
    f of row r + 1, by V only left of column ``right`` (None: anywhere)."""
    legs = [(f, poly.ONE)] if right is None or f < right else []
    if kind == "pst" and r < n and f - 1 >= e:
        legs.append((f - 1, _edge_weight(kind, n, "D", r + 1, f)))
    return poly.sum_of_products(
        (poly.product(_edge_weight(kind, n, "H", r, c) for c in range(e + 1, x + 1)), last)
        for x, last in legs
    )
