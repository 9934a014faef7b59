"""Strict Gelfand-Tsetlin patterns, alternating sign matrices, compass point
matrices, and the weight functions tying them to shifted tableaux, row by row;
``row_transfer`` sums a row weight over all chains of interlacing rows.

GT pattern rows are stored bottom-up: ``rows[0]`` is the single bottom entry
and ``rows[n-1]`` is the top row (the shape).  ASM rows run top-down, so ASM
row i pairs with pattern rows i and i-1.  ``cpm_row`` is the one rule for row
i of the ice: ``asm_from_gtp`` and ``cpm_from_asm`` read every row through it,
and ``asm_from_cpm`` maps its letters to ASM entries.  ``VARIANTS`` lists the
Boltzmann weight tables that ``BoltzmannTable`` accepts.
"""

from __future__ import annotations

from . import poly, tableaux
from .shapes import FrozenValue, StrictPartition, interlacing, is_int
from .tableaux import CellEntry, InvalidTableau, Tableau

CPM_LETTERS = ("WE", "NS", "NE", "SE", "NW", "SW")


class InvalidPattern(ValueError):
    pass


class InvalidASM(ValueError):
    pass


class InvalidCPM(ValueError):
    pass


class InvalidShape(ValueError):
    pass


class GTPattern(FrozenValue):
    __slots__ = ("rows",)  # tuple of int tuples; rows[i-1] has i entries, bottom-up

    def __init__(self, rows):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """m_{ij}, 1-based; m_{j-1, j} is 0 by convention."""
        if i == j - 1:
            return 0
        return self.rows[i - 1][j - 1]

    def top(self) -> StrictPartition:
        return StrictPartition(self.rows[-1])

    def to_json(self) -> dict:
        return {"rows": [list(r) for r in self.rows]}

    @staticmethod
    def from_json(data: dict) -> "GTPattern":
        try:
            return GTPattern(data["rows"])
        except (KeyError, TypeError) as e:
            raise InvalidPattern(f"malformed GTPattern JSON: {e!r}") from e


def validate_gtp(g: GTPattern) -> None:
    rows = g.rows
    n = len(rows)
    if n == 0:
        raise InvalidPattern("empty pattern")
    for i, row in enumerate(rows, start=1):
        if len(row) != i:
            raise InvalidPattern(f"row {i} has {len(row)} entries, want {i}")
        if any(not is_int(v) or v < 0 for v in row):
            raise InvalidPattern(f"row {i} has an entry that is not a nonnegative integer")
        if any(row[j] <= row[j + 1] for j in range(i - 1)):
            raise InvalidPattern(f"row {i} not strictly decreasing: {row}")
    for i in range(2, n + 1):
        upper, lower = rows[i - 1], rows[i - 2]
        for j in range(1, i):
            if not upper[j - 1] >= lower[j - 1] >= upper[j]:
                raise InvalidPattern(f"betweenness fails at ({i},{j})")


class ASM(FrozenValue):
    __slots__ = ("entries", "shape")  # int rows top-down, StrictPartition

    def __init__(self, entries, shape):
        object.__setattr__(self, "entries", tuple(tuple(r) for r in entries))
        object.__setattr__(self, "shape", shape)

    def dims(self) -> tuple[int, int]:
        return len(self.entries), self.shape.breadth()

    def to_json(self) -> dict:
        return {
            "entries": [list(r) for r in self.entries],
            "shape": list(self.shape.parts),
        }

    @staticmethod
    def from_json(data: dict) -> "ASM":
        try:
            return ASM(data["entries"], StrictPartition(data["shape"]))
        except (KeyError, TypeError) as e:
            raise InvalidASM(f"malformed ASM JSON: {e!r}") from e


def validate_asm(a: ASM) -> None:
    n, m = a.dims()
    lam = set(p for p in a.shape.parts if p > 0)
    if len(a.shape.parts) != n or a.shape.length() != n:
        raise InvalidASM("shape length must match the row count")
    if any(len(r) != m for r in a.entries):
        raise InvalidASM(f"rows must have {m} columns")
    if any(not is_int(v) or v not in (-1, 0, 1) for r in a.entries for v in r):
        raise InvalidASM("entries must be integers in {-1, 0, 1}")
    for i, row in enumerate(a.entries, start=1):
        nz = [v for v in row if v]
        if not nz or nz[0] != 1 or nz[-1] != 1:
            raise InvalidASM(f"row {i} must start and end its nonzeros with 1")
        if any(nz[k] == nz[k + 1] for k in range(len(nz) - 1)):
            raise InvalidASM(f"row {i} nonzeros do not alternate")
    for j in range(m):
        col = [a.entries[i][j] for i in range(n)]
        nz = [v for v in col if v]
        if any(nz[k] == nz[k + 1] for k in range(len(nz) - 1)):
            raise InvalidASM(f"column {j + 1} nonzeros do not alternate")
        if nz and nz[0] != 1:
            raise InvalidASM(f"column {j + 1} must start its nonzeros with 1")
        want = 1 if (j + 1) in lam else 0
        if sum(col) != want:
            raise InvalidASM(f"column {j + 1} sums to {sum(col)}, want {want}")


class CPM(FrozenValue):
    __slots__ = ("entries", "shape")  # rows of CPM_LETTERS, StrictPartition

    def __init__(self, entries, shape):
        object.__setattr__(self, "entries", tuple(tuple(r) for r in entries))
        object.__setattr__(self, "shape", shape)

    def dims(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0]) if self.entries else 0

    def count(self, letter: str) -> int:
        return sum(r.count(letter) for r in self.entries)

    def to_json(self) -> dict:
        return {
            "entries": [list(r) for r in self.entries],
            "shape": list(self.shape.parts),
        }

    @staticmethod
    def from_json(data: dict) -> "CPM":
        try:
            return CPM(data["entries"], StrictPartition(data["shape"]))
        except (KeyError, TypeError) as e:
            raise InvalidCPM(f"malformed CPM JSON: {e!r}") from e


# -- shifted tableau <-> GT pattern -------------------------------------

def gtp_from_shifted(s: Tableau) -> GTPattern:
    if s.kind != "shifted":
        raise InvalidTableau("expected a shifted tableau")
    tableaux.check(s)
    n = s.n
    cells = s.cell_map()
    rows = []
    for i in range(1, n + 1):
        rows.append(
            tuple(
                sum(1 for (r, _), e in cells.items() if r == j and e.value <= i)
                for j in range(1, i + 1)
            )
        )
    g = GTPattern(rows)
    validate_gtp(g)
    return g


def shifted_from_gtp(g: GTPattern) -> Tableau:
    validate_gtp(g)
    n = g.n()
    cells = {}
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            for pos in range(g.entry(k - 1, j) + 1, g.entry(k, j) + 1):
                cells[(j, j - 1 + pos)] = CellEntry(k)
    return Tableau("shifted", g.top(), n, cells)


# -- GT pattern <-> ASM -------------------------------------------------

def asm_from_gtp(g: GTPattern) -> ASM:
    validate_gtp(g)
    return asm_from_cpm(CPM(_ice_rows(g), g.top()))


def gtp_from_asm(a: ASM) -> GTPattern:
    validate_asm(a)
    n, m = a.dims()
    rows = []
    acc = [0] * m
    for i in range(n):
        for j in range(m):
            acc[j] += a.entries[i][j]
        present = sorted((j + 1 for j in range(m) if acc[j] == 1), reverse=True)
        rows.append(tuple(present))
    g = GTPattern(rows)
    validate_gtp(g)
    return g


# -- ASM -> CPM ---------------------------------------------------------

def cpm_row(above, below, width: int) -> tuple[str, ...]:
    """Compass letters of one row of ice, columns 1..width.

    ``above`` and ``below`` hold the columns whose partial column sum of the
    ASM is 1 before and after this row: the Gelfand-Tsetlin rows i - 1 and i
    (a 0 entry names no column).  An entry is the change of that sum; a zero
    entry reads N when the sum above it is 1 and W when the nearest nonzero
    entry to its right is a 1.
    """
    letters = []
    east_one = False
    for j in range(width, 0, -1):
        v = (j in below) - (j in above)
        if v == 1:
            letters.append("WE")
        elif v == -1:
            letters.append("NS")
        else:
            letters.append(("N" if j in above else "S") + ("W" if east_one else "E"))
        if v:
            east_one = v == 1
    return tuple(reversed(letters))


def _ice_rows(g: GTPattern) -> list[tuple[str, ...]]:
    """The compass rows of a valid pattern's ice: row i is ``cpm_row`` of
    pattern rows i - 1 and i, as wide as the top row's largest entry."""
    width = g.rows[-1][0]
    return [cpm_row(above, below, width) for above, below in zip(((),) + g.rows, g.rows)]


def cpm_from_asm(a: ASM) -> CPM:
    return CPM(_ice_rows(gtp_from_asm(a)), a.shape)


def asm_from_cpm(c: CPM) -> ASM:
    table = {"WE": 1, "NS": -1}
    entries = [[table.get(v, 0) for v in row] for row in c.entries]
    a = ASM(entries, c.shape)
    validate_asm(a)
    return a


# -- weights ------------------------------------------------------------

VARIANTS = ("general", "bmn", "lascoux")


class BoltzmannTable(FrozenValue):
    __slots__ = ("variant",)  # one of VARIANTS

    def __init__(self, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; known: {', '.join(VARIANTS)}")
        object.__setattr__(self, "variant", variant)

    def weight_of(self, letter: str, i: int, j: int) -> poly.Polynomial:
        if letter not in CPM_LETTERS:
            raise InvalidCPM(f"unknown entry {letter!r}")
        if self.variant == "general":
            if letter == "NS":
                return poly.x(i) + poly.y(i)
            if letter == "NW":
                return poly.y(i) - poly.a(j)
            if letter == "SW":
                return poly.x(i) + poly.a(j)
            return poly.ONE
        if self.variant == "bmn":
            if letter == "NS":
                return (poly.ONE + poly.t()) * poly.z(i)
            if letter == "NE":
                return poly.t()
            if letter == "NW":
                return poly.z(i) - poly.t() * poly.alpha(j)
            if letter == "SW":
                return poly.z(i) + poly.alpha(j)
            return poly.ONE
        ainv = poly.var_poly(poly.variable("a", j), -1)  # lascoux
        if letter == "NS":
            return -(poly.x(i) * ainv)
        if letter == "SW":
            return -(poly.x(i) * ainv + poly.ONE)
        return poly.ONE


def cpm_row_weight(letters, i: int, table: BoltzmannTable) -> poly.Polynomial:
    """The factors of ``weight_cpm`` that row i, with these letters, contributes.

    A row of the general table also carries the diagonal prefactor x_i.
    """
    factors = [table.weight_of(letter, i, j) for j, letter in enumerate(letters, start=1)]
    if table.variant == "general":
        factors.append(poly.x(i))
    return poly.product(factors)


def weight_cpm(c: CPM, table: BoltzmannTable) -> poly.Polynomial:
    return poly.product(
        cpm_row_weight(letters, i, table) for i, letters in enumerate(c.entries, start=1)
    )


def row_labels(row: tuple[int, ...], lower: tuple[int, ...]) -> list[str]:
    """L/R/B for the triples (row[j], lower[j], row[j + 1]) of one pattern row."""
    return [
        "L" if top == mid else "R" if mid == nxt else "B"
        for top, mid, nxt in zip(row, lower, row[1:])
    ]


def _x_plus_a(i: int, k: int) -> poly.Polynomial:
    # a_0 is taken as 0 here
    return poly.x(i) if k == 0 else poly.x(i) + poly.a(k)


def gtp_row_weight(i: int, row: tuple[int, ...], lower: tuple[int, ...]) -> poly.Polynomial:
    """The factors of ``weight_gtp`` that row i contributes, with row i - 1
    (``lower``, empty for the bottom row) beneath it."""
    factors = [_x_plus_a(i, k) for k in range(row[-1])]
    for top, mid, label in zip(row, lower, row_labels(row, lower)):
        if label == "B":
            factors.append(poly.x(i) + poly.y(i))
        elif label == "R":
            factors.append(poly.y(i) if mid == 0 else poly.y(i) - poly.a(mid))
        factors.extend(_x_plus_a(i, k) for k in range(mid + 1, top))
    return poly.product(factors)


def weight_gtp(g: GTPattern) -> poly.Polynomial:
    validate_gtp(g)
    rows = ((),) + g.rows
    return poly.product(gtp_row_weight(i, rows[i], rows[i - 1]) for i in range(1, g.n() + 1))


# -- enumeration --------------------------------------------------------

def _check_top(top: StrictPartition) -> None:
    n = len(top.parts)
    if n == 0 or top.length() < n - 1:
        raise InvalidShape(f"top row {top.parts} is not a valid shape")


def enumerate_gtp(top: StrictPartition):
    """All strict patterns with the given top row, in deterministic order."""
    _check_top(top)

    def fill(rows_topdown):
        upper = rows_topdown[-1]
        if len(upper) == 1:
            yield GTPattern(reversed(rows_topdown))
            return
        for lower in interlacing(upper, strict=True):
            yield from fill(rows_topdown + [lower])

    yield from fill([tuple(top.parts)])


def row_transfer(top: tuple[int, ...], row_weight, strict: bool) -> poly.Polynomial:
    """Sum over the chains ``top = row_k, row_(k-1), ..., row_0 = ()`` of rows
    from ``shapes.interlacing(row_i, strict)`` of the product of
    ``row_weight(i, row_i, row_(i-1))``.

    Row transfer: ``H(row) = sum_lower row_weight(len(row), row, lower) *
    H(lower)`` from ``H(()) = 1``, memoised on the row for this call only, so
    each row reachable from ``top`` is summed once however many chains pass
    through it.  Each ``H(row)`` is one :func:`poly.sum_of_products` call on
    the (row weight, ``H(lower)``) pairs, so no product is built on its own.
    """
    memo = {(): poly.ONE}

    def h(row):
        got = memo.get(row)
        if got is None:
            got = memo[row] = poly.sum_of_products(
                (row_weight(len(row), row, lower), h(lower))
                for lower in interlacing(row, strict)
            )
        return got

    return h(top)


def gt_row_sum(top: StrictPartition, row_weight) -> poly.Polynomial:
    """Sum over the strict patterns with top row ``top`` of the product of
    ``row_weight(i, row, lower)`` over their rows i (``lower`` is row i - 1,
    empty for the bottom row), as a :func:`row_transfer`.  The sum over
    ``enumerate_gtp(top)`` is its oracle.
    """
    _check_top(top)
    return row_transfer(tuple(top.parts), row_weight, strict=True)


def enumerate_asm(shape: StrictPartition):
    for g in enumerate_gtp(shape):
        yield asm_from_gtp(g)
