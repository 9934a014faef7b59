"""Strict Gelfand-Tsetlin patterns, alternating sign matrices, compass point
matrices, and the weight functions tying them to shifted tableaux, row by row;
``row_transfer`` sums a row weight over all chains of interlacing rows.

GT pattern rows are stored bottom-up: ``rows[0]`` is the single bottom entry
and ``rows[n-1]`` is the top row (the shape).  ASM rows run top-down, so ASM
row i pairs with pattern rows i and i-1.  An ASM is valid when its partial
column sums are 0 or 1 and form a strict pattern with its shape as the top
row; ``gtp_from_asm`` is that one check.  ``cpm_row`` is the one rule for row
i of the ice: ``asm_from_gtp`` and ``cpm_from_asm`` read every row through it,
and ``asm_from_cpm`` maps its letters to ASM entries.  ``VARIANTS`` are the
keys of ``BOLTZMANN_WEIGHTS``, the one Boltzmann weight table.  The pattern
row weights, ``gtp_row_weight`` and Tokuyama's ``tokuyama_row_weight``, both
read a row's ``row_labels``.
"""

from __future__ import annotations

import functools

from . import poly, tableaux
from .shapes import FrozenValue, StrictPartition, depth_first, interlacing, is_int
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


def check_letter(letter) -> None:
    """Raise InvalidCPM unless ``letter`` is one of ``CPM_LETTERS``."""
    if letter not in CPM_LETTERS:
        raise InvalidCPM(f"unknown entry {letter!r}")


class GTPattern(FrozenValue):
    __slots__ = ("rows",)  # tuple of int tuples; rows[i-1] has i entries, bottom-up

    def __init__(self, rows):
        super().__init__(tuple(tuple(r) for r in rows))

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


class _IceMatrix:
    """The JSON codec of ``ASM`` and ``CPM``; ``from_json`` raises the class's ``error``."""

    __slots__ = ()

    def __init__(self, entries, shape):
        super().__init__(tuple(tuple(r) for r in entries), shape)

    def to_json(self) -> dict:
        return {"entries": [list(r) for r in self.entries], "shape": list(self.shape.parts)}

    @classmethod
    def from_json(cls, data: dict):
        try:
            return cls(data["entries"], StrictPartition(data["shape"]))
        except (KeyError, TypeError) as e:
            raise cls.error(f"malformed {cls.__name__} JSON: {e!r}") from e


class ASM(_IceMatrix, FrozenValue):
    __slots__ = ("entries", "shape")  # int rows top-down, StrictPartition
    error = InvalidASM

    def dims(self) -> tuple[int, int]:
        return len(self.entries), self.shape.breadth()


def validate_asm(a: ASM) -> None:
    """Raise InvalidASM unless the partial column sums of ``a`` are 0 or 1
    and form a strict pattern with its shape as the top row."""
    gtp_from_asm(a)


class CPM(_IceMatrix, FrozenValue):
    __slots__ = ("entries", "shape")  # rows of CPM_LETTERS, StrictPartition
    error = InvalidCPM

    def dims(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0]) if self.entries else 0

    def count(self, letter: str) -> int:
        return sum(r.count(letter) for r in self.entries)


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
    """The pattern (monotone triangle) whose row i holds, in decreasing order,
    the columns where ASM rows 1..i sum to 1.  The one ASM check: InvalidASM,
    naming the row where it shows, unless these partial column sums are 0 or
    1 and form a strict pattern with the shape as the top row."""
    n, m = a.dims()
    if len(a.shape.parts) != n or a.shape.length() != n:
        raise InvalidASM(f"an ASM with {n} rows needs {n} positive parts, got {a.shape.parts}")
    if any(len(r) != m for r in a.entries):
        raise InvalidASM(f"rows must have {m} columns")
    if any(not is_int(v) or v not in (-1, 0, 1) for r in a.entries for v in r):
        raise InvalidASM("entries must be integers in {-1, 0, 1}")
    rows = []
    sums = [0] * m
    for i, entries in enumerate(a.entries, start=1):
        sums = [s + v for s, v in zip(sums, entries)]
        for j, s in enumerate(sums, start=1):
            if s not in (0, 1):
                raise InvalidASM(f"row {i} leaves column {j} a partial sum of {s}, want 0 or 1")
        rows.append(tuple(j for j in range(m, 0, -1) if sums[j - 1]))
    g = GTPattern(rows)
    try:
        validate_gtp(g)
    except InvalidPattern as e:  # pattern row i holds the sums of ASM rows 1..i
        raise InvalidASM(f"partial column sums are not a strict pattern: {e}") from e
    if g.rows[-1] != a.shape.parts:
        raise InvalidASM(f"columns {g.rows[-1]} sum to 1, want the shape {a.shape.parts}")
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

# variant -> compass letter -> its weight at row i, column j; other letters weigh 1
BOLTZMANN_WEIGHTS = {
    "general": {
        "NS": lambda i, j: poly.x(i) + poly.y(i),
        "NW": lambda i, j: poly.y(i) - poly.a(j),
        "SW": lambda i, j: poly.x(i) + poly.a(j),
    },
    "bmn": {
        "NS": lambda i, j: (poly.ONE + poly.t()) * poly.z(i),
        "NE": lambda i, j: poly.t(),
        "NW": lambda i, j: poly.z(i) - poly.t() * poly.alpha(j),
        "SW": lambda i, j: poly.z(i) + poly.alpha(j),
    },
    "lascoux": {
        "NS": lambda i, j: -(poly.x(i) * poly.var_poly(poly.variable("a", j), -1)),
        "SW": lambda i, j: -(poly.x(i) * poly.var_poly(poly.variable("a", j), -1) + poly.ONE),
    },
}
VARIANTS = tuple(BOLTZMANN_WEIGHTS)


class BoltzmannTable(FrozenValue):
    __slots__ = ("variant",)  # one of VARIANTS

    def __init__(self, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; known: {', '.join(VARIANTS)}")
        super().__init__(variant)

    def weight_of(self, letter: str, i: int, j: int) -> poly.Polynomial:
        check_letter(letter)
        return _boltzmann_weight(self.variant, letter, i, j)


@functools.cache
def _boltzmann_weight(variant: str, letter: str, i: int, j: int) -> poly.Polynomial:
    """The ``BOLTZMANN_WEIGHTS`` entry of a checked letter, built once per process."""
    rule = BOLTZMANN_WEIGHTS[variant].get(letter)
    return rule(i, j) if rule else poly.ONE


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


def gtp_row_weight(i: int, row: tuple[int, ...], lower: tuple[int, ...]) -> poly.Polynomial:
    """The factors of ``weight_gtp`` that row i contributes, with row i - 1
    (``lower``, empty for the bottom row) beneath it."""
    factors = [poly.x(i) + poly.a(k) for k in range(row[-1])]
    for top, mid, label in zip(row, lower, row_labels(row, lower)):
        if label == "B":
            factors.append(poly.x(i) + poly.y(i))
        elif label == "R":
            factors.append(poly.y(i) - poly.a(mid))
        factors.extend(poly.x(i) + poly.a(k) for k in range(mid + 1, top))
    return poly.product(factors)


def tokuyama_row_weight(i: int, row: tuple[int, ...], lower: tuple[int, ...]) -> poly.Polynomial:
    """Tokuyama's weight of pattern row i over ``lower``: t^#R (1 + t)^#B
    over the row's labels, times x_i^(|row| - |lower|)."""
    labels = row_labels(row, lower)
    return (
        poly.var_poly(poly.variable("t"), labels.count("R"))
        * (poly.ONE + poly.t()) ** labels.count("B")
        * poly.var_poly(poly.variable("x", i), sum(row) - sum(lower))
    )


def weight_gtp(g: GTPattern) -> poly.Polynomial:
    validate_gtp(g)
    rows = ((),) + g.rows
    return poly.product(gtp_row_weight(i, rows[i], rows[i - 1]) for i in range(1, g.n() + 1))


# -- enumeration --------------------------------------------------------

def _check_top(top: StrictPartition) -> None:
    # a StrictPartition has at most one zero part, its last, so every
    # nonempty one is a top row
    if not top.parts:
        raise InvalidShape(f"top row {top.parts} is not a valid shape")


def enumerate_gtp(top: StrictPartition):
    """All strict patterns with the given top row, in decreasing lexicographic order of rows."""
    _check_top(top)

    def lowers(rows):  # rows: the top row, then the rows below it so far
        return interlacing(rows[-1], strict=True) if rows else [tuple(top.parts)]

    for rows in depth_first(lowers, lambda rows: len(rows) > 0 and len(rows[-1]) == 1):
        yield GTPattern(reversed(rows))


# (row weight, its arguments, strict) -> {row: H(row)}, the memos of ``row_transfer``
_ROW_SUMS: dict = {}


def row_transfer(top: tuple[int, ...], strict: bool, row_weight, *args) -> poly.Polynomial:
    """Sum over the chains ``top = row_k, row_(k-1), ..., row_0 = ()`` of rows
    from ``shapes.interlacing(row_i, strict)`` of the product of
    ``row_weight(i, row_i, row_(i-1), *args)``.

    Row transfer: ``H(row) = sum_lower row_weight(len(row), row, lower, *args)
    * H(lower)`` from ``H(()) = 1``.  ``H(row)`` depends on the row, the row
    weight and its arguments only, not on ``top``, so it is memoised on the
    row in one memo per ``(row_weight, args, strict)`` for the life of the
    process: each row is summed once per process however many chains and tops
    reach it.  So a row weight must read nothing but its arguments, and
    those must be hashable.  A lower row of row weight 0 is skipped, never
    summed.  One loop over a stack of (row, its (row weight, lower row) pairs,
    its lower rows) sums a lower row not in the memo first, so no chain needs
    stack depth, and ``H(row)`` is one :func:`poly.sum_of_products` call on
    its pairs.
    """
    memo = _ROW_SUMS.setdefault((row_weight, args, strict), {(): poly.ONE})
    stack = [] if top in memo else [(top, [], interlacing(top, strict))]
    while stack:
        row, pairs, lowers = stack[-1]
        for lower in lowers:
            if weight := row_weight(len(row), row, lower, *args):
                pairs.append((weight, lower))
                if lower not in memo:
                    stack.append((lower, [], interlacing(lower, strict)))
                    break
        else:
            stack.pop()
            memo[row] = poly.sum_of_products((w, memo[lower]) for w, lower in pairs)
    return memo[top]


def gt_row_sum(top: StrictPartition, row_weight, *args) -> poly.Polynomial:
    """Sum over the strict patterns with top row ``top`` of the product of
    ``row_weight(i, row, lower, *args)`` over their rows i (``lower`` is row
    i - 1, empty for the bottom row), as one :func:`row_transfer`.  The sum
    over ``enumerate_gtp(top)`` is its oracle.
    """
    _check_top(top)
    return row_transfer(tuple(top.parts), True, row_weight, *args)


def enumerate_asm(shape: StrictPartition):
    for g in enumerate_gtp(shape):
        yield asm_from_gtp(g)
