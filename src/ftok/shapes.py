"""Partitions, strict partitions, their diagrams and the delta/rho offsets.

Trailing zeros are significant: ``(2, 1)`` and ``(2, 1, 0)`` are different
objects (Gelfand-Tsetlin top rows and the rho offset are zero-sensitive);
``normalized()`` strips them for shape-level comparison.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from operator import attrgetter


class MuTooLong(ValueError):
    """Raised when a partition has more parts than the requested n."""


def is_int(v) -> bool:
    """An int that is not a bool: JSON ``true`` loads as a bool equal to 1."""
    return isinstance(v, int) and not isinstance(v, bool)


class FrozenValue:
    """Base of ftok's immutable value classes.

    A subclass names its fields once, in ``__slots__``, and
    ``FrozenValue.__init__`` takes their values in that order.  A subclass
    defines ``__init__`` only to convert or check its input, and then calls
    ``super().__init__``.  Equality (same class, equal field tuples), hashing
    (of the field tuple) and ``repr`` (``Name(field=value, ...)``) behave as a
    frozen dataclass's do, but defining the class generates and ``exec``s no
    code: each CLI request is its own process, so that work would be paid on
    every request.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter returns a bare value for one name
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            count = len(self.__slots__)
            raise TypeError(f"{type(self).__qualname__} takes {count} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle: the instance is rebuilt from its field tuple
    def __getstate__(self):
        return self._values()

    def __setstate__(self, state):
        FrozenValue.__init__(self, *state)


class _Parts:
    """What the two partition classes share: ``parts``, nonnegative integers
    that the class's ``_check`` checks further, and their text form."""

    __slots__ = ()

    def __init__(self, parts=()):
        parts = tuple(parts)
        if not all(is_int(p) and p >= 0 for p in parts):
            raise ValueError(f"parts must be nonnegative integers, got {parts}")
        self._check(parts)
        super().__init__(parts)

    def length(self) -> int:
        """Number of nonzero parts."""
        return sum(1 for p in self.parts if p > 0)

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str):
        """The inverse of ``serialize``; blank text is the empty partition."""
        text = text.strip()
        return cls(int(p) for p in text.split(",")) if text else cls()


class Partition(_Parts, FrozenValue):
    __slots__ = ("parts",)  # tuple[int, ...]

    @staticmethod
    def _check(parts):
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")

    def weight(self) -> int:
        return sum(self.parts)

    def normalized(self) -> "Partition":
        return Partition(p for p in self.parts if p > 0)

    def padded(self, n: int) -> tuple[int, ...]:
        if len(self.parts) > n and any(p > 0 for p in self.parts[n:]):
            raise MuTooLong(f"{self.parts} has more than {n} nonzero parts")
        return tuple(self.parts[:n]) + (0,) * (n - len(self.parts[:n]))


class StrictPartition(_Parts, FrozenValue):
    """Strictly decreasing positive parts, optionally one terminal zero."""

    __slots__ = ("parts",)  # tuple[int, ...]

    @staticmethod
    def _check(parts):
        nonzero = parts[:-1] if parts and parts[-1] == 0 else parts
        if any(p == 0 for p in nonzero):
            raise ValueError(f"interior zero part in {parts}")
        if any(nonzero[i] <= nonzero[i + 1] for i in range(len(nonzero) - 1)):
            raise ValueError(f"parts not strictly decreasing: {parts}")

    def breadth(self) -> int:
        return self.parts[0] if self.parts else 0


parse_partition = Partition.parse
parse_strict_partition = StrictPartition.parse


def conjugate(p: Partition) -> Partition:
    """Column lengths of the Young diagram; an involution."""
    parts = [q for q in p.parts if q > 0]
    if not parts:
        return Partition()
    cols = [0] * parts[0]
    for q in parts:
        for j in range(q):
            cols[j] += 1
    return Partition(cols)


def shape_for(mu: Partition, n: int, offset: str) -> StrictPartition:
    """mu + delta (delta = (n,...,1)) or mu + rho (rho = (n-1,...,0))."""
    if offset not in ("delta", "rho"):
        raise ValueError(f"offset must be 'delta' or 'rho', got {offset!r}")
    padded = mu.padded(n)
    shift = 1 if offset == "delta" else 0
    return StrictPartition(padded[i] + (n - i - 1 + shift) for i in range(n))


def interlacing(upper: tuple[int, ...], strict: bool) -> Iterator[tuple[int, ...]]:
    """Rows ``lower`` of ``len(upper) - 1`` entries with
    ``upper[j] >= lower[j] >= upper[j + 1]``, in decreasing lexicographic order.

    With ``strict`` only rows whose positive entries strictly decrease are
    kept.  These are the rows below ``upper`` in a Gelfand-Tsetlin pattern, and
    the shapes ``nu`` for which ``upper / nu`` is one letter's strip of a
    semistandard (or primed shifted) tableau.
    """
    rows = itertools.product(
        *(range(upper[j], upper[j + 1] - 1, -1) for j in range(len(upper) - 1))
    )
    if strict:
        return (r for r in rows if all(p > q or p == 0 for p, q in zip(r, r[1:])))
    return rows


def depth_first(options, done) -> Iterator[list]:
    """Every sequence grown from ``[]`` one item of ``options(seq)`` at a time
    until ``done(seq)``, in depth-first order, each complete one yielded as a
    new list.  One loop over a stack of iterators, so no length needs stack
    depth.  An ``options`` iterator may read the live ``seq`` lazily: it only
    advances while ``seq`` holds what it held when ``options`` made it."""
    seq: list = []
    stack = [] if done(seq) else [iter(options(seq))]
    if not stack:
        yield []
    while stack:
        for item in stack[-1]:
            seq.append(item)
            if not done(seq):
                stack.append(iter(options(seq)))
                break
            yield seq.copy()
            seq.pop()
        else:
            stack.pop()
            del seq[-1:]  # the item whose options ran out; none at the root


def young_cells(shape: Partition) -> list[tuple[int, int]]:
    """Cells (i, j) of the Young diagram, 1-based, row-major."""
    return [
        (i + 1, j + 1)
        for i, p in enumerate(shape.parts)
        for j in range(p)
    ]


def shifted_cells(shape: StrictPartition) -> list[tuple[int, int]]:
    """Cells (i, j) of the shifted diagram: row i occupies j = i..i+lambda_i-1."""
    return [
        (i + 1, j)
        for i, p in enumerate(shape.parts)
        for j in range(i + 1, i + 1 + p)
    ]
