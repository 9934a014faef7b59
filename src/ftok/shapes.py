"""Partitions, strict partitions, their diagrams and the delta/rho offsets.

Trailing zeros are significant: ``(2, 1)`` and ``(2, 1, 0)`` are different
objects (Gelfand-Tsetlin top rows and the rho offset are zero-sensitive);
``normalized()`` strips them for shape-level comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator


class MuTooLong(ValueError):
    """Raised when a partition has more parts than the requested n."""


def is_int(v) -> bool:
    """An int that is not a bool: JSON ``true`` loads as a bool equal to 1."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __init__(self, parts=()):
        parts = tuple(parts)
        if not all(is_int(p) and p >= 0 for p in parts):
            raise ValueError(f"parts must be nonnegative integers, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def length(self) -> int:
        """Number of nonzero parts."""
        return sum(1 for p in self.parts if p > 0)

    def weight(self) -> int:
        return sum(self.parts)

    def normalized(self) -> "Partition":
        return Partition(p for p in self.parts if p > 0)

    def padded(self, n: int) -> tuple[int, ...]:
        if len(self.parts) > n and any(p > 0 for p in self.parts[n:]):
            raise MuTooLong(f"{self.parts} has more than {n} nonzero parts")
        return tuple(self.parts[:n]) + (0,) * (n - len(self.parts[:n]))

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class StrictPartition:
    """Strictly decreasing positive parts, optionally one terminal zero."""

    parts: tuple[int, ...]

    def __init__(self, parts=()):
        parts = tuple(parts)
        if not all(is_int(p) and p >= 0 for p in parts):
            raise ValueError(f"parts must be nonnegative integers, got {parts}")
        nonzero = parts[:-1] if parts and parts[-1] == 0 else parts
        if any(p == 0 for p in nonzero):
            raise ValueError(f"interior zero part in {parts}")
        if any(nonzero[i] <= nonzero[i + 1] for i in range(len(nonzero) - 1)):
            raise ValueError(f"parts not strictly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def length(self) -> int:
        return sum(1 for p in self.parts if p > 0)

    def breadth(self) -> int:
        return self.parts[0] if self.parts else 0

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.parts)


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition()
    return Partition(int(p) for p in text.split(","))


def parse_strict_partition(text: str) -> StrictPartition:
    text = text.strip()
    if not text:
        return StrictPartition()
    return StrictPartition(int(p) for p in text.split(","))


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
