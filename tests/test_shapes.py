import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftok.shapes import (
    MuTooLong,
    Partition,
    StrictPartition,
    conjugate,
    parse_partition,
    parse_strict_partition,
    shape_for,
    shifted_cells,
    young_cells,
)

partitions = st.lists(st.integers(min_value=0, max_value=9), max_size=5).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    p = Partition((2, 1, 0))
    assert p.length() == 2
    assert p.weight() == 3


def test_trailing_zeros_are_significant():
    assert Partition((2, 1)) != Partition((2, 1, 0))
    assert Partition((2, 1)).normalized() == Partition((2, 1, 0)).normalized()


def test_strict_partition_validation():
    StrictPartition((3, 1))
    StrictPartition((3, 1, 0))  # one terminal zero allowed
    with pytest.raises(ValueError):
        StrictPartition((3, 3))
    with pytest.raises(ValueError):
        StrictPartition((3, 0, 1))
    assert StrictPartition((6, 4, 3, 1)).breadth() == 6


def test_parse():
    assert parse_partition("6,4,3,1") == Partition((6, 4, 3, 1))
    assert parse_partition("") == Partition()
    assert parse_strict_partition("2,1,0") == StrictPartition((2, 1, 0))
    assert Partition((6, 4, 3, 1)).serialize() == "6,4,3,1"


def test_conjugate_examples():
    assert conjugate(Partition((3, 2, 2, 1))) == Partition((4, 3, 1))
    assert conjugate(Partition()) == Partition()
    assert conjugate(Partition((6, 4, 3, 1))) == Partition((4, 3, 3, 2, 1, 1))


@given(partitions)
def test_conjugate_involutive(p):
    assert conjugate(conjugate(p)) == p.normalized()


def test_shape_for():
    assert shape_for(Partition(), 2, "delta") == StrictPartition((2, 1))
    assert shape_for(Partition((2, 1, 1, 0)), 4, "delta") == StrictPartition((6, 4, 3, 1))
    assert shape_for(Partition((1, 1)), 2, "rho") == StrictPartition((2, 1))
    assert shape_for(Partition(), 2, "rho") == StrictPartition((1, 0))
    with pytest.raises(MuTooLong):
        shape_for(Partition((1, 1, 1)), 2, "delta")
    with pytest.raises(ValueError):
        shape_for(Partition(), 2, "sigma")


@given(partitions, st.integers(min_value=1, max_value=6))
def test_shape_for_recovers_mu(mu, n):
    if mu.length() > n:
        return
    lam = shape_for(mu, n, "delta")
    assert tuple(lam.parts[i] - (n - i) for i in range(n)) == mu.padded(n)


@given(partitions)
def test_strict_conjugate_steps(mu):
    # lambda'_{j+1} = lambda'_j - 1 exactly at the parts of lambda
    n = max(len(mu.parts), 1)
    lam = shape_for(mu, n, "delta")
    conj = conjugate(Partition(lam.parts)).parts
    breadth = lam.breadth()
    padded = list(conj) + [0]
    parts = set(lam.parts)
    for j in range(1, breadth + 1):
        if j in parts:
            assert padded[j] == padded[j - 1] - 1
        else:
            assert padded[j] == padded[j - 1]


def test_cells():
    assert young_cells(Partition((2, 1))) == [(1, 1), (1, 2), (2, 1)]
    assert young_cells(Partition((2, 0))) == [(1, 1), (1, 2)]
    assert shifted_cells(StrictPartition((2, 1))) == [(1, 1), (1, 2), (2, 2)]
    assert shifted_cells(StrictPartition((3, 1, 0))) == [(1, 1), (1, 2), (1, 3), (2, 2)]
