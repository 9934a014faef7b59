import copy
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftok import combin, harness, paths, tableaux
from ftok.shapes import (
    MuTooLong,
    Partition,
    StrictPartition,
    conjugate,
    depth_first,
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


def test_depth_first():
    assert list(depth_first(lambda seq: (0, 1), lambda seq: len(seq) == 3)) == [
        list(bits) for bits in itertools.product((0, 1), repeat=3)
    ]
    assert list(depth_first(lambda seq: (0, 1), lambda seq: True)) == [[]]
    assert list(depth_first(lambda seq: (), lambda seq: False)) == []
    # an options iterator may read the live sequence lazily
    def above_last(seq):
        return (k for k in range(4) if not seq or k > seq[-1])

    pairs = depth_first(above_last, lambda seq: len(seq) == 2)
    assert list(pairs) == [list(pair) for pair in itertools.combinations(range(4), 2)]
    # a loop, not a recursion: a sequence far longer than the recursion limit
    long = list(depth_first(lambda seq: (len(seq),), lambda seq: len(seq) == 5000))
    assert long == [list(range(5000))]


def test_enumeration_orders():
    # each enumerator runs in the order its docstring promises, and strictly, so
    # no object comes twice
    def strictly(keys, reverse=False):
        return len(keys) > 1 and keys == sorted(set(keys), reverse=reverse)

    for kind, shape, n in (
        ("sst", Partition((3, 2)), 3),
        ("shifted", StrictPartition((3, 1)), 3),
        ("primedP", StrictPartition((3, 1)), 2),
        ("primedQ", StrictPartition((3, 2)), 2),
    ):
        # ascending in the sort keys of the entries, in row-major cell order
        tabs = tableaux.enumerate_tableaux(kind, shape, n)
        assert strictly([tuple(e.sort_key for _, e in t.cells) for t in tabs]), kind
    for top in ((4, 2, 1), (5, 3, 2, 0)):
        # decreasing lexicographic in the rows, top-down
        patterns = combin.enumerate_gtp(StrictPartition(top))
        assert strictly([g.rows[::-1] for g in patterns], reverse=True), top
    rank = str.maketrans("HVD", "012")
    for kind, shape, n in (("sst", Partition((2, 1)), 3), ("pst", StrictPartition((3, 2, 1)), 3)):
        # lexicographic in the steps, H < V < D, path by path
        families = paths.nonintersecting_families(kind, shape, n)
        assert strictly([tuple(p.steps.translate(rank) for p in f.paths) for f in families]), kind


# A maker of one instance of each immutable value class, and its repr: the
# ``Name(field=value, ...)`` text a frozen dataclass prints.
_entry = tableaux.CellEntry(1, True)
_path = paths.LatticePath((1, 0), "HV")
_spec = harness.IdentitySpec("lemma1", {"mu": Partition((1,)), "n": 2})
VALUE_CASES = [
    (lambda: Partition((2, 1)), "Partition(parts=(2, 1))"),
    (lambda: StrictPartition((3, 1, 0)), "StrictPartition(parts=(3, 1, 0))"),
    (lambda: tableaux.CellEntry(1, True), "CellEntry(sort_key=(1, 0), value=1, primed=True)"),
    (lambda: tableaux.Violation("P3", (1, 2)), "Violation(rule='P3', cell=(1, 2))"),
    (
        lambda: tableaux.Tableau("primedQ", StrictPartition((1,)), 1, {(1, 1): _entry}),
        "Tableau(kind='primedQ', shape=StrictPartition(parts=(1,)), n=1, "
        "cells=(((1, 1), CellEntry(sort_key=(1, 0), value=1, primed=True)),))",
    ),
    (lambda: combin.GTPattern([[2], [3, 1]]), "GTPattern(rows=((2,), (3, 1)))"),
    (
        lambda: combin.ASM([[1, 0]], StrictPartition((1,))),
        "ASM(entries=((1, 0),), shape=StrictPartition(parts=(1,)))",
    ),
    (
        lambda: combin.CPM([["SE", "NW"]], StrictPartition((2,))),
        "CPM(entries=(('SE', 'NW'),), shape=StrictPartition(parts=(2,)))",
    ),
    (lambda: combin.BoltzmannTable("bmn"), "BoltzmannTable(variant='bmn')"),
    (lambda: paths.LatticePath((1, 0), "HV"), "LatticePath(start=(1, 0), steps='HV')"),
    (
        lambda: paths.PathFamily("pst", 1, StrictPartition((1,)), [_path]),
        "PathFamily(kind='pst', n=1, shape=StrictPartition(parts=(1,)), "
        "paths=(LatticePath(start=(1, 0), steps='HV'),))",
    ),
    (
        lambda: harness.IdentitySpec("lemma1", {"mu": Partition((1,)), "n": 2}),
        "IdentitySpec(id='lemma1', params={'mu': Partition(parts=(1,)), 'n': 2})",
    ),
    (
        lambda: harness.IdentityReport(_spec, "x1", "x1", True, "0", 0.25),
        "IdentityReport(spec=IdentitySpec(id='lemma1', params={'mu': Partition(parts=(1,)), "
        "'n': 2}), lhs='x1', rhs='x1', passed=True, diff='0', elapsed=0.25)",
    ),
]


@pytest.mark.parametrize(
    "make, text", VALUE_CASES, ids=[text.split("(", 1)[0] for _, text in VALUE_CASES]
)
def test_frozen_value_semantics(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    fields = tuple(getattr(a, name) for name in a.__slots__)
    assert a != fields and a != object()
    assert hash(a) == hash(b) == hash(fields)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for name in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_frozen_value_classes_and_defaults():
    IdentitySpec, CellEntry = harness.IdentitySpec, tableaux.CellEntry
    assert Partition((2, 1)) != StrictPartition((2, 1))
    assert Partition((2, 1)) != Partition((2, 1, 0))
    one_p, one, two_p, two = CellEntry(1, True), CellEntry(1), CellEntry(2, True), CellEntry(2)
    assert one_p < one < two_p < two and two >= two_p >= one > one_p
    assert sorted([two, one, two_p, one_p]) == [one_p, one, two_p, two]
    x, y = IdentitySpec("x"), IdentitySpec("x")
    assert x.params == {} and x.params is not y.params
    # classes with no __init__ of their own take exactly their fields
    for klass, fields in (
        (tableaux.Violation, ("P3", (1, 2))),
        (paths.LatticePath, ((1, 0), "HV")),
        (harness.IdentityReport, (x, "x1", "x1", True, "0", 0.25)),
    ):
        assert "__init__" not in vars(klass)
        assert klass(*fields)._values() == fields
        for wrong in (fields[:-1], fields + (None,)):
            with pytest.raises(TypeError, match=rf"^{klass.__name__} takes {len(fields)} fields"):
                klass(*wrong)
    # Tableau converts a dict of cells to the sorted tuple of its field
    cells = {(1, 2): CellEntry(2), (1, 1): one}
    t = tableaux.Tableau("sst", Partition((2,)), 2, cells)
    assert t.cells == (((1, 1), one), ((1, 2), CellEntry(2)))
    assert t == tableaux.Tableau("sst", Partition((2,)), 2, list(t.cells))
