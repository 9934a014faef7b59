import itertools

import pytest

from ftok import poly, tableaux
from ftok.shapes import Partition, StrictPartition
from ftok.tableaux import CellEntry, Tableau


def from_rows(kind, shape, n, rows):
    return Tableau.from_json(
        {"kind": kind, "shape": list(shape), "n": n, "rows": rows}
    )


# the three running example tableaux
T_EX = from_rows("sst", (3, 2, 2, 1, 0), 5, [["1", "2", "4"], ["2", "3"], ["4", "4"], ["5"], []])
S_EX = from_rows(
    "shifted", (6, 4, 3, 1), 4,
    [["1", "1", "2", "2", "3", "4"], ["2", "3", "3", "3"], ["3", "4", "4"], ["4"]],
)
P_EX = from_rows(
    "primedP", (6, 4, 3, 1), 4,
    [["1", "1", "2'", "2", "3'", "4"], ["2", "3'", "3", "3"], ["3", "4'", "4"], ["4"]],
)


def test_cell_entry_order():
    order = [CellEntry(1, True), CellEntry(1), CellEntry(2, True), CellEntry(2)]
    assert sorted(order, key=lambda e: e.sort_key) == order
    assert str(CellEntry(3, True)) == "3'"
    assert CellEntry.from_str("3'") == CellEntry(3, True)
    with pytest.raises(ValueError):
        CellEntry(0)


def test_examples_validate():
    assert tableaux.validate(T_EX) is None
    assert tableaux.validate(S_EX) is None
    assert tableaux.validate(P_EX) is None


def test_validate_violations():
    cases = [
        ("sst", (2,), 2, [["2", "1"]], "T1", (1, 2)),
        ("sst", (1, 1), 2, [["1"], ["1"]], "T2", (2, 1)),
        ("shifted", (2,), 2, [["2", "1"]], "S1", (1, 2)),
        ("shifted", (3, 1), 3, [["1", "3", "3"], ["2"]], "S2", (2, 2)),
        ("shifted", (2, 1), 2, [["2", "2"], ["2"]], "S3", (2, 2)),
        ("primedQ", (2,), 2, [["2", "1"]], "P1", (1, 2)),
        ("primedQ", (3, 1), 3, [["1", "3", "3"], ["2"]], "P2", (2, 2)),
        ("primedQ", (3,), 2, [["2'", "2'", "2'"]], "P3", (1, 2)),
        # the repeated 2' is two cells back, so P1 breaks before P3 could
        ("primedQ", (3,), 2, [["2'", "2", "2'"]], "P1", (1, 3)),
        ("primedQ", (3, 1), 2, [["1", "2", "2"], ["2"]], "P4", (2, 2)),
        ("primedP", (1,), 1, [["1'"]], "P5", (1, 1)),
        ("sst", (1,), 1, [["2"]], "alphabet", (1, 1)),
        ("primedQ", (2,), 1, [["1", "2'"]], "alphabet", (1, 2)),
        ("sst", (1,), 1, [["1'"]], "alphabet", (1, 1)),
        ("shifted", (2,), 2, [["1", "2'"]], "alphabet", (1, 2)),
    ]
    for kind, shape, n, rows, rule, cell in cases:
        v = tableaux.validate(from_rows(kind, shape, n, rows))
        assert v == tableaux.Violation(rule, cell), (kind, rows)


def test_shape_mismatch():
    t = Tableau("sst", Partition((2,)), 2, {(1, 1): CellEntry(1)})
    with pytest.raises(tableaux.ShapeMismatch):
        tableaux.validate(t)


def test_enumerate_examples():
    got = list(tableaux.enumerate_tableaux("sst", Partition((1,)), 2))
    assert [t.to_json()["rows"] for t in got] == [[["1"]], [["2"]]]
    got = list(tableaux.enumerate_tableaux("primedP", StrictPartition((2, 1)), 2))
    assert len(got) == 2
    assert sorted(str(t.cell_map()[(1, 2)]) for t in got) == ["1", "2'"]
    got = list(tableaux.enumerate_tableaux("shifted", StrictPartition((2, 1)), 2))
    assert len(got) == 2
    assert sorted(str(t.cell_map()[(1, 2)]) for t in got) == ["1", "2"]


def _brute_force(kind, shape, n):
    cells = tableaux.diagram_cells(kind, shape)
    alphabet = tableaux._alphabet(kind, n)
    valid = []
    for combo in itertools.product(alphabet, repeat=len(cells)):
        t = Tableau(kind, shape, n, dict(zip(cells, combo)))
        if tableaux.validate(t) is None:
            valid.append(t)
    return valid


@pytest.mark.parametrize(
    "kind,shape,n",
    [
        ("sst", Partition((3, 2)), 3),
        ("sst", Partition((2, 2, 1)), 3),
        ("sst", Partition((4, 2, 1, 1)), 3),
        ("shifted", StrictPartition((3, 1)), 3),
        ("shifted", StrictPartition((3, 2, 1)), 3),
        ("primedP", StrictPartition((3, 1)), 2),
        ("primedP", StrictPartition((3, 2, 1)), 3),
        ("primedQ", StrictPartition((2, 1)), 2),
        ("primedQ", StrictPartition((3, 2)), 2),
    ],
)
def test_enumerate_matches_brute_force(kind, shape, n):
    enumerated = list(tableaux.enumerate_tableaux(kind, shape, n))
    assert all(tableaux.validate(t) is None for t in enumerated)
    assert len(set(enumerated)) == len(enumerated)
    assert set(enumerated) == set(_brute_force(kind, shape, n))


def test_weight_single_box():
    t = from_rows("sst", (1,), 1, [["1"]])
    assert tableaux.weight(t) == poly.x(1) + poly.a(1)


def test_weight_shifted_example():
    factors = [
        poly.x(1),
        poly.x(1) + poly.a(1),
        poly.x(2) + poly.y(2),
        poly.x(2) + poly.a(3),
        poly.y(3) - poly.a(4),
        poly.x(4) + poly.y(4),
        poly.x(2),
        poly.y(3) - poly.a(1),
        poly.x(3) + poly.a(2),
        poly.x(3) + poly.a(3),
        poly.x(3),
        poly.y(4) - poly.a(1),
        poly.x(4) + poly.a(2),
        poly.x(4),
    ]
    assert tableaux.weight(S_EX) == poly.product(factors)


def test_weight_primed_example():
    factors = [
        poly.x(1),
        poly.x(1) + poly.a(1),
        poly.y(2) - poly.a(2),
        poly.x(2) + poly.a(3),
        poly.y(3) - poly.a(4),
        poly.x(4) + poly.a(5),
        poly.x(2),
        poly.y(3) - poly.a(1),
        poly.x(3) + poly.a(2),
        poly.x(3) + poly.a(3),
        poly.x(3),
        poly.y(4) - poly.a(1),
        poly.x(4) + poly.a(2),
        poly.x(4),
    ]
    assert tableaux.weight(P_EX) == poly.product(factors)


def test_weight_rejects_invalid():
    bad = from_rows("sst", (1, 1), 2, [["1"], ["1"]])
    with pytest.raises(tableaux.InvalidTableau):
        tableaux.weight(bad)


def test_check_names_the_violated_rule():
    assert tableaux.check(S_EX) is None
    bad = from_rows("shifted", (2, 1), 2, [["2", "2"], ["2"]])
    for fn in (tableaux.check, tableaux.weight):
        with pytest.raises(tableaux.InvalidTableau, match=r"rule S3 violated at \(2, 2\)"):
            fn(bad)


@pytest.mark.parametrize(
    "shape,n",
    [
        (Partition((1,)), 2),
        (Partition((2, 1)), 2),
        (Partition((2, 1)), 3),
        (Partition((3, 2)), 3),
        (Partition((2, 2, 1)), 3),
        (Partition((4, 3, 1)), 3),
    ],
)
def test_sst_counts_match_hook_content(shape, n):
    got = sum(1 for _ in tableaux.enumerate_tableaux("sst", shape, n))
    assert got == tableaux.sst_count(shape, n)


@pytest.mark.parametrize(
    "lam,n",
    [(StrictPartition((2, 1)), 2), (StrictPartition((3, 1)), 2), (StrictPartition((3, 2, 1)), 3)],
)
def test_q_class_doubles_per_diagonal(lam, n):
    ps = list(tableaux.enumerate_tableaux("primedP", lam, n))
    qs = list(tableaux.enumerate_tableaux("primedQ", lam, n))
    assert len(qs) == (2 ** n) * len(ps)
    for t in ps + qs:
        diag = [t.cell_map()[(i, i)].value for i in range(1, n + 1)]
        assert diag == list(range(1, n + 1))


@pytest.mark.parametrize(
    "lam,n", [(StrictPartition((2, 1)), 2), (StrictPartition((3, 2, 1)), 3)]
)
def test_q_sum_relates_to_p_sum(lam, n):
    p_sum = poly.poly_sum(
        tableaux.weight(t) for t in tableaux.enumerate_tableaux("primedP", lam, n)
    )
    q_sum = poly.poly_sum(
        tableaux.weight(t) for t in tableaux.enumerate_tableaux("primedQ", lam, n)
    )
    xs = poly.product(poly.x(i) for i in range(1, n + 1))
    pairs = poly.product(poly.x(i) + poly.y(i) for i in range(1, n + 1))
    assert q_sum * xs == p_sum * pairs


@pytest.mark.parametrize(
    "lam,n",
    [
        (StrictPartition((2, 1)), 2),
        (StrictPartition((3, 1)), 2),
        (StrictPartition((3, 2, 1)), 3),
        (StrictPartition((4, 2, 1)), 3),
    ],
)
def test_shifted_sum_collapses_primed_sum(lam, n):
    s_sum = poly.poly_sum(
        tableaux.weight(t) for t in tableaux.enumerate_tableaux("shifted", lam, n)
    )
    p_sum = poly.poly_sum(
        tableaux.weight(t) for t in tableaux.enumerate_tableaux("primedP", lam, n)
    )
    assert s_sum == p_sum


def test_json_round_trip():
    for t in (T_EX, S_EX, P_EX):
        assert Tableau.from_json(t.to_json()) == t


def test_kind_shape_mismatch():
    with pytest.raises(tableaux.InvalidShapeForKind):
        tableaux.diagram_cells("sst", StrictPartition((2, 1)))
    with pytest.raises(tableaux.InvalidShapeForKind):
        tableaux.diagram_cells("shifted", Partition((2, 1)))
    with pytest.raises(tableaux.InvalidShapeForKind):
        Tableau("weird", Partition((1,)), 1, {})
    unknown = r"unknown tableau kind 'weird'"
    with pytest.raises(tableaux.InvalidShapeForKind, match=unknown):
        tableaux.diagram_cells("weird", StrictPartition((2, 1)))
    with pytest.raises(tableaux.InvalidShapeForKind, match=unknown):
        list(tableaux.enumerate_tableaux("weird", StrictPartition((1,)), 0))
    with pytest.raises(tableaux.InvalidShapeForKind, match=unknown):
        from_rows("weird", (1,), 1, [["1"]])
