import itertools

import pytest

from ftok import combin, poly, tableaux
from ftok.combin import ASM, CPM, GTPattern
from ftok.shapes import StrictPartition
from ftok.tableaux import Tableau

S_EX = Tableau.from_json(
    {
        "kind": "shifted",
        "shape": [6, 4, 3, 1],
        "n": 4,
        "rows": [["1", "1", "2", "2", "3", "4"], ["2", "3", "3", "3"], ["3", "4", "4"], ["4"]],
    }
)
G_EX = GTPattern([(2,), (4, 1), (5, 4, 1), (6, 4, 3, 1)])
A_EX = ASM(
    [
        [0, 1, 0, 0, 0, 0],
        [1, -1, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, -1, 1],
    ],
    StrictPartition((6, 4, 3, 1)),
)
C_EX = CPM(
    [
        ["SW", "WE", "SE", "SE", "SE", "SE"],
        ["WE", "NS", "SW", "WE", "SE", "SE"],
        ["NW", "SW", "SW", "NW", "WE", "SE"],
        ["NW", "SW", "WE", "NE", "NS", "WE"],
    ],
    StrictPartition((6, 4, 3, 1)),
)


def test_validate_gtp():
    combin.validate_gtp(G_EX)
    with pytest.raises(combin.InvalidPattern):
        combin.validate_gtp(GTPattern([(1,), (1, 1)]))
    with pytest.raises(combin.InvalidPattern):
        combin.validate_gtp(GTPattern([(3,), (2, 1)]))
    with pytest.raises(combin.InvalidPattern):
        combin.validate_gtp(GTPattern([(1, 2)]))


def test_validate_asm():
    combin.validate_asm(A_EX)
    with pytest.raises(combin.InvalidASM):
        combin.validate_asm(ASM([[0, 1], [1, 0]], StrictPartition((2,))))
    with pytest.raises(combin.InvalidASM):
        combin.validate_asm(ASM([[-1, 1], [1, 0]], StrictPartition((2, 1))))
    with pytest.raises(combin.InvalidASM):
        combin.validate_asm(ASM([[1, 0], [1, 0]], StrictPartition((2, 1))))
    # one case per rule; gtp_from_asm raises InvalidASM, never InvalidPattern
    staircase = StrictPartition((3, 2, 1))
    for a, message in (
        (ASM([[0, 1, 0], [0, 1, 0], [1, -1, 1]], staircase),
         "row 2 leaves column 2 a partial sum of 2, want 0 or 1"),
        (ASM([[0, 0, 1], [1, -1, 1], [0, 1, -1]], staircase),
         "row 2 leaves column 2 a partial sum of -1, want 0 or 1"),
        (ASM([[0, 1, 0], [1, 0, 1], [0, 0, 0]], staircase),
         "row 2 has 3 entries, want 2"),
        (ASM([[1, 0, 0], [-1, 1, 1], [1, 0, 0]], staircase),
         r"betweenness fails at \(2,1\)"),
        (ASM([[0, 1, 0], [1, 0, 0]], StrictPartition((3, 1))),
         r"columns \(2, 1\) sum to 1, want the shape \(3, 1\)"),
        (ASM([], StrictPartition(())), "empty pattern"),
        (ASM([[True]], StrictPartition((1,))), "entries must be integers"),
    ):
        for check in (combin.validate_asm, combin.gtp_from_asm):
            with pytest.raises(combin.InvalidASM, match=message) as info:
                check(a)
            assert type(info.value) is combin.InvalidASM


def _is_textbook_asm(entries, shape) -> bool:
    """The alternation definition: the nonzero entries of each row alternate
    1, -1, ..., 1, and those of column j alternate from 1 and sum to 1
    exactly when j is a part of the shape."""

    def alternates(line):
        return all(v == (-1) ** k for k, v in enumerate(v for v in line if v))

    return all(alternates(row) and sum(row) == 1 for row in entries) and all(
        alternates(col) and sum(col) == (j in shape)
        for j, col in enumerate(zip(*entries), start=1)
    )


def test_validate_asm_matches_the_alternation_definition():
    # every n x m matrix over {-1, 0, 1} with n <= 3 and n * m <= 9, with
    # every strict shape of n parts and width m
    pairs = valid = 0
    for n in range(1, 4):
        for m in range(n, 9 // n + 1):
            for rest in itertools.combinations(range(m - 1, 0, -1), n - 1):
                shape = StrictPartition((m,) + rest)
                for flat in itertools.product((-1, 0, 1), repeat=n * m):
                    entries = [flat[i * m:(i + 1) * m] for i in range(n)]
                    a = ASM(entries, shape)
                    want = _is_textbook_asm(entries, shape.parts)
                    try:
                        combin.validate_asm(a)
                    except combin.InvalidASM:
                        assert not want, entries
                    else:
                        assert want, (entries, shape.parts)
                        assert combin.asm_from_gtp(combin.gtp_from_asm(a)) == a
                    pairs += 1
                    valid += want
    assert (pairs, valid) == (70428, 32)


def test_gtp_from_shifted_examples():
    assert combin.gtp_from_shifted(S_EX) == G_EX
    one = Tableau.from_json(
        {"kind": "shifted", "shape": [1], "n": 1, "rows": [["1"]]}
    )
    assert combin.gtp_from_shifted(one) == GTPattern([(1,)])
    small = Tableau.from_json(
        {"kind": "shifted", "shape": [2, 1], "n": 2, "rows": [["1", "1"], ["2"]]}
    )
    assert combin.gtp_from_shifted(small) == GTPattern([(2,), (2, 1)])


def test_gtp_from_shifted_rejects_invalid():
    bad = Tableau.from_json(
        {"kind": "shifted", "shape": [2, 1], "n": 2, "rows": [["2", "2"], ["2"]]}
    )
    with pytest.raises(tableaux.InvalidTableau, match=r"rule S3 violated at \(2, 2\)"):
        combin.gtp_from_shifted(bad)


def test_shifted_from_gtp_inverts():
    assert combin.shifted_from_gtp(G_EX) == S_EX
    assert combin.shifted_from_gtp(GTPattern([(1,)])) == Tableau.from_json(
        {"kind": "shifted", "shape": [1], "n": 1, "rows": [["1"]]}
    )


def test_asm_gtp_examples():
    assert combin.asm_from_gtp(G_EX) == A_EX
    assert combin.gtp_from_asm(A_EX) == G_EX
    g1 = GTPattern([(1,)])
    a1 = ASM([[1]], StrictPartition((1,)))
    assert combin.asm_from_gtp(g1) == a1
    assert combin.gtp_from_asm(a1) == g1
    g2 = GTPattern([(2,), (2, 1)])
    a2 = ASM([[0, 1], [1, 0]], StrictPartition((2, 1)))
    assert combin.asm_from_gtp(g2) == a2
    assert combin.gtp_from_asm(a2) == g2


def test_cpm_examples():
    assert combin.cpm_from_asm(A_EX) == C_EX
    assert combin.cpm_from_asm(ASM([[1]], StrictPartition((1,)))) == CPM(
        [["WE"]], StrictPartition((1,))
    )
    assert combin.cpm_from_asm(
        ASM([[0, 1], [1, 0]], StrictPartition((2, 1)))
    ) == CPM([["SW", "WE"], ["WE", "NE"]], StrictPartition((2, 1)))


def test_asm_from_cpm_inverts():
    assert combin.asm_from_cpm(C_EX) == A_EX


@pytest.mark.parametrize(
    "lam",
    [StrictPartition((2, 1)), StrictPartition((3, 1)), StrictPartition((3, 2, 1)), StrictPartition((4, 2, 1))],
)
def test_round_trips_over_enumeration(lam):
    n = len(lam.parts)
    for g in combin.enumerate_gtp(lam):
        s = combin.shifted_from_gtp(g)
        assert tableaux.validate(s) is None
        assert combin.gtp_from_shifted(s) == g
        a = combin.asm_from_gtp(g)
        assert combin.gtp_from_asm(a) == g
        c = combin.cpm_from_asm(a)
        assert combin.asm_from_cpm(c) == a
        assert s.n == n


@pytest.mark.parametrize(
    "lam", [StrictPartition((2, 1)), StrictPartition((3, 2, 1)), StrictPartition((4, 2, 1))]
)
def test_composite_weight_equality(lam):
    table = combin.BoltzmannTable("general")
    for g in combin.enumerate_gtp(lam):
        s = combin.shifted_from_gtp(g)
        w = tableaux.weight(s)
        assert combin.weight_gtp(g) == w
        c = combin.cpm_from_asm(combin.asm_from_gtp(g))
        assert combin.weight_cpm(c, table) == w


def test_weight_gtp_examples():
    assert combin.weight_gtp(GTPattern([(1,), (2, 1)])) == poly.x(1) * poly.x(2) * (
        poly.y(2) - poly.a(1)
    )
    assert combin.weight_gtp(GTPattern([(2,), (2, 1)])) == poly.x(1) * (
        poly.x(1) + poly.a(1)
    ) * poly.x(2)
    assert combin.weight_gtp(GTPattern([(1,)])) == poly.x(1)


def test_weight_cpm_examples():
    table = combin.BoltzmannTable("general")
    c = CPM([["WE"]], StrictPartition((1,)))
    assert combin.weight_cpm(c, table) == poly.x(1)
    c2 = CPM([["SW", "WE"], ["WE", "NE"]], StrictPartition((2, 1)))
    assert combin.weight_cpm(c2, table) == poly.x(1) * poly.x(2) * (poly.x(1) + poly.a(1))


def test_enumeration_counts():
    assert sum(1 for _ in combin.enumerate_asm(StrictPartition((1,)))) == 1
    assert sum(1 for _ in combin.enumerate_asm(StrictPartition((2, 1)))) == 2
    assert sum(1 for _ in combin.enumerate_asm(StrictPartition((3, 2, 1)))) == 7


def test_enumerate_rejects_bad_shape():
    with pytest.raises(combin.InvalidShape):
        list(combin.enumerate_gtp(StrictPartition()))


def test_compass_count_identity_on_example():
    assert C_EX.count("SW") == 5
    assert C_EX.count("NE") == 1


@pytest.mark.parametrize("lam", [StrictPartition((2, 1)), StrictPartition((3, 2, 1))])
def test_per_column_we_ns_balance(lam):
    parts = set(lam.parts)
    for a in combin.enumerate_asm(lam):
        c = combin.cpm_from_asm(a)
        _, m = c.dims()
        for j in range(1, m + 1):
            col = [row[j - 1] for row in c.entries]
            diff = col.count("WE") - col.count("NS")
            assert diff == (1 if j in parts else 0)


def test_json_round_trips():
    assert GTPattern.from_json(G_EX.to_json()) == G_EX
    assert ASM.from_json(A_EX.to_json()) == A_EX
    assert CPM.from_json(C_EX.to_json()) == C_EX


@pytest.mark.parametrize("klass, error", [(ASM, combin.InvalidASM), (CPM, combin.InvalidCPM)])
def test_malformed_ice_json_raises_the_class_error(klass, error):
    for data, cause in (
        ({"entries": [[1]]}, "KeyError('shape')"),
        ({"shape": [1]}, "KeyError('entries')"),
        ({"entries": 1, "shape": [1]}, "TypeError(\"'int' object is not iterable\")"),
        ([[1]], "TypeError('list indices must be integers or slices, not str')"),
    ):
        with pytest.raises(error) as info:
            klass.from_json(data)
        assert type(info.value) is error
        assert str(info.value) == f"malformed {klass.__name__} JSON: {cause}"
