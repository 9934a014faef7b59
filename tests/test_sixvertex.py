import pytest

from ftok import combin, poly, sixvertex, symfun
from ftok.combin import CPM
from ftok.shapes import Partition, StrictPartition

C_EX = CPM(
    [
        ["SW", "WE", "SE", "SE", "SE", "SE"],
        ["WE", "NS", "SW", "WE", "SE", "SE"],
        ["NW", "SW", "SW", "NW", "WE", "SE"],
        ["NW", "SW", "WE", "NE", "NS", "WE"],
    ],
    StrictPartition((6, 4, 3, 1)),
)

C_EX_RENDER = """\
 ^ ^ ^ ^ ^ ^
>+>+<+<+<+<+<
 ^ v ^ ^ ^ ^
>+<+>+>+<+<+<
 v ^ ^ v ^ ^
>+>+>+>+>+<+<
 v ^ ^ v v ^
>+>+>+<+<+>+<
 v ^ v v ^ v"""


def test_table_values():
    g = combin.BoltzmannTable("general")
    assert g.weight_of("NS", 2, 5) == poly.x(2) + poly.y(2)
    assert g.weight_of("NW", 3, 4) == poly.y(3) - poly.a(4)
    assert g.weight_of("SW", 1, 2) == poly.x(1) + poly.a(2)
    assert g.weight_of("WE", 1, 1) == poly.ONE
    b = combin.BoltzmannTable("bmn")
    assert b.weight_of("NE", 2, 3) == poly.t()
    assert b.weight_of("NS", 1, 1) == (poly.ONE + poly.t()) * poly.z(1)
    assert b.weight_of("NW", 1, 2) == poly.z(1) - poly.t() * poly.alpha(2)
    assert b.weight_of("SW", 1, 2) == poly.z(1) + poly.alpha(2)
    l = combin.BoltzmannTable("lascoux")
    ainv = poly.Polynomial({((poly.variable("a", 2), -1),): 1})
    assert l.weight_of("NS", 1, 2) == -(poly.x(1) * ainv)
    assert l.weight_of("SW", 1, 2) == -(poly.x(1) * ainv + poly.ONE)
    assert l.weight_of("NW", 1, 2) == poly.ONE
    with pytest.raises(ValueError, match=r"'other'; known: general, bmn, lascoux$"):
        combin.BoltzmannTable("other")
    with pytest.raises(combin.InvalidCPM):
        g.weight_of("XY", 1, 1)


def test_partition_function_trivial():
    assert sixvertex.partition_function(Partition(), 1, "bmn") == poly.ONE


def test_partition_function_examples():
    assert sixvertex.partition_function(Partition(), 2, "bmn") == poly.t() * poly.z(
        1
    ) + poly.z(2)
    assert sixvertex.partition_function(Partition(), 2, "general") == poly.x(
        1
    ) * poly.x(2) * (poly.x(1) + poly.y(2))


def test_partition_function_lascoux_empty_mu():
    a1_inv = poly.Polynomial({((poly.variable("a", 1), -1),): 1})
    assert sixvertex.partition_function(Partition(), 2, "lascoux") == -(
        poly.x(1) * a1_inv
    )


def test_partition_function_matches_factorial_schur():
    # mu = (1), n = 2 for the bmn table
    got = sixvertex.partition_function(Partition((1,)), 2, "bmn")
    s = symfun.tableau_sum("factorialSchur", Partition((1,)), 2)
    s = poly.substitute(s, {"x": lambda i: poly.z(i), "a": lambda j: poly.alpha(j)})
    assert got == (poly.t() * poly.z(1) + poly.z(2)) * s


def test_render_single_vertex():
    got = sixvertex.render_sic(CPM([["WE"]], StrictPartition((1,))))
    assert got == " ^\n>+<\n v"


def test_render_example():
    assert sixvertex.render_sic(C_EX) == C_EX_RENDER


def test_render_2x2():
    got = sixvertex.render_sic(
        CPM([["SW", "WE"], ["WE", "NE"]], StrictPartition((2, 1)))
    )
    assert got == " ^ ^\n>+>+<\n ^ v\n>+<+<\n v v"


def test_render_injective():
    lam = StrictPartition((3, 2, 1))
    seen = {}
    for a in combin.enumerate_asm(lam):
        c = combin.cpm_from_asm(a)
        text = sixvertex.render_sic(c)
        assert text not in seen
        seen[text] = c
    assert len(seen) == 7


def test_boundary_arrows():
    # horizontal boundary edges all point inward; bottom vertical edges point
    # outward exactly at the columns of the shape
    lam = StrictPartition((3, 2, 1))
    parts = set(lam.parts)
    for a in combin.enumerate_asm(lam):
        lines = sixvertex.render_sic(combin.cpm_from_asm(a)).split("\n")
        n, m = a.dims()
        for i in range(1, n + 1):
            assert lines[2 * i - 1][0] == ">"
            assert lines[2 * i - 1][2 * m] == "<"
        for j in range(1, m + 1):
            assert lines[0][2 * j - 1] == "^"
            want = "v" if j in parts else "^"
            assert lines[2 * n][2 * j - 1] == want
