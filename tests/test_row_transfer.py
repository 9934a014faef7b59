"""The row-transfer sums against their brute-force oracles.

``symfun.tableau_sum`` and ``combin.gt_row_sum`` sum row by row; the
enumerators with the per-object weights sum object by object, and a kind's
ring map is substituted into the finished brute-force sum.  The ranges follow
the acceptance run.
"""

import pytest
from test_acceptance import _corollary_range, _main_range

from ftok import combin, harness, poly, sixvertex, symfun, tableaux
from ftok.shapes import Partition, shape_for

# tableau kind -> (factorial kind, plain kind) of symfun
_SUM_KINDS = {
    "sst": ("factorialSchur", "schur"),
    "primedP": ("factorialBigP", "bigP"),
    "primedQ": ("factorialBigQ", "bigQ"),
}


def _tableau_cases():
    """(tableau kind, shape, n) for every tableau sum of the acceptance run.

    The acceptance identities sum factorialBigP/Q over mu + delta and
    factorialSchur/schur over mu; every other range is inside these.  primedQ
    at n = 4 and |mu| = 2 is left out: its 16384 tableaux take about 19 s to
    weigh one by one.  theorem1Q and cor1_ikeda check those two sums.
    """
    params = {
        (spec.params["mu"], spec.params["n"])
        for ident in ("theorem1Q", "cor2_asm")
        for spec in _main_range(ident) + _corollary_range(ident)
    }
    cases = set()
    for mu, n in params:
        cases.add(("sst", mu.normalized(), n))
        lam = shape_for(mu, n, "delta")
        cases.add(("primedP", lam, n))
        if not (n == 4 and mu.weight() == 2):
            cases.add(("primedQ", lam, n))
    return sorted(cases, key=lambda c: (c[2], c[0], c[1].parts))


def _id(value):
    return f"({value.serialize()})" if hasattr(value, "parts") else str(value)


@pytest.mark.parametrize("tkind,shape,n", _tableau_cases(), ids=_id)
def test_tableau_sum_matches_enumeration(tkind, shape, n):
    brute = poly.poly_sum(
        tableaux.weight(t) for t in tableaux.enumerate_tableaux(tkind, shape, n)
    )
    factorial, plain = _SUM_KINDS[tkind]
    assert symfun.tableau_sum(factorial, shape, n) == brute
    assert symfun.tableau_sum(plain, shape, n) == poly.substitute(brute, {"a": poly.ZERO})
    if tkind == "primedQ":
        assert symfun.tableau_sum("ikedaQ", shape, n) == poly.substitute(brute, {"y": poly.x})


_GT_CASES = [(mu, n) for n in (1, 2, 3, 4) for mu in harness.partitions_up_to(1, n)]
_GT_CASES.append((Partition(), 5))


def _tokuyama_weight(g):
    """cor4_tokuyama's weight of one pattern: t^#R (1 + t)^#B x^(row sums)."""
    labels = [
        label for lower, row in zip(g.rows, g.rows[1:]) for label in combin.row_labels(row, lower)
    ]
    term = (
        poly.var_poly(poly.variable("t"), labels.count("R"))
        * (poly.ONE + poly.t()) ** labels.count("B")
    )
    prev = 0
    for i, row in enumerate(g.rows, start=1):
        term = term * poly.var_poly(poly.variable("x", i), sum(row) - prev)
        prev = sum(row)
    return term


@pytest.mark.parametrize("mu,n", _GT_CASES, ids=_id)
def test_gt_row_sum_matches_enumeration(mu, n):
    lam = shape_for(mu, n, "delta")
    patterns = list(combin.enumerate_gtp(lam))
    want = poly.poly_sum(combin.weight_gtp(g) for g in patterns)
    assert combin.gt_row_sum(lam, combin.gtp_row_weight) == want
    for variant in combin.VARIANTS:
        table = combin.BoltzmannTable(variant)
        want = poly.poly_sum(
            combin.weight_cpm(combin.cpm_from_asm(combin.asm_from_gtp(g)), table)
            for g in patterns
        )
        assert sixvertex.partition_function(mu, n, variant) == want, variant
    rho = shape_for(mu, n, "rho")
    want = poly.poly_sum(_tokuyama_weight(g) for g in combin.enumerate_gtp(rho))
    assert combin.gt_row_sum(rho, harness._tokuyama_row_weight) == want


@pytest.mark.parametrize("mu,n", _GT_CASES, ids=_id)
def test_row_weights_multiply_to_object_weights(mu, n):
    """Each pattern weighs the same as its shifted tableau and its ice, and its
    ice rows read off the pattern rows."""
    general = combin.BoltzmannTable("general")
    width = mu.padded(n)[0] + n
    for g in combin.enumerate_gtp(shape_for(mu, n, "delta")):
        rows = ((),) + g.rows
        c = combin.cpm_from_asm(combin.asm_from_gtp(g))
        tableau = tableaux.weight(combin.shifted_from_gtp(g))
        assert combin.weight_gtp(g) == tableau == combin.weight_cpm(c, general)
        letters = [combin.cpm_row(rows[i - 1], rows[i], width) for i in range(1, n + 1)]
        assert tuple(letters) == c.entries


@pytest.mark.parametrize("mu,n", _GT_CASES, ids=_id)
def test_lemma4_row_transfer_matches_asm_enumeration(mu, n):
    """lemma4's sides against the sum of t^(#SW - #NE) over the compass point
    matrices of the enumerated ASMs and the number of ASMs."""
    tvar = poly.variable("t")
    cpms = [combin.cpm_from_asm(a) for a in combin.enumerate_asm(shape_for(mu, n, "delta"))]
    lhs, rhs = harness._check_lemma4(mu, n)
    assert lhs == poly.poly_sum(poly.var_poly(tvar, c.count("SW") - c.count("NE")) for c in cpms)
    assert rhs == poly.const(len(cpms)) * poly.var_poly(tvar, mu.weight())
