"""End-to-end acceptance run.

Each test covers one numbered criterion over its full parameter range and
prints a single pass/fail line.  Every identity is checked as exact
equality of canonical polynomial forms (diff == "0"); nothing is compared
numerically or approximately.
"""

import itertools
import json
import random

from ftok import combin, harness, paths, poly, sixvertex, symfun, tableaux
from ftok.combin import ASM, CPM, GTPattern
from ftok.harness import IdentitySpec
from ftok.shapes import StrictPartition, shape_for
from ftok.tableaux import Tableau

MU_SMALL = 3  # weight bound for the corollary / bijection ranges
MU_MAIN = 4  # weight bound for the theorem / lemma 1-2 ranges
MU_N4 = 2  # weight bound at n = 4; |mu| = 3-4 there would add about 18 s for theorem1Q alone


def _finish(capsys, num, label, bad):
    status = "PASS" if not bad else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:2d} [{label}]: {status}")
    assert not bad, bad[:5]


def _verify_all(specs):
    bad = []
    for spec in specs:
        report = harness.verify_identity(spec)
        if not report.passed:
            bad.append(f"{spec.describe()} diff={report.diff}")
    return bad


def _main_range(ident):
    specs = []
    for n in (1, 2, 3):
        for mu in harness.partitions_up_to(MU_MAIN, n):
            specs.append(IdentitySpec(ident, {"mu": mu, "n": n}))
    for mu in harness.partitions_up_to(MU_N4, 4):
        specs.append(IdentitySpec(ident, {"mu": mu, "n": 4}))
    return specs


def _small_range(ident):
    return [
        IdentitySpec(ident, {"mu": mu, "n": n})
        for n in (1, 2, 3)
        for mu in harness.partitions_up_to(MU_SMALL, n)
    ]


def _corollary_range(ident):
    """The small range plus n = 4, for corollary 1 and the ASM, pattern and
    ice sums."""
    return _small_range(ident) + [
        IdentitySpec(ident, {"mu": mu, "n": 4}) for mu in harness.partitions_up_to(MU_N4, 4)
    ]


def _reach_range(ident):
    """The corollary range plus n = 5 with |mu| <= 1, for the cheap identities."""
    return _corollary_range(ident) + [
        IdentitySpec(ident, {"mu": mu, "n": 5}) for mu in harness.partitions_up_to(1, 5)
    ]


def _strict_partitions(max_weight, length):
    """Strict partitions with exactly ``length`` parts and bounded weight."""
    if length == 0:
        yield StrictPartition()
        return
    def rec(prefix, remaining, cap):
        slot = length - len(prefix)
        if slot == 0:
            yield StrictPartition(prefix)
            return
        floor = slot * (slot - 1) // 2 + slot  # smallest tail sum
        for part in range(min(remaining - floor + slot, cap), slot - 1, -1):
            if part <= remaining:
                yield from rec(prefix + [part], remaining - part, part - 1)
    yield from rec([], max_weight, max_weight)


# the worked example quadruple: one shifted tableau with its pattern, matrix,
# compass form and ice rendering
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
SIC_EX = """\
 ^ ^ ^ ^ ^ ^
>+>+<+<+<+<+<
 ^ v ^ ^ ^ ^
>+<+>+>+<+<+<
 v ^ ^ v ^ ^
>+>+>+>+>+<+<
 v ^ ^ v v ^
>+>+>+<+<+>+<
 v ^ v v ^ v"""


def test_criterion_01_theorem1(capsys):
    bad = _verify_all(_main_range("theorem1P") + _main_range("theorem1Q"))
    _finish(capsys, 1, "theorem 1, P and Q classes", bad)


def test_criterion_02_lemmas_1_2(capsys):
    bad = _verify_all(_main_range("lemma1") + _main_range("lemma2"))
    _finish(capsys, 2, "determinant formulas (lemmas 1-2)", bad)


def test_criterion_03_lemma_3(capsys):
    specs = []
    for n in range(2, 5):
        for p in range(1, n):
            for m in range(1, 4):
                specs.append(IdentitySpec("lemma3a", {"m": m, "p": p, "n": n}))
                for q in range(p + 1, n + 1):
                    specs.append(IdentitySpec("lemma3b", {"m": m, "p": p, "q": q, "n": n}))
    bad = _verify_all(specs)
    _finish(capsys, 3, "alphabet recursions (lemma 3a/3b)", bad)


def test_criterion_04_lattice_paths(capsys):
    bad = []
    for n in (1, 2, 3):
        for mu in harness.partitions_up_to(8, n):
            for t in tableaux.enumerate_tableaux("sst", mu, n):
                fam = paths.tableau_to_paths(t)
                if paths.paths_to_tableau(fam) != t:
                    bad.append(f"sst round trip {t}")
                elif paths.paths_weight(fam) != tableaux.weight(t):
                    bad.append(f"sst weight {t}")
            if paths.nonintersecting_sum("sst", mu, n) != symfun.det_formula(
                "lemma1", mu, n
            ):
                bad.append(f"sst LGV sum mu={mu.serialize()} n={n}")
        for lam in _strict_partitions(8, n):
            for t in tableaux.enumerate_tableaux("primedP", lam, n):
                fam = paths.tableau_to_paths(t)
                if paths.paths_to_tableau(fam) != t:
                    bad.append(f"pst round trip {t}")
                elif paths.paths_weight(fam) != tableaux.weight(t):
                    bad.append(f"pst weight {t}")
            if paths.nonintersecting_sum("pst", lam, n) != symfun.det_formula(
                "lemma2", lam, n
            ):
                bad.append(f"pst LGV sum lambda={lam.serialize()}")
    _finish(capsys, 4, "lattice path suite", bad)


def test_criterion_05_bijection_web(capsys):
    bad = []
    table = combin.BoltzmannTable("general")
    for n in (1, 2, 3):
        for mu in harness.partitions_up_to(MU_SMALL, n):
            lam = shape_for(mu, n, "delta")
            for g in combin.enumerate_gtp(lam):
                s = combin.shifted_from_gtp(g)
                a = combin.asm_from_gtp(g)
                c = combin.cpm_from_asm(a)
                if combin.gtp_from_shifted(s) != g or combin.gtp_from_asm(a) != g:
                    bad.append(f"round trip {g}")
                    continue
                if combin.asm_from_cpm(c) != a:
                    bad.append(f"compass round trip {g}")
                    continue
                w = tableaux.weight(s)
                if combin.weight_gtp(g) != w or combin.weight_cpm(c, table) != w:
                    bad.append(f"weight mismatch {g}")
    if combin.gtp_from_shifted(S_EX) != G_EX:
        bad.append("example tableau -> pattern")
    if combin.asm_from_gtp(G_EX) != A_EX:
        bad.append("example pattern -> matrix")
    if combin.cpm_from_asm(A_EX) != C_EX:
        bad.append("example matrix -> compass form")
    if sixvertex.render_sic(C_EX) != SIC_EX:
        bad.append("example ice rendering")
    _finish(capsys, 5, "bijection web and worked example", bad)


def test_criterion_06_corollary_1(capsys):
    bad = _verify_all(_corollary_range("cor1_ikeda"))
    _finish(capsys, 6, "corollary 1 (y := x reduction)", bad)


def test_criterion_07_corollaries_2_3(capsys):
    bad = _verify_all(_corollary_range("cor2_asm") + _corollary_range("cor3_gtp"))
    _finish(capsys, 7, "corollaries 2-3 (matrix and pattern sums)", bad)


def test_criterion_08_corollary_4(capsys):
    bad = _verify_all(_reach_range("cor4_tokuyama"))
    _finish(capsys, 8, "corollary 4 (t-deformation)", bad)


class _ShiftedTable(combin.BoltzmannTable):
    """The bmn table with the t factor moved from NE to SW."""

    def weight_of(self, letter, i, j):
        if letter == "NE":
            return poly.ONE
        if letter == "SW":
            return poly.t() * (poly.z(i) + poly.alpha(j))
        return super().weight_of(letter, i, j)


def test_criterion_09_corollary_5(capsys):
    bad = _verify_all(_corollary_range("cor5_bmn"))
    base = combin.BoltzmannTable("bmn")
    shifted = _ShiftedTable("bmn")
    for n in (1, 2, 3):
        for mu in harness.partitions_up_to(MU_SMALL, n):
            lam = shape_for(mu, n, "delta")
            tshift = poly.var_poly(poly.variable("t"), mu.weight())
            for a in combin.enumerate_asm(lam):
                c = combin.cpm_from_asm(a)
                if combin.weight_cpm(c, shifted) != combin.weight_cpm(c, base) * tshift:
                    bad.append(f"t shift mu={mu.serialize()} n={n}")
                    break
            s = symfun.tableau_sum("factorialSchur", mu.normalized(), n)
            s = poly.substitute(
                s, {"x": lambda i: poly.z(i), "a": lambda j: poly.alpha(j)}
            )
            scaled = poly.substitute(
                s,
                {
                    "z": lambda i: poly.t() * poly.z(i),
                    "alpha": lambda j: poly.t() * poly.alpha(j),
                },
            )
            tinv = poly.var_poly(poly.variable("t"), -mu.weight())
            if scaled * tinv != s:
                bad.append(f"homogeneity mu={mu.serialize()} n={n}")
    _finish(capsys, 9, "corollary 5 and its t identities", bad)


def test_criterion_10_corollary_6(capsys):
    bad = _verify_all(_corollary_range("cor6_lascoux"))
    _finish(capsys, 10, "corollary 6 (Laurent identity)", bad)


def test_criterion_11_compass_counts(capsys):
    bad = []
    for n in (1, 2, 3):
        for mu in harness.partitions_up_to(MU_SMALL, n):
            lam = shape_for(mu, n, "delta")
            for a in combin.enumerate_asm(lam):
                c = combin.cpm_from_asm(a)
                if c.count("SW") != c.count("NE") + mu.weight():
                    bad.append(f"count law mu={mu.serialize()} n={n}")
                    break
    bad += _verify_all(_reach_range("lemma4"))
    bad += _verify_all(
        IdentitySpec("lemma4", {"mu": mu, "n": n})
        for n in (6, 7)
        for mu in harness.partitions_up_to(1, n)
    )
    if (C_EX.count("SW"), C_EX.count("NE")) != (5, 1):
        bad.append("worked example should give 5 = 1 + 4")
    _finish(capsys, 11, "lemma 4 compass count law", bad)


def test_criterion_12_oracle_counts(capsys):
    bad = []
    for n in (1, 2, 3):
        for mu in harness.partitions_up_to(MU_MAIN, n):
            enumerated = sum(1 for _ in tableaux.enumerate_tableaux("sst", mu, n))
            if enumerated != tableaux.sst_count(mu, n):
                bad.append(f"hook content mu={mu.serialize()} n={n}")
    for lam in (
        StrictPartition((1,)),
        StrictPartition((2, 1)),
        StrictPartition((3, 1)),
        StrictPartition((3, 2, 1)),
        StrictPartition((4, 2, 1)),
    ):
        n = len(lam.parts)
        np = sum(1 for _ in tableaux.enumerate_tableaux("primedP", lam, n))
        nq = sum(1 for _ in tableaux.enumerate_tableaux("primedQ", lam, n))
        if nq != 2 ** n * np:
            bad.append(f"2^n law lambda={lam.serialize()}")
    shape = StrictPartition((3, 2, 1))
    brute = 0
    for values in itertools.product((-1, 0, 1), repeat=9):
        rows = [list(values[0:3]), list(values[3:6]), list(values[6:9])]
        try:
            combin.validate_asm(ASM(rows, shape))
        except combin.InvalidASM:
            continue
        brute += 1
    if brute != 7:
        bad.append(f"brute force 3x3 matrix count {brute} != 7")
    if sum(1 for _ in combin.enumerate_asm(shape)) != 7:
        bad.append("enumerator disagrees with 3x3 matrix count")
    _finish(capsys, 12, "enumeration oracle counts", bad)


def _random_poly(rng, max_terms=4, allow_negative=True):
    pool = [
        poly.variable("x", 1),
        poly.variable("x", 2),
        poly.variable("y", 1),
        poly.variable("a", 1),
        poly.variable("t"),
        poly.variable("z", 2),
        poly.variable("alpha", 3),
    ]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = {}
        for var in rng.sample(pool, rng.randint(0, 3)):
            low = -2 if allow_negative else 1
            e = rng.randint(low, 3)
            if e:
                mono[var] = e
        coeff = rng.randint(-5, 5)
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + coeff
    return poly.Polynomial(terms)


def _cofactor_det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = poly.ZERO
    for c in range(n):
        minor = [row[:c] + row[c + 1:] for row in matrix[1:]]
        term = matrix[0][c] * _cofactor_det(minor)
        total = total + term if c % 2 == 0 else total - term
    return total


def test_criterion_13_algebra_properties(capsys):
    rng = random.Random(20260823)
    bad = []
    cases = 0
    subst_rules = {
        "x": lambda i: poly.z(i) + poly.const(1),
        poly.variable("y", 1): poly.t() * poly.a(2),
    }
    for _ in range(160):
        p = _random_poly(rng)
        q = _random_poly(rng)
        r = _random_poly(rng)
        checks = [
            (p + q) + r == p + (q + r),
            p + q == q + p,
            p * q == q * p,
            (p * q) * r == p * (q * r),
            p * (q + r) == p * q + p * r,
            p + poly.ZERO == p,
            p * poly.ONE == p,
            p - p == poly.ZERO,
            poly.parse(poly.canonical(p)) == p,
        ]
        cases += len(checks)
        if not all(checks):
            bad.append(f"ring/round-trip failure on {poly.canonical(p)!r}")
        s = _random_poly(rng, allow_negative=False)
        u = _random_poly(rng, allow_negative=False)
        hom = [
            poly.substitute(s + u, subst_rules)
            == poly.substitute(s, subst_rules) + poly.substitute(u, subst_rules),
            poly.substitute(s * u, subst_rules)
            == poly.substitute(s, subst_rules) * poly.substitute(u, subst_rules),
        ]
        cases += len(hom)
        if not all(hom):
            bad.append(f"substitution failure on {poly.canonical(s)!r}")
    for _ in range(40):
        n = rng.randint(1, 4)
        matrix = [
            [_random_poly(rng, max_terms=2, allow_negative=False) for _ in range(n)]
            for _ in range(n)
        ]
        cases += 1
        if poly.det(matrix) != _cofactor_det(matrix):
            bad.append(f"determinant mismatch at n={n}")
    assert cases >= 1000
    _finish(capsys, 13, f"algebra property suite ({cases} cases)", bad)
