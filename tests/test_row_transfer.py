"""The row-transfer sums against their brute-force oracles.

``symfun.tableau_sum`` and ``combin.gt_row_sum`` sum row by row; the
enumerators with the per-object weights sum object by object, and a kind's
ring map is substituted into the finished brute-force sum.  The ranges follow
the acceptance run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import _corollary_range, _main_range

from ftok import combin, harness, poly, sixvertex, symfun, tableaux
from ftok.shapes import Partition, shape_for

ROOT = Path(__file__).resolve().parent.parent

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
    assert combin.gt_row_sum(rho, combin.tokuyama_row_weight) == want


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


def test_row_sums_have_no_depth_limit(tmp_path):
    # row_transfer and the enumerators walk an explicit stack, so a chain of
    # 100 rows, or a family of 100 paths, runs under a recursion limit of 60,
    # through the CLI too; with mu = () each path weighs 1
    code = (
        "import sys\n"
        "from ftok import cli, combin, paths, symfun\n"
        "from ftok.shapes import Partition, StrictPartition\n"
        "sys.setrecursionlimit(60)\n"
        "one = Partition((1,))\n"
        "got = symfun.tableau_sum('schur', one, 100)\n"
        "assert len(got.terms) == 100, len(got.terms)\n"
        "assert paths.row_sweep_sum('sst', one, 100) == symfun.tableau_sum('factorialSchur', one, 100)\n"
        "g = next(combin.enumerate_gtp(StrictPartition(tuple(range(100, 0, -1)))))\n"
        "assert len(g.rows) == 100, len(g.rows)\n"
        "empty = Partition()\n"
        "assert paths.nonintersecting_sum('sst', empty, 100) == paths.row_sweep_sum('sst', empty, 100)\n"
        "assert cli.main(['sf', '--kind', 'schur', '--shape', '1', '--n', '100']) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FTOK_CACHE_DIR=str(tmp_path / "cache"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("x1 + x2 + "), result.stdout[:80]


def _self_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call, in a function's body, of that function's
    own name as a plain name."""
    return [
        (call.lineno, func.name)
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(func)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == func.name
    ]


def test_no_function_in_ftok_calls_itself():
    # north star 3: no request may depend on the recursion limit, so no
    # function of ftok recurses; a search walks an explicit stack
    # (shapes.depth_first or combin.row_transfer) instead
    assert _self_calls("def f(n):\n    return f(n - 1) if n else 0\n") == [(2, "f")]
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted((ROOT / "src" / "ftok").glob("*.py"))
        for line, name in _self_calls(path.read_text())
    ]
    assert found == []


def _bodies(source: str, min_nodes: int = 10) -> list[tuple[str, int, str]]:
    """(ast dump of the body, line, name) of each function whose body,
    docstring dropped, has at least ``min_nodes`` AST nodes."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = func.body[1:] if ast.get_docstring(func) is not None else func.body
            if sum(1 for stmt in body for _ in ast.walk(stmt)) >= min_nodes:
                found.append((ast.dump(ast.Module(body, [])), func.lineno, func.name))
    return found


def test_no_function_body_in_ftok_is_written_twice():
    # north star 2: one implementation per rule, so no two functions share a
    # body; bodies under 10 AST nodes (one-line accessors) may coincide
    twice = (
        'def f(xs):\n    "doc"\n    return sum(1 for x in xs if x > 0)\n'
        "def g(xs):\n    return sum(1 for x in xs if x > 0)\n"
    )
    assert len({dump for dump, _, _ in _bodies(twice)}) == 1
    assert _bodies("def f(self):\n    return self.rows\n") == []
    seen: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "ftok").glob("*.py")):
        for dump, line, name in _bodies(path.read_text()):
            seen.setdefault(dump, []).append(f"{path.name}:{line} {name}")
    assert [places for places in seen.values() if len(places) > 1] == []
