"""The row-transfer sums against their brute-force oracles.

``symfun.tableau_sum`` and ``combin.gt_row_sum`` sum row by row; the
enumerators with the per-object weights sum object by object, and a kind's
ring map is substituted into the finished brute-force sum.  The ranges follow
the acceptance run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import (MU_MAIN, MU_N4, MU_SMALL, _corollary_range, _main_range,
                             _strict_partitions)

from ftok import combin, harness, poly, sixvertex, symfun, tableaux
from ftok.shapes import Partition, StrictPartition, shape_for

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
    at n = 4 and |mu| = 2 is left out: (6, 3, 2, 1) has 16384 tableaux, about
    19 s to weigh one by one, and test_shared_row_sums_do_not_depend_on_order
    checks (5, 4, 2, 1).  theorem1Q and cor1_ikeda check both sums.
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
    assert combin.gt_row_sum(lam, combin.gtp_row_weight, "gtp") == want
    for variant in combin.VARIANTS:
        table = combin.BoltzmannTable(variant)
        want = poly.poly_sum(
            combin.weight_cpm(combin.cpm_from_asm(combin.asm_from_gtp(g)), table)
            for g in patterns
        )
        assert sixvertex.partition_function(mu, n, variant) == want, variant
    rho = shape_for(mu, n, "rho")
    want = poly.poly_sum(_tokuyama_weight(g) for g in combin.enumerate_gtp(rho))
    assert combin.gt_row_sum(rho, combin.tokuyama_row_weight, "tokuyama") == want


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


# Reads a JSON list of (sum, key, parts, n) jobs from stdin, sums them in that
# order in one process and prints their canonical texts as a JSON list.
_SUM_JOBS = """
import json, sys
from ftok import combin, harness, paths, poly, sixvertex, symfun, tableaux
from ftok.shapes import Partition, StrictPartition

def tableau(kind, parts, n):
    return symfun.tableau_sum(kind, tableaux.KINDS[symfun.KINDS[kind][0]][0](parts), n)

def gt(weight, parts, n):
    row_weight = {"gtp": combin.gtp_row_weight, "tokuyama": combin.tokuyama_row_weight}[weight]
    return combin.gt_row_sum(StrictPartition(parts), row_weight, weight)

def ice(variant, parts, n):
    if variant == "lemma4":
        return harness._check_lemma4(Partition(parts), n)[0]
    return sixvertex.partition_function(Partition(parts), n, variant)

def lattice(kind, parts, n):
    return paths.row_sweep_sum(kind, (Partition if kind == "sst" else StrictPartition)(parts), n)

SUMS = {"tableau": tableau, "gt": gt, "ice": ice, "paths": lattice}
print(json.dumps([poly.canonical(SUMS[name](key, tuple(parts), n))
                  for name, key, parts, n in json.load(sys.stdin)]))
"""


def _row_sum_jobs():
    """(sum, key, parts, n) for every key of every row-transfer sum, over the
    tier-1 ranges at n <= 4, each top's keys side by side."""
    jobs = []
    for n in (1, 2, 3, 4):
        for mu in harness.partitions_up_to(MU_MAIN if n < 4 else MU_N4, n):
            lam = shape_for(mu, n, "delta").parts
            for kind, (tkind, _) in symfun.KINDS.items():
                jobs.append(("tableau", kind, mu.normalized().parts if tkind == "sst" else lam, n))
        for mu in harness.partitions_up_to(MU_SMALL if n < 4 else MU_N4, n):
            jobs.append(("gt", "gtp", shape_for(mu, n, "delta").parts, n))
            jobs.append(("gt", "tokuyama", shape_for(mu, n, "rho").parts, n))
            jobs += [("ice", key, mu.parts, n) for key in combin.VARIANTS + ("lemma4",)]
        if n < 4:
            jobs += [("paths", "sst", mu.parts, n) for mu in harness.partitions_up_to(8, n)]
            jobs += [("paths", "pst", lam.parts, n) for lam in _strict_partitions(8, n)]
        else:
            for mu in harness.partitions_up_to(MU_N4, n):
                jobs.append(("paths", "sst", mu.parts, n))
                jobs.append(("paths", "pst", shape_for(mu, n, "delta").parts, n))
    return jobs


def test_shared_row_sums_do_not_depend_on_order():
    # the row-transfer memos and the weight caches live as long as the
    # process, so each order of the same sums must give the same texts; the
    # primedQ sum at (5, 4, 2, 1), n = 4, taken last, after every other n = 4
    # top, is checked against its 6144 tableaux
    last = ("tableau", "factorialBigQ", (5, 4, 2, 1), 4)
    jobs = _row_sum_jobs()
    jobs.remove(last)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _SUM_JOBS],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(2)
    ]
    outputs = [
        proc.communicate(json.dumps(order + [last]), timeout=120)
        for proc, order in zip(procs, (jobs, jobs[::-1]))
    ]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outputs]
    ascending, descending = (json.loads(out) for out, _ in outputs)
    assert len(ascending) == len(jobs) + 1
    assert ascending[:-1] == descending[-2::-1]
    assert ascending[-1] == descending[-1]
    lam = StrictPartition(last[2])
    tabs = list(tableaux.enumerate_tableaux("primedQ", lam, 4))
    assert len(tabs) == 6144
    assert ascending[-1] == poly.canonical(poly.poly_sum(tableaux.weight(t) for t in tabs))


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
