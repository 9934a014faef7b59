import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_show_bijection_example_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "show_bijection_example.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_tracer_hooks_still_wrap():
    # perfbench/tracing.py wraps ftok functions by name; a renamed or removed
    # one would otherwise show only under `perfbench/run.py --trace 1`.  The
    # path identities sum by a combin.row_transfer of path-leg weights, so
    # only the oracle nonintersecting_sum reaches the wrapped family enumerator.
    # enumerate_asm iterates the wrapped enumerate_gtp: its 7 ASMs count once.
    code = (
        "import tracing\n"
        "from ftok import combin, harness, paths, tableaux\n"
        "from ftok.shapes import StrictPartition\n"
        "rec = tracing.Recorder()\n"
        "tracing.install(rec)\n"
        "for ident in ('cor1_ikeda', 'pathsLemma1', 'pathsLemma2'):\n"
        "    spec = harness.IdentitySpec(ident, {'mu': '1', 'n': 3})\n"
        "    assert harness.verify_identity(spec).passed, ident\n"
        "assert rec.counters['paths.families.objects'] == 0, dict(rec.counters)\n"
        "spec = harness.IdentitySpec('lemma3b', {'m': 2, 'p': 1, 'q': 2, 'n': 3})\n"
        "assert harness.verify_identity(spec).passed\n"
        "assert 'symfun.q_poly' in rec.names, rec.names\n"
        "paths.nonintersecting_sum('pst', StrictPartition((2, 1)), 2)\n"
        "for t in tableaux.enumerate_tableaux('primedQ', StrictPartition((2, 1)), 2):\n"
        "    tableaux.check(t)\n"
        "assert rec.counters['poly.mul.calls'] > 0, dict(rec.counters)\n"
        "assert rec.counters['paths.families.objects'] > 0, dict(rec.counters)\n"
        "assert rec.counters['tableaux.enumerate.objects'] > 0, dict(rec.counters)\n"
        "before = rec.counters['combin.enumerate.objects']\n"
        "assert sum(1 for _ in combin.enumerate_asm(StrictPartition((3, 2, 1)))) == 7\n"
        "assert rec.counters['combin.enumerate.objects'] - before == 7, dict(rec.counters)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_benchmark_objects_outputs_match_digests():
    # One pass of the objects workload checks the lhs and rhs of its 71 specs
    # against perfbench/expected.json.
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", "objects", "--seed", "1", "--seconds", "0",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary
