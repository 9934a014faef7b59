"""The ftok benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from ``src/``
and temporary files go to ``.perfbench-work/`` in the checkout.  Each pass of a
workload runs in fresh processes, one at a time (closed loop, one client, no
threads): a spec workload in one worker process, ``cli-cache`` as one
``python -m ftok.cli`` process per request against an empty cache directory.
Passes repeat, each in its own order drawn from the seed, while the next one
is expected to end within S seconds; a pass is never cut, so there is always
at least one.

With ``--trace 0`` the run prints wall_s and cpu_s (means over the passes),
peak_rss_mb (median over the passes), latency_p50_s and latency_tail_s (over
each operation's mean latency), setup_s (median of several start-ups) and
fail_frac.  cli-cache also runs the known-defect requests, untimed and
outside the operation counts.  With ``--trace 1`` it
runs one untraced and two traced passes and reports the per-layer metrics of
``tracing.LAYER_METRICS`` and the tracing overhead.  Every result is checked
against the digests in ``expected.json``.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
SETUP_PROBES = 8
TAIL_BEYOND = 10

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns the value and its rank in percent.
    """
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(ordered)}")
    return ordered[k - 1], 100.0 * k / len(ordered)


class Bench:
    """One workload's operations and the processes that run them."""

    def __init__(self, workload: str, seed: int, work: Path, expected: dict):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.n_ops = len(workloads.generate(workload, seed))
        self.expected = expected
        # A fixed hash seed makes set and dict order, and so the work done,
        # the same in every run.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.stderr_path = work / "stderr.txt"

    # -- processes ------------------------------------------------------

    def spawn(self, argv: list[str], env: dict | None = None, data: bytes | None = None):
        """Run one child to completion: (exit code, stdout, seconds, rusage)."""
        t0 = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE if data is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                cwd=ROOT,
                env=env or self.env,
            )
            try:
                if data is not None:
                    proc.stdin.write(data)
                    proc.stdin.close()
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return proc.returncode, out, time.perf_counter() - t0, usage

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-2000:]

    def setup_times(self, probes: int) -> list[float]:
        """Seconds from spawning a worker that imports ftok and generates the
        workload to its exit, once per probe."""
        argv = [sys.executable, WORKER, "setup", self.workload, str(self.seed)]
        times = []
        for _ in range(probes):
            code, _, seconds, _ = self.spawn(argv)
            if code != 0:
                raise BenchError(f"setup probe exited {code}:\n{self.stderr_tail()}")
            times.append(seconds)
        return times

    # -- passes ---------------------------------------------------------

    def spec_pass(self, ops: list[dict], trace: bool) -> dict:
        expected = self.expected["specs"]
        job = {
            "ops": ops,
            "expected": [expected.get(workloads.spec_key(op)) for op in ops],
        }
        argv = [sys.executable, WORKER, "specs"] + (["--trace"] if trace else [])
        code, out, _, _ = self.spawn(argv, data=json.dumps(job).encode("utf-8"))
        if code != 0:
            raise BenchError(f"spec worker exited {code}:\n{self.stderr_tail()}")
        return json.loads(out)

    def cli_pass(self, requests: list[list[str]], trace: bool) -> dict:
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        env = dict(self.env, FTOK_CACHE_DIR=str(cache))
        trace_file = self.work / "trace.json"
        expected = self.expected["requests"]
        first_stdout: dict[str, bytes] = {}
        latencies, errors, summaries = [], [], []
        cpu = rss = 0.0
        start = time.perf_counter()
        for argv in requests:
            if trace:
                cmd = [sys.executable, WORKER, "cli", str(trace_file)] + argv
            else:
                cmd = [sys.executable, "-m", "ftok.cli"] + argv
            code, out, seconds, usage = self.spawn(cmd, env)
            key = workloads.request_key(argv)
            out = workloads.normalized_stdout(out)
            error = workloads.request_error(code, out, expected.get(key))
            if error is None and first_stdout.setdefault(key, out) != out:
                error = "stdout differs from the first request with this key"
            latencies.append(seconds)
            errors.append(error)
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024)
            if trace:
                with open(trace_file, encoding="utf-8") as fh:
                    summary = json.load(fh)
                os.unlink(trace_file)
                summary["request"] = key
                summaries.append(summary)
        wall = time.perf_counter() - start
        shutil.rmtree(cache)
        return {
            "latencies": latencies,
            "errors": errors,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": rss,
            "trace": tracing.merge(summaries) if trace else None,
            "requests": summaries,
        }

    def one_pass(self, trace: bool, pass_no: int = 0) -> dict:
        """Run pass ``pass_no``'s operations; the result names them as "ops"."""
        ops = workloads.generate(self.workload, self.seed, pass_no)
        if self.workload == "cli-cache":
            result = self.cli_pass(ops, trace)
        else:
            result = self.spec_pass(ops, trace)
        result["ops"] = ops
        return result


# -- reporting ----------------------------------------------------------

def _failures(passes: list[dict]) -> list[str]:
    out = []
    for p in passes:
        for op, error in zip(p["ops"], p["errors"]):
            if error is not None:
                out.append(f"{workloads.op_key(op)}: {error}")
    return out


def op_latencies(passes: list[dict]) -> list[float]:
    """Each operation's mean latency over the passes.

    An operation is a key and the number of times the key came before it in
    its pass, so a cli-cache key's first request (the miss) stays apart from
    its hits.  The small specs of one pass run at one of two speeds, about
    1.5x apart, that change from pass to pass; a median per operation would
    jump between the two as their shares in a run cross one half, while the
    mean moves with the shares.
    """
    samples: dict[tuple[str, int], list[float]] = {}
    for p in passes:
        seen: collections.Counter = collections.Counter()
        for op, latency in zip(p["ops"], p["latencies"]):
            key = workloads.op_key(op)
            samples.setdefault((key, seen[key]), []).append(latency)
            seen[key] += 1
    return [statistics.fmean(v) for v in samples.values()]


def measure(bench: Bench, seconds: float):
    """End-to-end metrics over the passes that fit in ``seconds``.

    A set-up probe runs before each pass, so that the probes sample the
    machine over the whole run, and more run at the end if the run had fewer
    than SETUP_PROBES passes; the very first probe only warms the bytecode
    cache.  The probes count towards ``seconds``.

    wall_s and cpu_s are means over the passes: on a shared virtual machine
    the speed drifts in phases of tens of seconds, and a median of the
    passes would take the speed of whichever phase filled more of the run,
    while the mean weighs each phase by its share.
    """
    bench.setup_times(1)
    setup, passes = [], []
    begin = time.perf_counter()
    while True:
        setup += bench.setup_times(1)
        passes.append(bench.one_pass(trace=False, pass_no=len(passes)))
        used = time.perf_counter() - begin
        if used * (len(passes) + 1) / len(passes) > seconds:
            break
    setup += bench.setup_times(max(0, SETUP_PROBES - len(setup)))
    med = statistics.median
    latencies = op_latencies(passes)
    tail_value, tail_rank = tail(latencies)
    metrics = {
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
        "latency_p50_s": med(latencies),
        "latency_tail_s": tail_value,
        "setup_s": med(setup),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    n_ops = bench.n_ops
    attempted = n_ops * len(passes)
    failures = _failures(passes)
    print(
        f"workload {bench.workload}: seed {bench.seed}, {len(passes)} pass(es) of "
        f"{n_ops} operations, one fresh process per "
        + ("request" if bench.workload == "cli-cache" else "pass")
    )
    notes = {
        "wall_s": "mean per pass; passes " + " ".join(f"{p['wall_s']:.3f}" for p in passes),
        "cpu_s": "mean per pass",
        "latency_p50_s": f"median of {n_ops} operations' means over the passes",
        "latency_tail_s": f"p{tail_rank:.1f}: {TAIL_BEYOND} of these {n_ops} samples beyond it",
        "setup_s": f"median of {len(setup)} start-ups"
        + (" (per request)" if bench.workload == "cli-cache" else ""),
    }
    for name, value in metrics.items():
        print(f"  {name:<15} {value:12.6f} {E2E_UNITS[name]:<3} {notes.get(name, '')}")
    print(f"  {'fail_frac':<15} {len(failures) / attempted:12.6f} -   {len(failures)} of {attempted}")
    if bench.workload == "cli-cache":
        defects = bench.cli_pass([list(a) for a in workloads.KNOWN_DEFECTS], trace=False)
        broken = [e for e in defects["errors"] if e is not None]
        total = attempted + len(workloads.KNOWN_DEFECTS)
        print(
            f"  known-defect slice (contract: exit {workloads.CONTRACT_EXIT}, not timed, "
            f"not in the JSON counts): {len(broken)} of {len(workloads.KNOWN_DEFECTS)} fail; "
            f"fail_frac with the slice {(len(failures) + len(broken)) / total:.6f}"
        )
        for argv, error in zip(workloads.KNOWN_DEFECTS, defects["errors"]):
            print(f"    {workloads.request_key(argv)}: {error or 'ok'}")
    return metrics, failures, [], attempted


def _top(d: dict, k: int) -> str:
    items = sorted(d.items(), key=lambda kv: -kv[1])[:k]
    total = sum(d.values()) or 1.0
    return ", ".join(f"{name} {v:.3f}s ({100 * v / total:.0f}%)" for name, v in items)


def trace_run(bench: Bench):
    """Per-layer metrics from two traced passes, and the tracing overhead."""
    untraced = bench.one_pass(trace=False)
    traced = [bench.one_pass(trace=True), bench.one_pass(trace=True)]
    layers = [tracing.layer_metrics(p["trace"]) for p in traced]
    failures = _failures([untraced] + traced)
    drift = [
        f"count {name} differs between two passes of one seed: {layers[0][name]} != {layers[1][name]}"
        for name in tracing.EXACT_COUNTS
        if layers[0][name] != layers[1][name]
    ]
    metrics = {
        name: (statistics.median_low if isinstance(v, int) else statistics.median)(
            layer[name] for layer in layers
        )
        for name, v in layers[0].items()
    }
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    summary = traced[0]["trace"]
    print(f"workload {bench.workload}: seed {bench.seed}, traced run ({summary['spans']} spans per pass)")
    print(f"  wall_s untraced {untraced['wall_s']:.3f} s, traced {traced_wall:.3f} s")
    print(f"  largest self times: {_top(summary['self_s'], 6)}")
    if "poly.mul" in summary["callers"]:
        print(f"  poly.mul self time by caller: {_top(summary['callers']['poly.mul'], 4)}")
    hits = [r for r in traced[0].get("requests", []) if r["counters"].get("harness.cache.hits")]
    if hits:
        merged = tracing.merge(hits)
        print(
            f"  cache hits: {len(hits)} requests, {merged['total_s']['cli.main']:.3f} s in "
            f"cli.main after import; self times: {_top(merged['self_s'], 5)}"
        )
    for name in tracing.LAYER_METRICS:
        value = metrics[name]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:<36} {shown} {tracing.LAYER_METRICS[name][0]}")
    return metrics, failures, drift, 3 * bench.n_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "ftok" / "__init__.py").is_file():
        print(f"error: no ftok package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)
        bench = Bench(args.workload, args.seed, work, expected)
        if args.trace:
            metrics, failures, errors, attempted = trace_run(bench)
            units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
        else:
            metrics, failures, errors, attempted = measure(bench, args.seconds)
            units = E2E_UNITS
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for line in failures[:20]:
        print(f"FAILED {line}")
    for line in errors:
        print(f"ERROR {line}")
    print(
        json.dumps(
            {
                "correct": not failures and not errors,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
