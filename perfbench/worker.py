"""One fresh worker process of the benchmark.

    worker.py setup WORKLOAD SEED     import ftok, generate the workload, exit
    worker.py specs [--trace]         verify the specs read as JSON from stdin
    worker.py cli TRACE_FILE ARGV...  one traced ``ftok`` CLI request

``specs`` prints one JSON object: per-spec latencies and errors, the wall and
CPU time from the first spec issued to the last result checked, and the peak
resident memory.  ``cli`` behaves like ``python -m ftok.cli ARGV...`` and
writes its span summary to TRACE_FILE.  ftok must be importable, e.g. with
``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _setup(workload: str, seed: int) -> None:
    import ftok.harness  # noqa: F401

    if workload == "cli-cache":
        import ftok.cli  # noqa: F401
    workloads.generate(workload, seed)


def spec_params(params: dict) -> dict:
    from ftok.shapes import Partition, StrictPartition

    out = dict(params)
    if "mu" in out:
        out["mu"] = Partition(out["mu"])
    if "lambda" in out:
        out["lambda"] = StrictPartition(out["lambda"])
    return out


def _specs(trace: bool) -> dict:
    from ftok import harness

    job = json.load(sys.stdin)
    rec = None
    if trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    specs = [harness.IdentitySpec(op["id"], spec_params(op["params"])) for op in job["ops"]]
    latencies, errors = [], []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for spec, expected in zip(specs, job["expected"]):
        t0 = time.perf_counter()
        try:
            report = harness.verify_identity(spec)
            error = workloads.spec_error(report.lhs, report.rhs, report.passed, expected)
        except Exception as e:  # a spec that raises is a failed operation
            error = f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter() - t0)
        errors.append(error)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    return {
        "latencies": latencies,
        "errors": errors,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": rec.summary() if rec else None,
    }


def _cli(trace_file: str, argv: list[str]) -> None:
    import tracing

    rec = tracing.Recorder()
    t0 = time.perf_counter()
    import ftok.cli

    rec.counters["cli.import_s"] = time.perf_counter() - t0
    tracing.install(rec)
    main = rec.wrap("cli.main", ftok.cli.main)
    try:
        sys.exit(main(argv))
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(rec.summary(), fh)


def main(argv: list[str]) -> None:
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 3:
        _setup(argv[1], int(argv[2]))
    elif mode == "specs" and argv[1:] in ([], ["--trace"]):
        json.dump(_specs(trace=argv[1:] == ["--trace"]), sys.stdout)
    elif mode == "cli" and len(argv) >= 2:
        _cli(argv[1], argv[2:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
