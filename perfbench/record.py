"""Record the digests that the benchmark checks results against.

    python3 perfbench/record.py

Runs every spec of the spec workloads and every cli-cache request once on the
checked-out program and writes ``expected.json``: sha256 of each spec's
canonical lhs and rhs, and each request's exit code and sha256 of its stdout
(with the wall-clock figure of ``verify`` lines blanked).  Cached requests run
twice, a miss then a hit, and must print the same bytes.  The known-defect
requests are recorded with their contract outcome, exit 2 and no output.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run
import workloads
from worker import spec_params


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from ftok import harness

    specs = {}
    for make in workloads.SPEC_WORKLOADS.values():
        for op in make():
            key = workloads.spec_key(op)
            if key in specs:
                continue
            spec = harness.IdentitySpec(op["id"], spec_params(op["params"]))
            report = harness.verify_identity(spec)
            if not report.passed:
                print(f"error: {key} fails; not recording it", file=sys.stderr)
                return 1
            specs[key] = [workloads.sha256(report.lhs), workloads.sha256(report.rhs)]

    work_root = run.ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        bench = run.Bench("cli-cache", 0, run.Path(work), {})
        env = dict(bench.env, FTOK_CACHE_DIR=str(run.Path(work) / "cache"))
        requests = {}
        for argv in workloads.CLI_CACHED + workloads.CLI_UNCACHED:
            repeats = 2 if argv in workloads.CLI_CACHED else 1
            outcomes = set()
            for _ in range(repeats):
                code, out, _, _ = bench.spawn([sys.executable, "-m", "ftok.cli"] + argv, env)
                outcomes.add((code, workloads.sha256(workloads.normalized_stdout(out))))
            if len(outcomes) != 1:
                print(f"error: {' '.join(argv)}: a cache hit differs from the miss", file=sys.stderr)
                return 1
            requests[workloads.request_key(argv)] = list(outcomes.pop())
    try:
        work_root.rmdir()
    except OSError:  # another run is using it
        pass
    for argv in workloads.KNOWN_DEFECTS:
        requests[workloads.request_key(argv)] = [workloads.CONTRACT_EXIT, workloads.sha256("")]
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        for i, (name, table) in enumerate((("requests", requests), ("specs", specs))):
            fh.write(("{" if i == 0 else ",\n") + json.dumps(name) + ": {\n")
            fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())))
            fh.write("\n}")
        fh.write("}\n")
    print(f"recorded {len(specs)} specs and {len(requests)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
