"""Benchmark inputs: the two workloads, generated from a seed.

The spec lists are fixed here, in ranges taken from ``harness.default_suite``
when the benchmark was defined, so that later changes to the suite or to test
ranges cannot shift what the benchmark measures.  A spec is ``{"id", "params"}`` with
JSON-able params (partitions as lists of parts); a CLI request is an argv list
for ``python -m ftok.cli``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

WORKLOADS = ("objects", "cli-cache")

# cli-cache: requests served through the on-disk cache (enumeration counts and
# tableau sums), each repeated so that its first request in a pass misses and
# the others hit, and requests that never touch the cache.
CLI_CACHED = (
    ["sf", "--kind", "factorial-q", "--shape", "4,3,2,1", "--n", "4"],
    ["sf", "--kind", "factorial-p", "--shape", "4,3,2,1", "--n", "4"],
    ["sf", "--kind", "factorial-q", "--shape", "4,2,1", "--n", "3"],
    ["sf", "--kind", "factorial-schur", "--shape", "3,2", "--n", "4"],
    ["sf", "--kind", "q", "--shape", "3,1", "--n", "3"],
    ["enumerate", "--kind", "primed-q", "--shape", "4,2,1", "--n", "3", "--count-only"],
    ["enumerate", "--kind", "sst", "--shape", "3,2,1", "--n", "4", "--count-only"],
    ["enumerate", "--kind", "gtp", "--shape", "6,4,2,1", "--count-only"],
)
CLI_UNCACHED = (
    ["zfunc", "--variant", "bmn", "--mu", "2,1", "--n", "3"],
    ["zfunc", "--variant", "lascoux", "--mu", "1", "--n", "3"],
    ["verify", "--id", "theorem1P", "--mu", "2,1", "--n", "3"],
    ["verify", "--id", "cor4_tokuyama", "--mu", "1", "--n", "3"],
)
CACHED_REPEATS = 4
UNCACHED_REPEATS = 2

# Inputs outside an identity's domain.  The CLI contract is exit 2 with
# nothing on stdout; at the commit that defined the benchmark all three exit 1
# (one false FAIL, two tracebacks).
KNOWN_DEFECTS = (
    ["verify", "--id", "lemma2", "--lambda", "3,2,0", "--n", "3"],
    ["verify", "--id", "lemma1", "--mu", "0", "--n", "0"],
    ["zfunc", "--variant", "bmn", "--mu", "1", "--n", "0"],
)
CONTRACT_EXIT = 2

_ELAPSED = re.compile(r"\(\d+\.\d+s\)")


def partitions_up_to(max_weight: int, max_parts: int) -> list[tuple[int, ...]]:
    """Partitions of weight <= max_weight with at most max_parts parts."""
    out = [()]

    def grow(prefix, remaining, cap):
        for part in range(min(remaining, cap), 0, -1):
            if len(prefix) < max_parts:
                cand = prefix + (part,)
                out.append(cand)
                grow(cand, remaining - part, part)

    grow((), max_weight, max_weight)
    out.sort(key=lambda p: (sum(p), p))
    return out


def _spec(ident: str, **params) -> dict:
    if "mu" in params:
        params["mu"] = list(params["mu"])
    return {"id": ident, "params": params}


def objects_specs() -> list[dict]:
    """Identities whose sides sum over combinatorial objects.

    Tableau sums (theorem 1, lemma 2, corollary 1) over the range of
    ``harness.default_suite`` cut to |mu| <= 2, plus mu=() at n=4; the
    ASM, Gelfand-Tsetlin, ice and lattice-path identities at n=4 with
    |mu| <= 1; and lemma 2 of the paths section at n <= 3, |mu| <= 2.
    """
    specs = []
    for ident in ("theorem1P", "theorem1Q", "lemma2", "cor1_ikeda"):
        for n in (1, 2, 3):
            for mu in partitions_up_to(2, n):
                specs.append(_spec(ident, mu=mu, n=n))
    for ident in ("theorem1P", "lemma2"):
        specs.append(_spec(ident, mu=(), n=4))
    for ident in (
        "cor2_asm",
        "cor3_gtp",
        "cor5_bmn",
        "cor6_lascoux",
        "lemma4",
        "cor4_tokuyama",
        "pathsLemma1",
    ):
        for mu in partitions_up_to(1, 4):
            specs.append(_spec(ident, mu=mu, n=4))
    for n in (1, 2, 3):
        for mu in partitions_up_to(2, n):
            specs.append(_spec("pathsLemma2", mu=mu, n=n))
    return specs


SPEC_WORKLOADS = {
    "objects": objects_specs,
}


def cli_requests() -> list[list[str]]:
    """The multiset of timed cli-cache requests, before seeded ordering."""
    return [list(argv) for argv in CLI_CACHED for _ in range(CACHED_REPEATS)] + [
        list(argv) for argv in CLI_UNCACHED for _ in range(UNCACHED_REPEATS)
    ]


def generate(workload: str, seed: int, pass_no: int = 0) -> list:
    """The operations of one pass: the workload's fixed multiset in seeded order.

    Each pass of a run gets its own order, drawn from the seed and the pass
    number, so that a run's medians average over orders instead of resting on
    one.  Specs with equal params share ``functools.cache`` entries in
    ``symfun`` (theorem1P and lemma2 build the same tableau sum for one mu and
    n), so they stay together in their default order and the seed shuffles
    these groups.  The same spec then always pays for a shared entry, and the
    many small specs spread over the whole pass.
    """
    rng = random.Random(f"{seed}/{pass_no}")
    if workload == "cli-cache":
        ops = cli_requests()
        rng.shuffle(ops)
        return ops
    if workload not in SPEC_WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    groups: dict[str, list] = {}
    for spec in SPEC_WORKLOADS[workload]():
        groups.setdefault(json.dumps(spec["params"], sort_keys=True), []).append(spec)
    order = list(groups.values())
    rng.shuffle(order)
    return [spec for group in order for spec in group]


# -- output check -------------------------------------------------------

def sha256(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def spec_key(spec: dict) -> str:
    return spec["id"] + json.dumps(spec["params"], sort_keys=True, separators=(",", ":"))


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def op_key(op) -> str:
    """The key of a spec or of a CLI request."""
    return request_key(op) if isinstance(op, list) else spec_key(op)


def normalized_stdout(stdout: bytes) -> bytes:
    """CLI stdout with the wall-clock figure of ``verify`` lines blanked."""
    return _ELAPSED.sub("(elapsed)", stdout.decode("utf-8", "replace")).encode("utf-8")


def spec_error(lhs: str, rhs: str, passed: bool, expected) -> str | None:
    """Why a spec's result is wrong, or None.  ``expected`` is [lhs, rhs] digests."""
    if expected is None:
        return "no recorded digest"
    if not passed:
        return "identity reported FAIL"
    if [sha256(lhs), sha256(rhs)] != list(expected):
        return "lhs/rhs digest differs from the recorded one"
    return None


def request_error(exit_code: int, stdout: bytes, expected) -> str | None:
    """Why a CLI request's outcome is wrong, or None.

    ``stdout`` is already normalized; ``expected`` is [exit, digest].
    """
    if expected is None:
        return "no recorded digest"
    want_exit, want_digest = expected
    if exit_code != want_exit:
        return f"exit {exit_code}, want {want_exit}"
    if sha256(stdout) != want_digest:
        return "stdout digest differs from the recorded one"
    return None
