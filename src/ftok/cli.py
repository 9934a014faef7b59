"""Command line interface.

Subcommands: enumerate, sf, bijection, zfunc, verify, suite.  Polynomial
output uses the canonical text form; object output uses the JSON forms of the
owning modules.  ``sf`` tableau sums are cached by ``sfcache`` as canonical
text, one file per request, under the FTOK_CACHE_DIR environment variable
(default .ftok-cache/).  Every subcommand exits 2 with ``error: ...`` on
stderr and nothing on stdout when its input is outside the domain (a bad
shape, parameter, suite config or bijection input file, or an integer too
large to index with); ``verify`` and ``suite`` exit 0 on pass and 1 on a
failed identity.  A request whose stdout is closed early (``ftok enumerate
... | head -1``) exits 141, as a filter killed by SIGPIPE does, with nothing
on stderr.  ``suite --json`` prints one report per line.

Each subcommand imports only the modules it runs, inside its ``_cmd_*``
function, so a process loads (and, without cached bytecode, compiles) no more
of ftok than its request needs: an ``sf`` cache hit reads one file and loads
no polynomial module, and no ``sf`` request loads ``harness``.  An unknown
``verify --id`` or ``zfunc --variant`` is rejected by ``harness`` or
``combin``, which hold the lists.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .shapes import parse_partition, parse_strict_partition

_SF_KINDS = {
    "schur": "schur",
    "factorial-schur": "factorialSchur",
    "p": "bigP",
    "q": "bigQ",
    "factorial-p": "factorialBigP",
    "factorial-q": "factorialBigQ",
}

_TABLEAU_KIND = {"sst": "sst", "shifted": "shifted", "primed-p": "primedP", "primed-q": "primedQ"}

# enumerate and sf kinds whose shape is a partition; all others take a strict one
_PARTITION_KINDS = {"sst", "schur", "factorial-schur", "lemma1-det"}


def _parse_shape(kind: str, text: str):
    if kind in _PARTITION_KINDS:
        return parse_partition(text)
    return parse_strict_partition(text)


def _print_text(key: str, text: str, as_json: bool) -> int:
    print(json.dumps({key: text}) if as_json else text)
    return 0


def _cmd_enumerate(args) -> int:
    shape = _parse_shape(args.kind, args.shape)
    if args.kind in ("gtp", "asm"):
        if args.n is not None:
            raise ValueError(f"--n is not read by kind {args.kind!r}")
        from . import combin

        if args.kind == "gtp":
            objects = combin.enumerate_gtp(shape)
        else:
            objects = combin.enumerate_asm(shape)
    else:
        from . import tableaux

        if args.n is None:
            raise ValueError("--n is required for tableau kinds")
        objects = tableaux.enumerate_tableaux(_TABLEAU_KIND[args.kind], shape, args.n)
    if args.count_only:
        print(sum(1 for _ in objects))
        return 0
    blobs = (obj.to_json() for obj in objects)
    if args.json:
        print(json.dumps(list(blobs)))
    else:
        for blob in blobs:
            print(json.dumps(blob))
    return 0


def _cmd_sf(args) -> int:
    shape = _parse_shape(args.kind, args.shape)
    if args.kind in _SF_KINDS:
        from . import sfcache

        text = sfcache.cached_tableau_sum(_SF_KINDS[args.kind], shape, args.n)
    else:
        from . import poly, symfun

        det_kind = args.kind.removesuffix("-det")
        text = poly.canonical(symfun.det_formula(det_kind, shape, args.n))
    return _print_text("polynomial", text, args.json)


def _cmd_bijection(args) -> int:
    from . import combin, sixvertex
    from .tableaux import Tableau

    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {args.input}: {e.strerror}") from e
    src, dst = args.source, args.target
    if src == "shifted":
        g = combin.gtp_from_shifted(Tableau.from_json(data))
    elif src == "gtp":
        g = combin.GTPattern.from_json(data)
        combin.validate_gtp(g)
    else:
        g = combin.gtp_from_asm(combin.ASM.from_json(data))
    if dst == "gtp":
        out = g.to_json()
    elif dst == "asm":
        out = combin.asm_from_gtp(g).to_json()
    elif dst == "cpm":
        out = combin.cpm_from_asm(combin.asm_from_gtp(g)).to_json()
    else:
        text = sixvertex.render_sic(combin.cpm_from_asm(combin.asm_from_gtp(g)))
        return _print_text("sic", text, args.json)
    print(json.dumps(out))
    return 0


def _cmd_zfunc(args) -> int:
    from . import poly, sixvertex

    mu = parse_partition(args.mu)
    total = sixvertex.partition_function(mu, args.n, args.variant)
    return _print_text("polynomial", poly.canonical(total), args.json)


def _spec_from_args(args):
    from .harness import IdentitySpec

    params = {}
    if args.mu is not None:
        params["mu"] = args.mu
    if args.lam is not None:
        params["lambda"] = args.lam
    for key in ("n", "m", "p", "q"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    return IdentitySpec(args.id, params)


def _print_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json()))
    else:
        status = "PASS" if report.passed else "FAIL"
        line = f"{status} {report.spec.describe()} ({report.elapsed:.3f}s)"
        if not report.passed:
            line += f" diff={report.diff}"
        print(line)


def _cmd_verify(args) -> int:
    from . import harness

    report = harness.verify_identity(_spec_from_args(args))
    _print_report(report, args.json)
    return 0 if report.passed else 1


def _cmd_suite(args) -> int:
    from . import harness

    specs = harness.load_suite_config(args.config) if args.config else None
    reports = harness.run_suite(specs)
    for report in reports:
        _print_report(report, args.json)
    failed = sum(1 for r in reports if not r.passed)
    if not args.json:
        print(f"{len(reports) - failed}/{len(reports)} identities verified")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftok",
        description="Exact verification of factorial Tokuyama-type identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list combinatorial objects")
    p.add_argument("--kind", required=True, choices=[*_TABLEAU_KIND, "gtp", "asm"])
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sf", help="print a symmetric function")
    p.add_argument("--kind", required=True, choices=sorted(_SF_KINDS) + ["lemma1-det", "lemma2-det"])
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sf)

    p = sub.add_parser("bijection", help="convert between object encodings")
    p.add_argument("--from", dest="source", required=True, choices=["shifted", "gtp", "asm"])
    p.add_argument("--to", dest="target", required=True, choices=["gtp", "asm", "cpm", "sic"])
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("zfunc", help="six-vertex partition function")
    p.add_argument("--variant", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_zfunc)

    p = sub.add_parser("verify", help="verify one identity")
    p.add_argument("--id", required=True)
    p.add_argument("--mu")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="run a batch of identity checks")
    p.add_argument("--config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Python 3.11's argparse drops the value of `--shape=--`, leaving []
        if any(isinstance(value, list) for value in vars(args).values()):
            raise ValueError("'--' is not a valid option value")
        status = args.func(args)
        sys.stdout.flush()  # inside the try, so a pipe closed by now is caught here
        return status
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # what a shell shows for a filter killed by SIGPIPE
    except (ValueError, OverflowError) as e:  # a domain error, or an integer too large to index with
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
