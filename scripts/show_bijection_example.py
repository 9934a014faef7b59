#!/usr/bin/env python3
"""Walk one shifted tableau through its equivalent encodings.

Given a strict shape, picks the first shifted tableau in enumeration order
(or reads one from a JSON file) and prints the corresponding pattern,
alternating sign matrix, compass point matrix, and square ice picture,
checking along the way that every encoding carries the same weight.
"""

import argparse
import json
import sys

from ftok import combin, poly, sixvertex, tableaux
from ftok.shapes import parse_strict_partition
from ftok.tableaux import Tableau


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", default="3,2,1", help="strict shape, e.g. 6,4,3,1")
    parser.add_argument("--input", help="JSON file holding a shifted tableau")
    parser.add_argument("--index", type=int, default=0, help="tableau index in enumeration order")
    args = parser.parse_args()

    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            t = Tableau.from_json(json.load(fh))
    else:
        lam = parse_strict_partition(args.shape)
        n = len(lam.parts)
        pool = list(tableaux.enumerate_tableaux("shifted", lam, n))
        if not 0 <= args.index < len(pool):
            print(f"index out of range; shape has {len(pool)} tableaux", file=sys.stderr)
            return 2
        t = pool[args.index]

    g = combin.gtp_from_shifted(t)
    a = combin.asm_from_gtp(g)
    c = combin.cpm_from_asm(a)

    print("shifted tableau:")
    print(json.dumps(t.to_json()))
    print("\npattern rows (top first):")
    for row in reversed(g.rows):
        print("  " + " ".join(str(v) for v in row))
    print("\nalternating sign matrix:")
    for row in a.entries:
        print("  " + " ".join(f"{v:2d}" for v in row))
    print("\ncompass point matrix:")
    for row in c.entries:
        print("  " + " ".join(row))
    print("\nsquare ice:")
    print(sixvertex.render_sic(c))

    w = tableaux.weight(t)
    table = combin.BoltzmannTable("general")
    assert combin.weight_gtp(g) == w
    assert combin.weight_cpm(c, table) == w
    print("\nshared weight:")
    print(poly.canonical(w))
    return 0


if __name__ == "__main__":
    sys.exit(main())
