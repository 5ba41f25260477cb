"""Walk one function through both witness producers and print every step.

Builds a finite-support function from inline prime classes, runs the
block-sequence pipeline (coloring, family, block sums, quotients) with
full intermediate output, then runs the direct kernel-pair scan for
comparison.  Numbers from the pipeline get large fast; they are printed
with a digit count once they stop fitting on a line.

    python3 scripts/witness_demo.py --k 2 --primes 2:1 --m 2 --n-prefix 4
"""

import argparse
import sys

from multlab import (
    MultiplicativeFunction,
    fs_closure,
    generate_block_sequence,
    ip_witness_direct,
    ip_witness_from_proof,
    subset_sum,
    verify_witness,
)
from multlab.arith import int_to_decimal
from multlab.blockseq import check_term_size
from multlab.cli import parse_primes


def shorten(n, keep=40):
    text = int_to_decimal(n)
    if len(text) <= keep:
        return text
    return f"{text[:18]}...{text[-18:]} <{len(text)} digits>"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--primes", default="2:1", help="classes like '2:1,3:0'")
    ap.add_argument("--m", type=int, default=2, help="blocks in the pipeline family")
    ap.add_argument("--n-prefix", type=int, default=4)
    ap.add_argument("--bound", type=int, default=2000, help="direct scan limit")
    args = ap.parse_args(argv)

    try:
        demo(args)
    except ValueError as exc:
        sys.exit(f"witness_demo: error: {exc}")
    return 0


def demo(args):
    f = MultiplicativeFunction.finite_support(args.k, parse_primes(args.primes))
    check_term_size(args.n_prefix)
    print(f"function: k={f.k}, prime classes {dict(sorted(f.assignment.items()))}")

    print(f"\n-- pipeline over s_1..s_{args.n_prefix} --")
    seq = generate_block_sequence(args.n_prefix)
    for i, t in enumerate(seq.terms):
        print(f"  s_{i} = {shorten(t)}")
    w = ip_witness_from_proof(f, args.m, args.n_prefix)
    if w is None:
        print("  no monochromatic family in this prefix; try a longer one")
    else:
        print(f"  family: {w.blocks}")
        for blk in w.blocks:
            s = subset_sum(seq, blk)
            print(f"    s_{blk} = {shorten(s)}  class {f.evaluate(s)}")
        print(f"  b1 = {shorten(w.b1)}")
        print(f"  generators: {[shorten(g) for g in w.generators]}")
        for s in fs_closure(w.generators):
            print(
                f"    sum {shorten(s)}: class {f.evaluate(s)},"
                f" successor class {f.evaluate(s + 1)}"
            )
        print(f"  verified: {verify_witness(w)}")

    print(f"\n-- direct scan below {args.bound} --")
    d = ip_witness_direct(f, max(args.m - 1, 1), args.bound)
    if d is None:
        print("  no subset-sum-closed family of kernel pairs in range")
    else:
        print(f"  generators: {d.generators}")
        print(f"  closure: {fs_closure(d.generators)}")
        print(f"  verified: {verify_witness(d)}")


if __name__ == "__main__":
    sys.exit(main())
