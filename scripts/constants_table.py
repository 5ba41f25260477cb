"""Tabulate forcing constants: the least B where run avoidance fails.

For each modulus k the deepening search either lands on the constant
(status found), runs out of budget, or is still satisfiable at the bound
ceiling.  Up to k = 4 (c = 1, 9, 77, 1224) each finishes in under 0.1 s.
The budget counts nodes as if every probe searched from scratch, though
each resumes the previous one: k = 5 needs 5 976 661 nodes, past the
default budget, so it stops at deepest sat B = 7278 after 0.3-0.5 s.

    python3 scripts/constants_table.py --k-max 4 --b-max 2000
"""

import argparse
import sys

from multlab import SearchOptions, hildebrand_constant


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k-max", type=int, default=3)
    ap.add_argument("--r", type=int, default=2, help="run length (default 2)")
    ap.add_argument("--b-max", type=int, default=50)
    ap.add_argument("--node-budget", type=int, default=5_000_000)
    ap.add_argument("--symmetry-reduction", action="store_true")
    args = ap.parse_args(argv)

    try:
        table(args)
    except ValueError as exc:
        sys.exit(f"constants_table: error: {exc}")
    return 0


def table(args):
    options = SearchOptions(
        symmetry_reduction=args.symmetry_reduction,
        node_budget=args.node_budget,
    )
    print(f"{'k':>3}  {'status':<10} {'c':>6}  {'nodes':>12}  {'seconds':>8}")
    for k in range(1, args.k_max + 1):
        res = hildebrand_constant(k, args.b_max, r=args.r, options=options)
        c = res.c if res.c is not None else "-"
        note = "" if res.reason is None else f"  ({res.reason}, deepest sat B={res.certificate_for})"
        print(
            f"{k:>3}  {res.status:<10} {c:>6}  {res.stats.nodes:>12}"
            f"  {res.stats.wall_time:>8.2f}{note}"
        )


if __name__ == "__main__":
    sys.exit(main())
