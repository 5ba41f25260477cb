"""Probe how far kernel runs of a given length can be avoided.

Pairs (r = 2) are forced at a finite bound for every modulus, but longer
runs behave differently: for k = 2 the classes 0 on p = 1 mod 3 and 1
elsewhere avoid triples forever, while for other moduli the answer is not
obvious.  This script walks B upward, reports sat/unsat per bound, and
stops at the first unsat or when the budget or ceiling is hit.  It never
assumes which way a modulus will go.

    python3 scripts/run_length_frontier.py --k 3 --r 3 --b-max 200
"""

import argparse
import sys

from multlab import SAT, UNSAT, SearchOptions, avoidance_search


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--b-max", type=int, default=100)
    ap.add_argument("--step", type=int, default=1, help="bound increment per probe")
    ap.add_argument("--node-budget", type=int, default=5_000_000,
                    help="budget per probe, not cumulative")
    ap.add_argument("--symmetry-reduction", action="store_true")
    args = ap.parse_args(argv)

    options = SearchOptions(
        symmetry_reduction=args.symmetry_reduction,
        node_budget=args.node_budget,
    )
    last_sat = None
    B = args.step
    while B <= args.b_max:
        out = avoidance_search(args.k, args.r, B, options)
        print(
            f"B={B:<6} {out.status:<8} nodes={out.stats.nodes:<10} "
            f"time={out.stats.wall_time:.2f}s"
        )
        if out.status == SAT:
            last_sat = B
        elif out.status == UNSAT:
            print(f"runs of length {args.r} are forced at B = {B} for k = {args.k}")
            return 0
        else:
            print(f"undecided at B = {B}: {out.reason}")
            return 2
        B += args.step
    print(
        f"still avoidable at B = {last_sat} for k = {args.k}, r = {args.r}; "
        f"no forcing bound found up to {args.b_max}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
