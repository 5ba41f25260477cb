"""Probe how far kernel runs of a given length can be avoided.

Pairs (r = 2) are forced at a finite bound for every modulus, but longer
runs behave differently: for k = 2 the classes 0 on p = 1 mod 3 and 1
elsewhere avoid triples forever, while for other moduli the answer is not
obvious.  This script deepens B up to the ceiling and reports the first
bound where runs are forced, the deepest bound still avoidable, or where
the node budget (shared by all bounds) ran out.  It never assumes which
way a modulus will go.  Exit code 2 means undecided.

    python3 scripts/run_length_frontier.py --k 3 --r 3 --b-max 200
"""

import argparse
import sys

from multlab import FOUND, SearchOptions, hildebrand_constant


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--b-max", type=int, default=100)
    ap.add_argument("--node-budget", type=int, default=5_000_000)
    ap.add_argument("--symmetry-reduction", action="store_true")
    args = ap.parse_args(argv)

    options = SearchOptions(
        symmetry_reduction=args.symmetry_reduction,
        node_budget=args.node_budget,
    )
    res = hildebrand_constant(args.k, args.b_max, r=args.r, options=options)
    print(f"nodes={res.stats.nodes} time={res.stats.wall_time:.2f}s")
    if res.status == FOUND:
        print(f"runs of length {args.r} are forced at B = {res.c} for k = {args.k}")
        return 0
    if res.reason == "sat-at-bmax":
        print(
            f"still avoidable at B = {res.certificate_for} for k = {args.k}, r = {args.r}; "
            f"no forcing bound found up to {args.b_max}"
        )
        return 0
    print(f"undecided at B = {(res.certificate_for or 0) + 1}: {res.reason}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
