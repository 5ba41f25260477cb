"""The benchmark's four workloads: their ops, generated inputs and answer checks.

An op is either one in-process ``multlab.cli.main(argv)`` call writing its
result to an ``--out`` file, or one call of a public library function.  Each
op's answer function checks the result independently (see checks.py) and
returns a small JSON summary, which the worker compares with the answer
recorded in expected.json.  No op passes ``--threads``: with more than one
thread, node counts depend on scheduling.

multlab is imported inside ``setup`` so that the worker can time the import
as part of set-up.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from checks import (
    check_certificate,
    check_family,
    check_proof_witness,
    check_sieve_witness,
    digest,
    family_exists,
    int_digest,
    naive_class,
    random_coloring_table,
    require,
    separated_pairs,
)

DEFAULT_SEED = 0


@dataclass
class CliResult:
    rc: int
    data: bytes


@dataclass
class Op:
    """One timed call.  For a CLI op, out is its --out file: the call returns
    the exit code and the worker reads the bytes into a CliResult."""

    name: str
    call: Callable[[dict], object]
    answer: Callable[[object, dict], dict]
    out: str | None = None
    recorded: bool = True  # False: the answer depends on the seed


def _cli_op(name: str, argv: list[str], tmp: str, answer, recorded: bool = True) -> Op:
    from multlab import cli

    out = os.path.join(tmp, name + ".json")
    full = argv + ["--out", out]
    return Op(name, lambda ctx: cli.main(full), answer, out, recorded)


def _doc(res: CliResult) -> dict:
    return json.loads(res.data)


# --- constant-deepen -------------------------------------------------------

def _constant_answer(res: CliResult, ctx) -> dict:
    doc = _doc(res)
    require(res.rc == 0 and doc["status"] == "found", f"constant gave {doc['status']}")
    cert = doc["certificate"]
    require(doc["certificate_for"] == doc["c"] - 1 == cert["B"],
            "certificate is not for c - 1")
    require(doc["certificate_verified"] is True, "certificate not verified by multlab")
    check_certificate(cert)
    return {"exit": res.rc, "status": doc["status"], "c": doc["c"],
            "nodes": doc["stats"]["nodes"], "backtracks": doc["stats"]["backtracks"],
            "certificate": digest(cert["assignment"])}


def _setup_constant(tmp: str, seed: int):
    ops = [_cli_op(f"constant-k{k}", ["constant", "--k", str(k), "--b-max", str(b_max),
                                      "--deterministic"], tmp, _constant_answer)
           for k, b_max in ((2, 100), (3, 200), (4, 1300))]
    return ops, []


# --- avoid-wide ------------------------------------------------------------

def _avoid_answer(res: CliResult, ctx) -> dict:
    doc = _doc(res)
    require(res.rc == 0 and doc["status"] in ("sat", "unsat"), f"avoid gave {doc['status']}")
    cert = None
    if doc["status"] == "sat":
        require(doc["verified"] is True, "certificate not verified by multlab")
        check_certificate(doc["certificate"])
        cert = digest(doc["certificate"]["assignment"])
    return {"exit": res.rc, "status": doc["status"], "nodes": doc["stats"]["nodes"],
            "backtracks": doc["stats"]["backtracks"], "certificate": cert}


def _verify_cert_answer(res: CliResult, ctx) -> dict:
    doc = _doc(res)
    require(res.rc == 0 and doc["valid"] is True and doc["first_violation"] is None,
            "verify-cert rejected a checked certificate")
    return {"exit": res.rc, "B": doc["B"], "valid": doc["valid"]}


def _setup_avoid(tmp: str, seed: int):
    ops = [_cli_op(f"avoid-k{k}-B{B}", ["avoid", "--k", str(k), "--B", str(B), "--deterministic"],
                   tmp, _avoid_answer)
           for k, B in ((5, 7887), (5, 7888), (6, 100000))]
    ops.append(_cli_op("verify-cert-k5-B7887", ["verify-cert", ops[0].out], tmp,
                       _verify_cert_answer))
    return ops, []


# --- witness-bignum --------------------------------------------------------

N_BIG = 7


def _generate_answer(seq, ctx) -> dict:
    terms = seq.terms
    require(len(terms) == N_BIG + 1 and terms[0] == 1, "sequence has the wrong shape")
    require(all(a < b for a, b in zip(terms[1:], terms[2:])), "terms do not increase")
    return {"bits": [t.bit_length() for t in terms], "terms": int_digest(terms)}


def _divisibility_answer(report, ctx) -> dict:
    require(report.ok, f"divisibility fails at {report.counterexample}")
    require(report.checked == separated_pairs(N_BIG), f"checked {report.checked} pairs")
    return {"ok": report.ok, "checked": report.checked}


def _proof_answer(k: int, assignment: dict[int, int]):
    def answer(w, ctx) -> dict:
        require(w is not None, "pipeline found no witness")
        check_proof_witness(ctx["seq"].terms, k, assignment, w.blocks, w.b1, w.generators)
        return {"blocks": [list(b) for b in w.blocks], "b1_bits": w.b1.bit_length(),
                "generator_bits": [g.bit_length() for g in w.generators],
                "generators": int_digest(w.generators)}
    return answer


def _probe_blockseq_answer(res: CliResult, ctx) -> dict:
    doc = _doc(res)
    require(res.rc == 0 and doc["verified"] is True and len(doc["terms"]) == 7,
            "blockseq --n 6 gave a wrong answer")
    return {"exit": res.rc, "pairs_checked": doc["pairs_checked"]}


def _probe_witness_answer(res: CliResult, ctx) -> dict:
    doc = _doc(res)
    require(res.rc == 0 and doc["status"] == "found" and doc["verified"] is True,
            "witness --n-prefix 6 gave a wrong answer")
    return {"exit": res.rc, "blocks": doc["witness"]["blocks"]}


def _setup_bignum(tmp: str, seed: int):
    from multlab import blockseq, multfunc, witness

    def generate(ctx):
        ctx["seq"] = blockseq.generate_block_sequence(N_BIG)
        return ctx["seq"]

    ops = [
        Op(f"generate-n{N_BIG}", generate, _generate_answer),
        Op(f"verify-divisibility-n{N_BIG}",
           lambda ctx: blockseq.verify_block_divisibility(ctx["seq"]), _divisibility_answer),
    ]
    for k, assignment in ((2, {2: 1, 3: 1, 5: 1}), (4, {2: 1, 3: 2, 5: 3})):
        f = multfunc.MultiplicativeFunction.finite_support(k, assignment)
        ops.append(Op(f"proof-k{k}-m4-n{N_BIG}",
                      lambda ctx, f=f: witness.ip_witness_from_proof(f, 4, N_BIG),
                      _proof_answer(k, assignment)))
    # s_6 has 10 924 digits, beyond Python's default int -> str limit, so
    # both commands fail today.  They run outside the timed passes.
    probes = [
        _cli_op("blockseq-n6", ["blockseq", "--n", "6"], tmp, _probe_blockseq_answer),
        _cli_op("witness-proof-k2-m4-n6",
                ["witness", "--method", "proof", "--k", "2", "--primes", "2:1,3:1,5:1",
                 "--m", "4", "--n-prefix", "6", "--deterministic"], tmp, _probe_witness_answer),
    ]
    return ops, probes


# --- families-scan ---------------------------------------------------------

# With two colours on the subsets of 1..15, no seed tried has 5 blocks with a
# monochromatic union closure, and every seed tried has 4 (found within a few
# hundred lookups).  So the m=5 op checks a refutation, and the m=4 op checks
# a found family, at every seed.
HINDMAN_N = 15
RUNS_BOUND = 1_000_000
LIOUVILLE_SPOT_CHECKS = 200


def _liouville_class(p: int) -> int:
    return 1


def _hindman_answer(m: int):
    def answer(res: CliResult, ctx) -> dict:
        doc = _doc(res)
        require(doc["status"] in ("found", "not-found"), f"hindman gave {doc['status']}")
        require(res.rc == (0 if doc["status"] == "found" else 2), f"exit code {res.rc}")
        table = random_coloring_table(HINDMAN_N, 2, ctx["seed"])
        if doc["status"] == "found":
            check_family(doc["blocks"], m, HINDMAN_N, table, doc["color"])
        else:
            require(not family_exists(m, HINDMAN_N, table),
                    "hindman gave not-found, but an exhaustive search finds a family")
        return {"exit": res.rc, "status": doc["status"], "blocks": doc["blocks"],
                "color": doc["color"]}
    return answer


def _runs_answer(res: CliResult, ctx) -> dict:
    doc = _doc(res)
    runs = doc["runs"]
    require(res.rc == 0 and doc["count"] == len(runs), "run count does not match the list")
    require(all(a < b for a, b in zip(runs, runs[1:])) and 1 <= runs[0] and runs[-1] <= RUNS_BOUND,
            "runs are not increasing within the bound")
    # Spot checks by trial division: sampled runs, and sampled non-runs.
    rng = random.Random(ctx["seed"])
    inside = set(runs)
    starts = rng.sample(runs, LIOUVILLE_SPOT_CHECKS)
    starts += [a for a in rng.sample(range(1, RUNS_BOUND + 1), 4 * LIOUVILLE_SPOT_CHECKS)
               if a not in inside][:LIOUVILLE_SPOT_CHECKS]
    for a in starts:
        is_run = naive_class(a, 2, _liouville_class) == 0 == naive_class(a + 1, 2, _liouville_class)
        require(is_run == (a in inside), f"run membership of {a} is wrong")
    return {"exit": res.rc, "count": doc["count"], "runs": digest(runs)}


def _witness_direct_answer(res: CliResult, ctx) -> dict:
    doc = _doc(res)
    require(res.rc == 0 and doc["status"] == "found" and doc["verified"] is True,
            f"direct witness gave {doc['status']}")
    w = doc["witness"]
    generators = [int(g) for g in w["generators"]]
    check_sieve_witness(w["function"], generators)
    return {"exit": res.rc, "status": doc["status"], "generators": generators}


def _verify_witness_answer(res: CliResult, ctx) -> dict:
    doc = _doc(res)
    require(res.rc == 0 and doc["valid"] is True and doc["first_violation"] is None,
            "verify-witness rejected a checked witness")
    return {"exit": res.rc, "valid": doc["valid"], "generators": doc["generators"]}


def _setup_families(tmp: str, seed: int):
    spec = os.path.join(tmp, "liouville-2e5.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"k": 2, "mode": "sieve-bounded", "limit": 200_001, "default": 1,
                   "assignment": []}, fh)
    ops = [
        _cli_op(f"hindman-random-n{HINDMAN_N}-m{m}",
                ["hindman", "--coloring", "random", "--n", str(HINDMAN_N), "--m", str(m),
                 "--seed", str(seed)], tmp, _hindman_answer(m), recorded=False)
        for m in (5, 4)
    ]
    ops += [
        _cli_op("runs-liouville-1e6",
                ["runs", "--k", "2", "--mode", "sieve-bounded", "--limit", str(RUNS_BOUND + 1),
                 "--default", "1", "--bound", str(RUNS_BOUND)], tmp, _runs_answer),
        _cli_op("witness-direct-liouville-m4",
                ["witness", "--method", "direct", "--m", "4", "--bound", "200000",
                 "--spec", spec, "--deterministic"], tmp, _witness_direct_answer),
    ]
    ops.append(_cli_op("verify-witness-direct", ["verify-witness", ops[3].out], tmp,
                       _verify_witness_answer))
    return ops, []


# Workloads whose ops run interpreted Python, so their times are host-scaled
# (hostspeed.py).  witness-bignum spends its time in C big-integer arithmetic,
# which the host's slow state barely slows and the reference loop cannot follow.
HOST_SCALED = {"constant-deepen", "avoid-wide", "families-scan"}

# Each set-up writes its inputs under tmp and returns (ops, known-defect probes).
# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "constant-deepen": _setup_constant,
    "avoid-wide": _setup_avoid,
    "witness-bignum": _setup_bignum,
    "families-scan": _setup_families,
}
