"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every criterion is pinned: exact expected values, exact CLI invocations,
and wall-clock ceilings where required.  Run with `pytest -v` (add -s to
see the lines while passing).
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product

from multlab.arith import build_sieve
from multlab.blockseq import generate_block_sequence, subset_sum, verify_block_divisibility
from multlab.hildebrand import (
    SAT,
    avoidance_search,
    AvoidanceCertificate,
    certificate_from_dict,
    verify_certificate,
)
from multlab.hindman import fu_closure, monochromatic_fu_search, random_coloring
from multlab.multfunc import MultiplicativeFunction, find_runs
from multlab.witness import fs_closure, ip_witness_direct, ip_witness_from_proof, verify_witness

from oracles import brute_force_family, naive_runs, union_closure


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "multlab", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def test_criterion_1_forcing_constant_two_classes():
    with criterion(1, "forcing constant c(2) = 9"):
        t0 = time.perf_counter()
        code, out = run_cli("constant", "--k", "2", "--r", "2", "--deterministic")
        elapsed = time.perf_counter() - t0
        assert code == 0
        doc = json.loads(out)
        assert doc["c"] == 9

        cert = certificate_from_dict(doc["certificate"])
        assert cert.B == 8
        assert verify_certificate(cert)

        # brute force over all 16 assignments of the primes up to 9
        primes = build_sieve(9).primes()
        assert primes == [2, 3, 5, 7]
        avoiders = []
        for classes in product(range(2), repeat=4):
            assignment = dict(zip(primes, classes))
            if not naive_runs(2, assignment.__getitem__, 2, 8):
                avoiders.append(assignment)
        assert avoiders == [{2: 1, 3: 1, 5: 1, 7: 1}]
        assert cert.assignment == avoiders[0]

        # and no assignment of the primes up to 10 avoids one bound further
        primes10 = build_sieve(10).primes()
        assert all(
            naive_runs(2, dict(zip(primes10, classes)).__getitem__, 2, 9)
            for classes in product(range(2), repeat=len(primes10))
        )
        assert elapsed < 1.0, f"took {elapsed:.3f}s, ceiling 1s"


def test_criterion_2_triple_avoidance_and_known_avoider():
    with criterion(2, "triple-run avoidance at B = 50 and mod-3 avoider"):
        t0 = time.perf_counter()
        code, out = run_cli(
            "avoid", "--k", "2", "--r", "3", "--B", "50", "--deterministic"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "sat"
        assert doc["verified"] is True
        assert verify_certificate(certificate_from_dict(doc["certificate"]))

        primes = build_sieve(1002).primes()
        cert = AvoidanceCertificate(
            2, 3, 1000, {p: 0 if p % 3 == 1 else 1 for p in primes}
        )
        assert verify_certificate(cert)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.3f}s, ceiling 10s"


def test_criterion_3_three_class_engine_matches_brute_force():
    with criterion(3, "k = 3 engine agrees with brute force for B <= 12"):
        t0 = time.perf_counter()
        primes = build_sieve(13).primes()
        for B in range(1, 13):
            live = [p for p in primes if p <= B + 1]
            sat_brute = False
            for classes in product(range(3), repeat=len(live)):
                assignment = dict(zip(live, classes))
                if not naive_runs(3, assignment.__getitem__, 2, B):
                    sat_brute = True
                    break
            out = avoidance_search(3, 2, B)
            assert (out.status == SAT) == sat_brute, f"disagreement at B = {B}"
            if out.status == SAT:
                assert verify_certificate(out.certificate)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.3f}s, ceiling 60s"


def test_criterion_4_block_sequence_generation_and_verification():
    with criterion(4, "block-divisible sequence s_0..s_6"):
        seq = generate_block_sequence(6)
        assert seq.terms[:4] == (1, 1, 2, 144)
        assert bool(verify_block_divisibility(seq))


def test_criterion_5_hindman_search_on_seeded_colorings():
    with criterion(5, "monochromatic families on 100 seeded 3-colorings"):
        n, m = 10, 2
        for seed in range(100):
            coloring = random_coloring(n, classes=3, seed=seed)
            family = monochromatic_fu_search(coloring, m)
            expected = brute_force_family(coloring.color_of, n, m)
            if family is None:
                assert expected is None, f"seed {seed}: engine missed a family"
                continue
            colors = {coloring.color_of(u) for u in fu_closure(family)}
            assert len(colors) == 1, f"seed {seed}: family is not monochromatic"
            assert set(fu_closure(family)) == union_closure(list(family.blocks))
            assert family.blocks == expected, f"seed {seed}: wrong family"


def test_criterion_6_proof_pipeline_witnesses():
    with criterion(6, "proof-pipeline witnesses for k = 1 and k = 2"):
        cases = [
            (MultiplicativeFunction.finite_support(1, {}), 3, 3),
            (MultiplicativeFunction.finite_support(2, {2: 1}), 2, 3),
        ]
        for f, m, n_prefix in cases:
            w = ip_witness_from_proof(f, m, n_prefix)
            assert w is not None
            assert verify_witness(w)
            # recheck the divisibility and constant-class steps explicitly
            seq = generate_block_sequence(n_prefix)
            sums = [subset_sum(seq, block) for block in w.blocks]
            assert w.b1 == sums[0]
            base = f.evaluate(w.b1)
            for b in sums:
                assert b % w.b1 == 0
                assert f.evaluate(b) == base
            assert w.generators == tuple(b // w.b1 for b in sums[1:])


def test_criterion_7_direct_witness_for_omega_parity_prefix():
    with criterion(7, "direct witness [9, 15] below 30"):
        f = MultiplicativeFunction.sieve_bounded(2, {}, limit=31, default_class=1)
        first = ip_witness_direct(f, 2, 30)
        second = ip_witness_direct(f, 2, 30)
        assert first.generators == (9, 15)
        assert second.generators == (9, 15)
        closure = fs_closure(first.generators)
        assert closure == [9, 15, 24]
        assert all(f.evaluate(s) == 0 and f.evaluate(s + 1) == 0 for s in closure)
        assert verify_witness(first)


def test_criterion_8_every_two_class_assignment_is_forced_by_nine():
    with criterion(8, "all 16 assignments have a kernel pair by 9"):
        t0 = time.perf_counter()
        primes = build_sieve(10).primes()
        for classes in product(range(2), repeat=len(primes)):
            f = MultiplicativeFunction.sieve_bounded(
                2, dict(zip(primes, classes)), limit=10
            )
            assert find_runs(f, 2, 9), f"no kernel pair under {classes}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s, ceiling 1s"


def test_criterion_9_deterministic_output_is_repeatable():
    with criterion(9, "byte-identical JSON across three runs"):
        commands = [
            ["constant", "--k", "2", "--r", "2", "--deterministic"],
            ["avoid", "--k", "2", "--r", "3", "--B", "50", "--deterministic"],
            [
                "witness", "--method", "direct", "--m", "2", "--bound", "30",
                "--k", "2", "--mode", "sieve-bounded", "--limit", "31",
                "--default", "1", "--deterministic",
            ],
        ]
        for base in commands:
            outputs = []
            for _ in range(3):
                code, out = run_cli(*base)
                assert code == 0
                outputs.append(out)
            assert outputs[0] == outputs[1] == outputs[2], f"drift in {base[0]}"
