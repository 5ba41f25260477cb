import argparse
import hashlib
import json
import pathlib
import resource
import subprocess
import sys
import time

import pytest

from multlab import cli

from oracles import naive_runs

LIOUVILLE = ["--k", "2", "--mode", "sieve-bounded", "--limit", "31", "--default", "1"]


def run(*args, memory_cap=None):
    """(exit code, stdout, stderr) of the CLI; memory_cap (bytes) caps the
    child's address space, not this process's."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    proc = subprocess.run(
        [sys.executable, "-m", "multlab", *args],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory if memory_cap else None,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args):
    code, out, err = run(*args)
    assert err == "", err
    return code, json.loads(out)


def test_constant_reports_the_known_bound():
    code, doc = run_json("constant", "--k", "2", "--r", "2", "--deterministic")
    assert code == 0
    assert doc["status"] == "found"
    assert doc["c"] == 9
    assert doc["certificate"]["B"] == 8
    assert doc["certificate_verified"] is True
    assert "wall_time" not in doc["stats"]
    assert "threads" not in doc["options"]


def test_avoid_unsat_is_definitive():
    code, doc = run_json("avoid", "--k", "2", "--r", "2", "--B", "9", "--deterministic")
    assert code == 0
    assert doc["status"] == "unsat"
    assert doc["certificate"] is None


def test_avoid_budget_exhaustion_exits_two():
    code, doc = run_json(
        "avoid", "--k", "2", "--r", "2", "--B", "9", "--node-budget", "2"
    )
    assert code == 2
    assert doc["status"] == "unknown"
    assert doc["reason"] == "node-budget"


def test_avoid_wrapped_certificate_round_trips(tmp_path):
    out_file = tmp_path / "avoid.json"
    code, _, _ = run(
        "avoid", "--k", "2", "--r", "3", "--B", "50", "--deterministic",
        "--out", str(out_file),
    )
    assert code == 0
    wrapped = json.loads(out_file.read_text())
    assert wrapped["verified"] is True

    code, doc = run_json("verify-cert", str(out_file))
    assert code == 0
    assert doc["valid"] is True

    bare = tmp_path / "cert.json"
    bare.write_text(json.dumps(wrapped["certificate"]))
    code, doc = run_json("verify-cert", str(bare))
    assert code == 0
    assert doc["valid"] is True


def test_verify_cert_flags_violations(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "k": 2, "r": 2, "B": 8,
        "assignment": [[2, 0], [3, 0], [5, 0], [7, 0]],
    }))
    code, doc = run_json("verify-cert", str(path))
    assert code == 0
    assert doc["valid"] is False
    assert doc["first_violation"] == 1


def test_verify_cert_rejects_document_without_certificate(tmp_path):
    path = tmp_path / "unsat.json"
    code, _, _ = run(
        "avoid", "--k", "2", "--r", "2", "--B", "9", "--deterministic",
        "--out", str(path),
    )
    code, out, err = run("verify-cert", str(path))
    assert code == 1
    assert "no certificate" in err


def test_verify_cert_rejects_incomplete_assignment(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"k": 2, "r": 2, "B": 8, "assignment": [[2, 1]]}))
    code, out, err = run("verify-cert", str(path))
    assert code == 1
    assert "misses" in err


def test_runs_plain_lists_starting_points():
    code, out, err = run(
        "runs", "--r", "2", "--bound", "30", *LIOUVILLE, "--format", "plain"
    )
    assert code == 0
    assert out.split() == ["9", "14", "15", "21", "24", "25"]


def test_runs_plain_is_one_start_per_line_past_one_slice():
    flags = ["runs", "--bound", "100000", "--k", "2", "--mode", "sieve-bounded",
             "--limit", "100001", "--default", "1"]
    code, doc = run_json(*flags)
    assert (code, doc["count"] > 4096) == (0, True)
    code, out, err = run(*flags, "--format", "plain")
    assert (code, err) == (0, "")
    assert out == "".join(f"{a}\n" for a in doc["runs"])


@pytest.mark.parametrize("listed", [[], ["--primes", "2:1"]])
def test_runs_allocate_by_bound_not_by_limit(listed):
    code, out, err = run(
        "runs", "--r", "2", "--bound", "10", "--k", "2", "--mode", "sieve-bounded",
        "--limit", "1000000000", "--default", "1", *listed, memory_cap=256 * 2**20,
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["runs"] == naive_runs(2, lambda p: 1, 2, 10)


def test_runs_json_is_json_dumps_with_indent_2():
    code, out, err = run(
        "runs", "--bound", "100000", "--k", "2", "--mode", "sieve-bounded",
        "--limit", "100001", "--default", "1",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] > 20_000
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_key_past_the_primality_test_exits_one_at_once(capsys):
    # Trial division took 35 s on the first key, a prime above the limit,
    # and would not finish on the second, a prime too large to test.
    for key, message in (
        (10**18 + 3, f"assigned prime {10**18 + 3} exceeds limit 100"),
        (2**89 - 1, f"assignment key {2**89 - 1} is too large to test for primality"),
    ):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "runs", "--k", "2", "--mode", "sieve-bounded", "--limit", "100",
                "--primes", f"{key}:1", "--bound", "10",
            ])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 1
        assert message in capsys.readouterr().err


def test_emit_writes_nothing_when_encoding_fails(capsys, tmp_path):
    doc = {"runs": list(range(10)), "bad": [1, object()]}
    out = tmp_path / "out.json"
    for target in (None, str(out)):
        with pytest.raises(TypeError):
            cli._emit(argparse.Namespace(format="json", out=target), doc)
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_blockseq_terms_and_verification():
    code, doc = run_json("blockseq", "--n", "4")
    assert code == 0
    assert doc["terms"] == ["1", "1", "2", "144", "29720977239060172800"]
    assert doc["verified"] is True
    code, out, _ = run("blockseq", "--n", "3", "--format", "plain")
    assert out.splitlines() == ["1", "1", "2", "144"]


def test_blockseq_prints_terms_past_the_int_str_limit():
    code, doc = run_json("blockseq", "--n", "6")
    assert code == 0
    assert len(doc["terms"]) == 7
    assert len(doc["terms"][6]) == 10925
    assert doc["verified"] is True
    assert doc["pairs_checked"] == 321


def test_blockseq_cap_refusal_is_usage_error():
    code, out, err = run("blockseq", "--n", "40")
    assert code == 1
    assert "cap" in err


def test_blockseq_refuses_s8_at_once(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["blockseq", "--n", "8"])
    assert exc.value.code == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "refusing s_8: it would have roughly 87031808 decimal digits" in err
    assert "Traceback" not in err


def test_hindman_function_coloring_at_n8_finds_a_family_below_8():
    # s_8 is past the digit cap, but colors come from residues
    code, doc = run_json(
        "hindman", "--coloring", "function", "--k", "4", "--primes", "2:1,3:2,5:3",
        "--n", "8", "--m", "4",
    )
    assert code == 0
    assert doc["blocks"] == [[1, 2], [4], [5], [6]]


def test_hindman_function_coloring_finds_a_family_using_block_8():
    code, doc = run_json(
        "hindman", "--coloring", "function", "--k", "3", "--primes", "2:1,3:2,5:1,7:2,11:1",
        "--n", "8", "--m", "4",
    )
    assert (code, doc["status"], doc["color"]) == (0, "found", 1)
    assert doc["blocks"] == [[1], [6], [7], [8]]


# sha256 of stdout, recorded from the implementation that colored every
# block from the materialized s_n; the last two families use block n.
PIPELINE_OUTPUTS = [
    (["witness", "--method", "proof", "--k", "4", "--primes", "2:1,3:2,5:3", "--m", "4",
      "--n-prefix", "7", "--deterministic"],
     "61ba4a80cb59203e9bbf7ad590816021ba11df02ceebd51e8b3a999a775a5517"),
    (["hindman", "--coloring", "function", "--k", "4", "--primes", "2:1,3:2,5:3",
      "--n", "7", "--m", "4"],
     "8948d967640bb4dde095c26cf578af5ae164851c17f86706d13400de39c077ba"),
    (["witness", "--method", "proof", "--k", "3", "--primes", "2:1,3:2,5:1", "--m", "3",
      "--n-prefix", "4", "--deterministic"],
     "9d589f98ec83719b7c6c2bbae379b93217a8d627318761a9c7c32bf58a399e05"),
    (["hindman", "--coloring", "function", "--k", "4", "--primes", "2:0,3:1,5:1",
      "--n", "5", "--m", "3"],
     "c4ff9c9dafecffa0d2c9833b3064018ef893c70420910e28f1d28c4e192f2359"),
]


@pytest.mark.parametrize("args, digest", PIPELINE_OUTPUTS)
def test_pipeline_output_bytes_are_unchanged(args, digest):
    code, out, err = run(*args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of --deterministic stdout: the avoidance engine's answers,
# certificates and node counts, for the deepening and for single probes.
SEARCH_OUTPUTS = [
    ("constant --k 2 --b-max 100",
     "4eae79bdf11d9b24e2915d997044f94c8d4359026cb97f683fbd2d4315904808"),
    ("constant --k 3 --b-max 200",
     "f5fc69d2fd9093d0394b4a00be4cea606982fa3bbbe3e019e0175ac3dd2b1ba0"),
    ("constant --k 4 --b-max 1300",
     "bf9f2c7eac02b02b12bd5d593c6944971057f497f4fc32cb2fb0e4d623c263d8"),
    ("avoid --k 5 --B 7887", "68e4262e444afdd0fc004a47d6f0a4feea587f63628966b94f9f01f8f020f5a5"),
    ("avoid --k 5 --B 7888", "009394512cd2039ae1b14926e64af6ed2a5e7915816b93974f2df759779ad6e1"),
    ("avoid --k 6 --B 100000", "f525e05bd9d03e629f103f507d4887c7139d637e7459bec0b88388055c970bd7"),
]


@pytest.mark.parametrize("line, digest", SEARCH_OUTPUTS, ids=[case[0] for case in SEARCH_OUTPUTS])
def test_search_output_bytes_are_unchanged(line, digest, capsys):
    code = cli.main([*line.split(), "--deterministic"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_hindman_exit_codes():
    code, doc = run_json("hindman", "--n", "6", "--m", "2", "--coloring", "size-parity")
    assert code == 0
    assert doc["status"] == "found"
    assert doc["blocks"] == [[1, 2], [3, 4]]
    code, doc = run_json("hindman", "--n", "2", "--m", "2", "--coloring", "max-parity")
    assert code == 2
    assert doc["status"] == "not-found"
    code, doc = run_json(
        "hindman", "--n", "6", "--m", "3", "--coloring", "max-parity",
        "--node-budget", "2",
    )
    assert code == 2
    assert doc["status"] == "unknown"
    assert doc["reason"] == "node-budget"


def test_hindman_random_coloring_pins():
    base = ["hindman", "--coloring", "random", "--n", "15", "--seed", "0"]
    code, doc = run_json(*base, "--m", "5")
    assert code == 2
    assert (doc["status"], doc["blocks"]) == ("not-found", None)
    code, doc = run_json(*base, "--m", "4")
    assert code == 0
    assert doc["status"] == "found"
    assert doc["blocks"] == [[1], [2, 3], [5, 7, 8], [9, 10, 13, 14, 15]]


def test_hindman_flag_misuse_is_usage_error():
    code, _, err = run(
        "hindman", "--n", "4", "--m", "2", "--coloring", "size-parity",
        "--classes", "3",
    )
    assert code == 1
    assert "--classes" in err
    code, _, err = run("hindman", "--n", "4", "--m", "2", "--coloring", "function")
    assert code == 1
    code, out, err = run("hindman", "--n", "4", "--m", "0", "--coloring", "random")
    assert (code, out) == (1, "")
    assert "family size must be >= 1" in err
    assert "Traceback" not in err


def test_hindman_oversized_or_empty_universe_is_usage_error():
    for coloring, n, message in (
        ("random", "40", "exceeds the cap 20"),
        ("random", "0", "universe size"),
        ("size-parity", "0", "universe size"),
    ):
        code, out, err = run("hindman", "--coloring", coloring, "--n", n, "--m", "2")
        assert (code, out) == (1, "")
        assert message in err
        assert "Traceback" not in err


def test_hindman_function_coloring():
    code, doc = run_json(
        "hindman", "--n", "3", "--m", "2", "--coloring", "function",
        "--k", "2", "--primes", "2:1",
    )
    assert code == 0
    assert doc["blocks"] == [[1], [3]]


def test_witness_direct_and_verification(tmp_path):
    out_file = tmp_path / "witness.json"
    code, _, _ = run(
        "witness", "--method", "direct", "--m", "2", "--bound", "30",
        *LIOUVILLE, "--deterministic", "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["status"] == "found"
    assert doc["witness"]["generators"] == ["9", "15"]
    assert doc["verified"] is True

    code, vdoc = run_json("verify-witness", str(out_file))
    assert code == 0
    assert vdoc["valid"] is True

    tampered = dict(doc["witness"], generators=["9", "14"])
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    code, vdoc = run_json("verify-witness", str(bad))
    assert code == 0
    assert vdoc["valid"] is False
    assert vdoc["first_violation"] == "23"


def test_witness_direct_node_budget_exits_two():
    code, doc = run_json(
        "witness", "--method", "direct", "--m", "3", "--bound", "30", *LIOUVILLE,
        "--node-budget", "23",
    )
    assert code == 2
    assert (doc["status"], doc["reason"]) == ("unknown", "node-budget")
    assert doc["options"]["node_budget"] == 23
    code, doc = run_json(
        "witness", "--method", "direct", "--m", "3", "--bound", "30", *LIOUVILLE,
        "--node-budget", "24",
    )
    assert (code, doc["status"], doc["reason"]) == (2, "not-found", None)


def test_witness_not_found_exits_two():
    code, doc = run_json(
        "witness", "--method", "direct", "--m", "3", "--bound", "30", *LIOUVILLE
    )
    assert code == 2
    assert doc["status"] == "not-found"


def test_witness_proof_pipeline():
    code, doc = run_json(
        "witness", "--method", "proof", "--m", "3", "--n-prefix", "3", "--k", "1"
    )
    assert code == 0
    assert doc["witness"]["generators"] == ["2", "144"]
    assert doc["witness"]["blocks"] == [[1], [2], [3]]
    assert doc["verified"] is True


def test_witness_proof_pipeline_past_the_int_str_limit(tmp_path):
    path = tmp_path / "w.json"
    code, out, err = run(
        "witness", "--method", "proof", "--k", "2", "--primes", "2:1,3:1,5:1",
        "--m", "4", "--n-prefix", "6", "--deterministic", "--out", str(path),
    )
    assert (code, out, err) == (0, "", "")
    doc = json.loads(path.read_text())
    assert doc["witness"]["blocks"] == [[1], [4], [5], [6]]
    assert doc["verified"] is True
    code, check = run_json("verify-witness", str(path))
    assert code == 0
    assert check["valid"] is True
    assert check["generators"] == doc["witness"]["generators"]


def test_verify_witness_refuses_oversized_numbers(tmp_path):
    witness = {
        "function": {"k": 2, "mode": "finite-support", "assignment": [[2, 1]]},
        "provenance": "direct-search",
        "generators": ["1" + "0" * 1_000_000],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(witness))
    code, out, err = run("verify-witness", str(path))
    assert code == 1
    assert "cap of 1000000 decimal digits" in err
    assert "Traceback" not in err
    # the same number as a bare JSON integer literal is beyond what json parses
    path.write_text(json.dumps(witness).replace('"1000', "1000").replace('0"]', "0]"))
    code, out, err = run("verify-witness", str(path))
    assert code == 1
    assert "write big integers as decimal strings" in err
    assert "Traceback" not in err


def test_witness_flag_misuse_is_usage_error():
    code, _, err = run(
        "witness", "--method", "direct", "--m", "2", *LIOUVILLE
    )
    assert code == 1
    assert "--bound" in err
    code, _, err = run(
        "witness", "--method", "proof", "--m", "2", "--n-prefix", "3",
        "--bound", "10", "--k", "1",
    )
    assert code == 1
    code, _, err = run(
        "witness", "--method", "proof", "--m", "2", "--n-prefix", "3", *LIOUVILLE
    )
    assert code == 1
    assert "finite-support" in err


def test_deterministic_output_is_repeatable():
    outputs = []
    for _ in range(3):
        code, out, err = run("constant", "--k", "2", "--r", "2", "--deterministic")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("args", [
    ["constant", "--k", "2", "--threads", "2"],
    ["avoid", "--k", "2", "--B", "5", "--threads", "2"],
    ["witness", "--method", "direct", "--m", "2", "--bound", "30", *LIOUVILLE,
     "--threads", "2"],
    ["blockseq", "--n", "3", "--cap", "8"],
    ["hindman", "--n", "4", "--m", "2", "--coloring", "size-parity", "--cap", "8"],
    ["witness", "--method", "proof", "--m", "2", "--n-prefix", "3", "--k", "1",
     "--cap", "8"],
])
def test_removed_flags_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(args[-2:])}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["hindman", "--coloring", "function", "--k", "4", "--primes", "2:1", "--n", "9",
     "--m", "4"],
    ["witness", "--method", "proof", "--k", "4", "--primes", "2:1", "--m", "4",
     "--n-prefix", "9"],
])
def test_pipeline_past_s8_names_the_term_it_refuses(args, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "refusing s_8: it would have roughly 87031808 decimal digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("primes, message", [
    ("2:1,3", "--primes entry '3' is not of the form p:c"),
    ("2:1,", "--primes entry '' is not of the form p:c"),
    ("2:x", "--primes entry '2:x' is not a pair of integers"),
    ("2:1,3:0,2:0", "--primes repeats prime 2"),
])
def test_malformed_primes_are_usage_errors(primes, message):
    code, out, err = run("runs", "--bound", "10", "--k", "2", "--primes", primes)
    assert (code, out) == (1, "")
    assert f"multlab: error: {message}\n" in err
    assert "Traceback" not in err


def test_function_spec_file_and_inline_conflict(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "k": 2, "mode": "sieve-bounded", "limit": 31, "default": 1,
        "assignment": [],
    }))
    code, doc = run_json(
        "runs", "--r", "2", "--bound", "30", "--spec", str(spec)
    )
    assert code == 0
    assert doc["runs"] == [9, 14, 15, 21, 24, 25]
    code, _, err = run(
        "runs", "--r", "2", "--bound", "30", "--spec", str(spec), "--k", "2"
    )
    assert code == 1
    assert "--spec" in err


def test_malformed_spec_file_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run("runs", "--r", "2", "--bound", "10", "--spec", str(path))
    assert code == 1
    assert "not valid JSON" in err
    path.write_bytes(b'{"k": 2, "mode": "\xff"}')
    code, _, err = run("runs", "--r", "2", "--bound", "10", "--spec", str(path))
    assert code == 1
    assert "not UTF-8 text" in err
    assert "Traceback" not in err


def test_unknown_subcommand_is_usage_error():
    code, _, err = run("frobnicate")
    assert code == 1


def test_cli_import_loads_no_thread_pool():
    code = "import sys, multlab.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Every subcommand driven to its boundary: bad input exits 1 with the usage
# line and one message, an exhausted node budget exits 2 with status unknown.
# The messages were recorded before handlers stopped calling parser.error
# themselves, so a change in where exit 1 is decided shows up here.
LIOU = " ".join(LIOUVILLE)
USAGE_ERROR = "usage: multlab [-h] COMMAND ...\nmultlab: error: {}\n"
NOT_JSON = ("broken.json is not valid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)")
REFUSING_S8 = ("refusing s_8: it would have roughly 87031808 decimal digits, over the cap of "
               "1000000 decimal digits")
CONSTANT_WITHOUT_K = (
    "usage: multlab constant [-h] --k K [--r R] [--b-max B_MAX] [--deterministic]\n"
    "                        [--symmetry-reduction] [--node-budget NODE_BUDGET]\n"
    "                        [--time-budget TIME_BUDGET] [--format {json,plain}]\n"
    "                        [--out PATH]\n"
    "multlab constant: error: the following arguments are required: --k\n"
)
AVOID_BAD_INT = (
    "usage: multlab avoid [-h] --k K [--r R] --B B [--deterministic]\n"
    "                     [--symmetry-reduction] [--node-budget NODE_BUDGET]\n"
    "                     [--time-budget TIME_BUDGET] [--format {json,plain}]\n"
    "                     [--out PATH]\n"
    "multlab avoid: error: argument --k: invalid int value: 'x'\n"
)
BOUNDARY_FILES = {
    "broken.json": b"{not json",
    "latin1.json": b'{"k": 2, "mode": "\xff"}',
    "big.json": b'{"k": ' + b"9" * 5000 + b"}",
    "nocert.json": b'{"certificate": 5}',
    "partial.json": b'{"k": 2, "r": 2, "B": 10, "assignment": [[2, 1]]}',
    # Refused from its length alone: sieving to B would take about 100 GB.
    "huge.json": b'{"k": 2, "r": 2, "B": 100000000000, "assignment": []}',
    "spec.json": b'{"k": 2, "mode": "sieve-bounded", "limit": 31, "default": 1, "assignment": []}',
    "nowitness.json": b'{"witness": [1]}',
    "badwitness.json": b'{"function": {"k": 2, "mode": "finite-support", "limit": null, '
                       b'"default": 0, "assignment": []}, "provenance": "magic", '
                       b'"generators": ["1"]}',
    "unchecked.json": b'{"witness": {"function": {"k": 2, "mode": "sieve-bounded", "limit": 31, '
                      b'"default": 1, "assignment": []}, "provenance": "direct-search", '
                      b'"generators": ["40"]}}',
    # 2^40 distinct subset sums: refused from the generator count alone.
    "pow2.json": b'{"function": {"k": 2, "assignment": [[2, 1]]}, "provenance": "direct-search", '
                 b'"generators": [' + ", ".join(str(1 << i) for i in range(40)).encode() + b"]}",
}
# (command line, exit code, message); a message with a newline is the whole
# of stderr, None marks an exhausted budget.
BOUNDARY_CASES = [
    ("constant --k 0", 1, "modulus k must be >= 1, got 0"),
    ("constant --k 2 --r 1", 1, "run length must be >= 2, got 1"),
    ("constant --k 2 --b-max 0", 1, "deepening bound must be >= 1, got 0"),
    ("constant --k 2 --node-budget 0", 1, "node budget must be >= 1, got 0"),
    ("constant --k 2 --time-budget 0", 1, "time budget must be positive, got 0.0"),
    ("avoid --k 2 --B 5 --time-budget nan", 1, "time budget must be finite, got nan"),
    ("avoid --k 2 --B 5 --time-budget inf", 1, "time budget must be finite, got inf"),
    ("constant --k 3 --node-budget 100 --deterministic", 2, None),
    ("constant", 1, CONSTANT_WITHOUT_K),
    ("avoid --k 0 --B 5", 1, "modulus k must be >= 1, got 0"),
    ("avoid --k 2 --B 0", 1, "avoidance bound must be >= 1, got 0"),
    ("avoid --k 2 --r 1 --B 5", 1, "run length must be >= 2, got 1"),
    ("avoid --k 5 --B 7888 --node-budget 10 --deterministic", 2, None),
    ("avoid --k x --B 5", 1, AVOID_BAD_INT),
    ("avoid --k 2 --B 100000000000", 1,
     "B + r - 1 = 100000000001 exceeds the search table cap 10000000"),
    ("avoid --k 2 --r 100000000000 --B 5", 1,
     "B + r - 1 = 100000000004 exceeds the search table cap 10000000"),
    ("constant --k 2 --b-max 100000000000 --node-budget 10 --deterministic", 2, None),
    ("verify-cert missing.json", 1,
     "cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'"),
    ("verify-cert broken.json", 1, NOT_JSON),
    ("verify-cert latin1.json", 1,
     "latin1.json is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 18: "
     "invalid start byte"),
    ("verify-cert big.json", 1,
     "big.json holds an integer literal too long to parse; write big integers as decimal strings"),
    ("verify-cert nocert.json", 1, "nocert.json contains no certificate"),
    ("verify-cert partial.json", 1,
     "certificate invalid: certificate misses classes for primes [3, 5, 7, 11]"),
    ("verify-cert huge.json", 1,
     "certificate invalid: certificate misses classes: 0 given, but 2..100000000001 holds "
     "at least 3948131653 primes"),
    ("verify-cert spec.json", 1, "certificate field 'r' must be an integer"),
    ("runs --bound 10", 1,
     "describe the function with --spec FILE or inline flags starting at --k"),
    ("runs --bound 10 --spec spec.json --k 2", 1,
     "--spec cannot be combined with inline function flags"),
    ("runs --bound 10 --spec broken.json", 1, NOT_JSON),
    ("runs --bound 10 --spec nocert.json", 1,
     "function spec field 'k' must be a positive integer"),
    (f"runs --bound 0 {LIOU}", 1, "bound must be >= 1, got 0"),
    (f"runs --r 0 --bound 10 {LIOU}", 1, "run length must be >= 1, got 0"),
    (f"runs --bound 40 {LIOU}", 1, "41 exceeds evaluable range 1..31"),
    ("runs --bound 10 --k 0", 1, "modulus k must be >= 1, got 0"),
    ("runs --bound 10 --k 2 --primes 2:1,3", 1, "--primes entry '3' is not of the form p:c"),
    ("runs --bound 10 --k 2 --primes 4:1", 1, "assignment key 4 is not prime"),
    ("runs --k 2 --primes 2:1 --bound 100000000000", 1,
     "class table up to 100000000001 exceeds the cap 100000000"),
    ("blockseq --n -1", 1, "term count index must be >= 0, got -1"),
    ("blockseq --n 8", 1, REFUSING_S8),
    ("blockseq --n 40", 1,
     "refusing s_40: it would have roughly 332 * 2^770 decimal digits, over the cap of "
     "1000000 decimal digits"),
    ("hindman --n 4 --m 2 --coloring size-parity --classes 3", 1,
     "--classes applies only to --coloring random"),
    ("hindman --n 4 --m 2 --coloring max-parity --seed 1", 1,
     "--seed applies only to --coloring random"),
    ("hindman --n 4 --m 2 --coloring random --k 2", 1,
     "function flags apply only to --coloring function"),
    ("hindman --n 4 --m 2 --coloring random --classes 0", 1, "--classes must be >= 1, got 0"),
    (f"hindman --n 4 --m 2 --coloring function {LIOU}", 1,
     "--coloring function needs a finite-support function"),
    ("hindman --n 4 --m 2 --coloring function", 1,
     "describe the function with --spec FILE or inline flags starting at --k"),
    ("hindman --n 0 --m 2 --coloring size-parity", 1, "universe size must be >= 1, got 0"),
    ("hindman --n 4 --m 0 --coloring size-parity", 1, "family size must be >= 1, got 0"),
    ("hindman --n 40 --m 2 --coloring random", 1,
     "random coloring tabulates 2^n - 1 subsets; n = 40 exceeds the cap 20"),
    ("hindman --n 9 --m 4 --coloring function --k 4 --primes 2:1", 1, REFUSING_S8),
    ("hindman --n 12 --m 6 --coloring random --node-budget 5", 2, None),
    ("hindman --n 4 --m 2 --coloring size-parity --node-budget 0", 1,
     "node budget must be >= 1, got 0"),
    ("witness --method proof --m 2 --n-prefix 3 --bound 10 --k 1", 1,
     "--bound applies only to --method direct"),
    ("witness --method proof --m 2 --k 1", 1, "--method proof needs --n-prefix"),
    (f"witness --method direct --m 2 --n-prefix 3 {LIOU}", 1,
     "--n-prefix applies only to --method proof"),
    (f"witness --method direct --m 2 {LIOU}", 1, "--method direct needs --bound"),
    (f"witness --method proof --m 2 --n-prefix 3 {LIOU}", 1,
     "pipeline needs a finite-support function, got mode 'sieve-bounded'"),
    ("witness --method proof --m 1 --n-prefix 3 --k 1", 1,
     "pipeline needs m >= 2 blocks (m - 1 generators), got 1"),
    ("witness --method proof --m 2 --n-prefix 0 --k 1", 1, "prefix length must be >= 1, got 0"),
    (f"witness --method direct --m 0 --bound 30 {LIOU}", 1, "generator count must be >= 1, got 0"),
    (f"witness --method direct --m 2 --bound 0 {LIOU}", 1, "bound must be >= 1, got 0"),
    (f"witness --method direct --m 2 --bound 40 {LIOU}", 1, "41 exceeds evaluable range 1..31"),
    ("witness --method direct --k 2 --primes 2:1 --m 2 --bound 100000000000", 1,
     "class table up to 100000000001 exceeds the cap 100000000"),
    ("witness --method direct --k 2 --primes 2:1 --m 21 --bound 100000000000", 1,
     "generator count m = 21 exceeds the cap 20"),
    (f"witness --method direct --m 3 --bound 30 {LIOU} --node-budget 2", 2, None),
    ("witness --method proof --m 4 --n-prefix 5 --k 2 --primes 2:1,3:1,5:1 --node-budget 1", 2,
     None),
    ("witness --method proof --k 4 --primes 2:1 --m 4 --n-prefix 9", 1, REFUSING_S8),
    ("witness --method proof --m 2 --n-prefix 3 --k 1 --node-budget 0", 1,
     "node budget must be >= 1, got 0"),
    ("constant --k 2 --out missing/x.json", 1,
     "cannot write missing/x.json: [Errno 2] No such file or directory: 'missing/x.json'"),
    ("constant --k 2 --out .", 1, "cannot write .: [Errno 21] Is a directory: '.'"),
    ("avoid --k 2 --B 5 --out broken.json/x.json", 1,
     "cannot write broken.json/x.json: [Errno 20] Not a directory: 'broken.json/x.json'"),
    ("verify-witness missing.json", 1,
     "cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'"),
    ("verify-witness broken.json", 1, NOT_JSON),
    ("verify-witness nowitness.json", 1, "nowitness.json contains no witness"),
    ("verify-witness badwitness.json", 1,
     "witness field 'provenance' must be 'proof-pipeline' or 'direct-search'"),
    ("verify-witness pow2.json", 1, "witness invalid: 40 generators exceed the cap 20"),
    ("verify-witness unchecked.json", 1,
     "witness is not checkable: 40 exceeds evaluable range 1..31"),
    ("verify-witness big.json", 1,
     "big.json holds an integer literal too long to parse; write big integers as decimal strings"),
]


@pytest.mark.parametrize("line, code, message", BOUNDARY_CASES,
                         ids=[case[0] for case in BOUNDARY_CASES])
def test_each_subcommand_at_its_boundary(line, code, message, tmp_path, monkeypatch, capsys):
    for name, data in BOUNDARY_FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = cli.main(line.split())
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert "Traceback" not in out + err
    if message is None:
        assert err == ""
        doc = json.loads(out)
        assert (doc["status"], doc["reason"]) == ("unknown", "node-budget")
    else:
        assert out == ""
        assert err == (message if "\n" in message else USAGE_ERROR.format(message))


def test_unwritable_out_is_refused_before_the_search(tmp_path, monkeypatch, capsys):
    # The search alone takes seconds; the file it cannot write is known at once.
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main("constant --k 5 --b-max 3000 --out missing/x.json".split())
    assert time.perf_counter() - start < 0.5
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "cannot write missing/x.json: [Errno 2] No such file or directory: 'missing/x.json'\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [None, "x.json"])
def test_memory_error_exits_one_and_writes_nothing(tmp_path, monkeypatch, capsys, out):
    # Stands in for an answer whose JSON text does not fit in memory.
    def no_room(doc):
        raise MemoryError

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "json_chunks", no_room)
    argv = ["runs", *LIOUVILLE, "--bound", "30"] + (["--out", out] if out else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", "multlab: error: out of memory\n")
    assert list(tmp_path.iterdir()) == []


def test_avoid_refuses_a_modulus_past_the_cap_at_once():
    start = time.perf_counter()
    code, out, err = run("avoid", "--k", "65537", "--B", "10")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.endswith("multlab: error: modulus k = 65537 exceeds the search cap 65536\n")
    code, doc = run_json("avoid", "--k", "65536", "--B", "10", "--deterministic")
    assert (code, doc["status"], doc["verified"]) == (0, "sat", True)


SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, message", [
    ("constants_table.py", "--b-max 0", "deepening bound must be >= 1, got 0"),
    ("constants_table.py", "--node-budget 0", "node budget must be >= 1, got 0"),
])
def test_scripts_refuse_out_of_range_arguments(script, args, message):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args.split()],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"{script[:-3]}: error: {message}\n"
