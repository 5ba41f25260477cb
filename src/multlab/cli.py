"""Command line front end for the kernel-run laboratory.

Subcommands cover the minimal forcing bound (constant), run avoidance at a
fixed bound (avoid), certificate rechecks (verify-cert), kernel-run scans
(runs), block-divisible sequences (blockseq), monochromatic finite-union
families (hindman), and finite-sums witnesses (witness, verify-witness).

Exit codes: 0 for a definitive answer, including unsat decisions and
failed verifications; 2 when a search found nothing or ran out of budget;
1 for usage and input validation errors.  Handlers and the library raise
ValueError for bad or oversized input, and main alone turns it into exit 1
with the usage line and the message.  main also turns a MemoryError into
exit 1, with one error line; output is built whole before it is written,
so a run that runs out of memory writes nothing.  A verified field reports the
library's own recheck: a sat outcome builds and rechecks its certificate
when first read (constant reads only the one it reports), and the
searches raise RuntimeError rather than return an answer that fails it.

Results are JSON documents with a fixed key order.  Searches run
sequentially.  Under --deterministic the output carries no wall-clock
times, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import shutil
import stat
import sys
from dataclasses import asdict
from functools import partial

from .arith import int_to_decimal
from .blockseq import generate_block_sequence, verify_block_divisibility
from .hildebrand import (
    FOUND,
    SAT,
    UNKNOWN,
    SearchOptions,
    avoidance_search,
    certificate_from_dict,
    certificate_to_dict,
    hildebrand_constant,
)
from .hindman import (
    SearchBudgetExceeded,
    max_parity_coloring,
    monochromatic_fu_search,
    random_coloring,
    size_parity_coloring,
)
from .jsontext import MaskIndices, json_chunks, mask_index_lines
from .multfunc import (
    FINITE_SUPPORT,
    SIEVE_BOUNDED,
    MultiplicativeFunction,
    assignment_from_pairs,
    function_from_dict,
    function_to_dict,
    run_mask,
)
from .witness import (
    block_sum_coloring,
    first_violation,
    ip_witness_direct,
    ip_witness_from_proof,
    witness_from_dict,
    witness_to_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_FOUND = 2

NOT_FOUND = "not-found"

COMMANDS = ("constant", "avoid", "verify-cert", "runs", "blockseq", "hindman", "witness",
            "verify-witness")


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this CLI uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=["json", "plain"], default="json")
    p.add_argument("--out", metavar="PATH", help="write the result here instead of stdout")


def _add_search_flags(p: argparse.ArgumentParser):
    p.add_argument("--deterministic", action="store_true",
                   help="omit machine-dependent fields from the output")
    p.add_argument("--symmetry-reduction", action="store_true",
                   help="restrict the first prime to unit-orbit representatives")
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)


def _add_function_flags(p: argparse.ArgumentParser):
    p.add_argument("--spec", metavar="FILE", help="function spec JSON file")
    p.add_argument("--k", type=int, help="number of value classes (inline spec)")
    p.add_argument("--mode", choices=[FINITE_SUPPORT, SIEVE_BOUNDED], default=None)
    p.add_argument("--limit", type=int, default=None,
                   help="largest evaluable integer (sieve-bounded mode)")
    p.add_argument("--default", dest="default_class", type=int, default=0,
                   help="class of unlisted primes (sieve-bounded mode)")
    p.add_argument("--primes", default="",
                   help="inline prime classes, e.g. '2:1,3:0'")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except ValueError:  # json's error for an integer literal past the int/str limit
        raise ValueError(
            f"{path} holds an integer literal too long to parse; "
            "write big integers as decimal strings"
        ) from None


def _load_embedded(path: str, key: str):
    """The JSON at path, or its key member when it is a result document."""
    doc = _load_json(path)
    if isinstance(doc, dict) and key in doc:
        if not isinstance(doc[key], dict):
            raise ValueError(f"{path} contains no {key}")
        doc = doc[key]
    return doc


def _parse_primes(text: str) -> dict[int, int]:
    """Prime classes from '2:1,3:0'; a ValueError names the bad entry."""
    pairs = []
    for chunk in text.split(",") if text.strip() else ():
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise ValueError(f"--primes entry {chunk.strip()!r} is not of the form p:c")
        try:
            pairs.append([int(parts[0]), int(parts[1])])
        except ValueError:
            raise ValueError(
                f"--primes entry {chunk.strip()!r} is not a pair of integers"
            ) from None
    return assignment_from_pairs(pairs, "--primes")


def _function_from_args(args) -> MultiplicativeFunction:
    if args.spec is not None:
        if args.k is not None or args.mode is not None or args.limit is not None \
                or args.primes or args.default_class:
            raise ValueError("--spec cannot be combined with inline function flags")
        return function_from_dict(_load_json(args.spec))
    if args.k is None:
        raise ValueError("describe the function with --spec FILE or inline flags starting at --k")
    mode = args.mode if args.mode is not None else FINITE_SUPPORT
    return MultiplicativeFunction(
        args.k, _parse_primes(args.primes), mode=mode, limit=args.limit,
        default_class=args.default_class,
    )


def _options_from_args(args) -> SearchOptions:
    return SearchOptions(
        symmetry_reduction=args.symmetry_reduction,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
    )


def _options_doc(args) -> dict:
    return {"deterministic": args.deterministic, **asdict(_options_from_args(args))}


def _budgeted(search, *args, **kwargs):
    """(status, reason, answer) of a search that may exhaust its node budget."""
    try:
        answer = search(*args, **kwargs)
    except SearchBudgetExceeded:
        return UNKNOWN, "node-budget", None
    return (NOT_FOUND if answer is None else FOUND), None, answer


def _stats_doc(stats, deterministic: bool) -> dict:
    doc = {
        "nodes": stats.nodes,
        "backtracks": stats.backtracks,
        "depth_reached": stats.depth_reached,
    }
    if not deterministic:
        doc["wall_time"] = round(stats.wall_time, 6)
    return doc


def _plain_doc(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        if key == "command":
            continue
        if value is None:
            lines.append(f"{key} -")
        elif isinstance(value, (str, int, float, bool)):
            lines.append(f"{key} {value}")
        elif isinstance(value, list) and all(isinstance(v, (str, int)) for v in value):
            lines.append(f"{key} " + " ".join(str(v) for v in value))
        else:
            lines.append(f"{key} " + json.dumps(value, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _emit(args, doc: dict, plain: str | None = None):
    """Write doc as indented JSON, or as plain text, to --out or stdout.

    The JSON is json.dumps(doc, indent=2) plus a newline, from json_chunks.
    The text is complete before anything is written, so an encoding error
    writes nothing; an unwritable --out raises ValueError.
    """
    if args.format == "json":
        text = "".join((*json_chunks(doc), "\n"))
    else:
        text = plain if plain is not None else _plain_doc(doc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _check_out(path: str):
    """Refuse a directory, or a path whose parent is missing or no directory,
    as --out before any search: open()'s message, and no file is created."""
    try:
        if path.endswith("/") or os.path.isdir(path):
            code = errno.EISDIR
        elif not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            code = errno.ENOTDIR
        else:
            return
    except OSError as exc:
        code = exc.errno
    raise ValueError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def cmd_constant(args) -> int:
    res = hildebrand_constant(args.k, args.b_max, r=args.r, options=_options_from_args(args))
    cert = res.certificate
    doc = {
        "command": "constant",
        "k": args.k,
        "r": args.r,
        "b_max": args.b_max,
        "status": res.status,
        "c": res.c,
        "reason": res.reason,
        "certificate_for": res.certificate_for,
        "certificate": certificate_to_dict(cert) if cert else None,
        "certificate_verified": True if cert else None,
        "options": _options_doc(args),
        "stats": _stats_doc(res.stats, args.deterministic),
    }
    _emit(args, doc)
    return EXIT_OK if res.status == FOUND else EXIT_NOT_FOUND


def cmd_avoid(args) -> int:
    out = avoidance_search(args.k, args.r, args.B, options=_options_from_args(args))
    cert = out.certificate
    doc = {
        "command": "avoid",
        "k": args.k,
        "r": args.r,
        "B": args.B,
        "status": out.status,
        "reason": out.reason,
        "certificate": certificate_to_dict(cert) if cert else None,
        "verified": True if cert else None,
        "options": _options_doc(args),
        "stats": _stats_doc(out.stats, args.deterministic),
    }
    _emit(args, doc)
    return EXIT_NOT_FOUND if out.status == UNKNOWN else EXIT_OK


def cmd_verify_cert(args) -> int:
    cert = certificate_from_dict(_load_embedded(args.path, "certificate"))
    first = run_mask(cert.function(), cert.r, cert.B).find(1)
    doc = {
        "command": "verify-cert",
        "k": cert.k,
        "r": cert.r,
        "B": cert.B,
        "valid": first < 0,
        "first_violation": first if first >= 0 else None,
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_runs(args) -> int:
    f = _function_from_args(args)
    mask = run_mask(f, args.r, args.bound)
    doc = {
        "command": "runs",
        "r": args.r,
        "bound": args.bound,
        "function": function_to_dict(f),
        "runs": MaskIndices(mask),
        "count": mask.count(1),
    }
    # Both formats write the starts from the mask, with no int per start.
    _emit(args, doc, plain=mask_index_lines(mask) if args.format == "plain" else None)
    return EXIT_OK


def cmd_blockseq(args) -> int:
    seq = generate_block_sequence(args.n)
    report = verify_block_divisibility(seq)
    terms = [int_to_decimal(t) for t in seq.terms]
    doc = {
        "command": "blockseq",
        "n": args.n,
        "terms": terms,
        "verified": report.ok,
        "pairs_checked": report.checked,
    }
    if not report.ok:
        doc["counterexample"] = [list(b) for b in report.counterexample]
    _emit(args, doc, plain="".join(f"{t}\n" for t in terms))
    return EXIT_OK


def cmd_hindman(args) -> int:
    inline_function = args.spec is not None or args.k is not None
    if args.coloring != "random" and args.classes is not None:
        raise ValueError("--classes applies only to --coloring random")
    if args.coloring != "random" and args.seed is not None:
        raise ValueError("--seed applies only to --coloring random")
    if args.coloring != "function" and inline_function:
        raise ValueError("function flags apply only to --coloring function")
    seed = None
    if args.coloring == "size-parity":
        coloring = size_parity_coloring(args.n)
    elif args.coloring == "max-parity":
        coloring = max_parity_coloring(args.n)
    elif args.coloring == "random":
        seed = args.seed if args.seed is not None else 0
        classes = args.classes if args.classes is not None else 2
        if classes < 1:
            raise ValueError(f"--classes must be >= 1, got {classes}")
        coloring = random_coloring(args.n, classes, seed)
    else:
        f = _function_from_args(args)
        if f.mode != FINITE_SUPPORT:
            raise ValueError("--coloring function needs a finite-support function")
        coloring = block_sum_coloring(f, args.n)
    status, reason, family = _budgeted(
        monochromatic_fu_search, coloring, args.m, node_budget=args.node_budget
    )
    doc = {
        "command": "hindman",
        "n": args.n,
        "m": args.m,
        "coloring": args.coloring,
        "classes": coloring.classes,
        "seed": seed,
        "status": status,
        "reason": reason,
        "color": coloring.color_of(family.blocks[0]) if family else None,
        "blocks": [list(b) for b in family.blocks] if family else None,
    }
    _emit(args, doc)
    return EXIT_OK if status == FOUND else EXIT_NOT_FOUND


def cmd_witness(args) -> int:
    f = _function_from_args(args)
    if args.method == "proof":
        if args.bound is not None:
            raise ValueError("--bound applies only to --method direct")
        if args.n_prefix is None:
            raise ValueError("--method proof needs --n-prefix")
        search, size = ip_witness_from_proof, args.n_prefix
    else:
        if args.n_prefix is not None:
            raise ValueError("--n-prefix applies only to --method proof")
        if args.bound is None:
            raise ValueError("--method direct needs --bound")
        search, size = ip_witness_direct, args.bound
    status, reason, witness = _budgeted(search, f, args.m, size, node_budget=args.node_budget)
    doc = {
        "command": "witness",
        "method": args.method,
        "m": args.m,
        "n_prefix": args.n_prefix,
        "bound": args.bound,
        "status": status,
        "reason": reason,
        "witness": witness_to_dict(witness) if witness else None,
        "verified": True if witness else None,
        "options": {"deterministic": args.deterministic, "node_budget": args.node_budget},
    }
    _emit(args, doc)
    return EXIT_OK if status == FOUND else EXIT_NOT_FOUND


def cmd_verify_witness(args) -> int:
    witness = witness_from_dict(_load_embedded(args.path, "witness"))
    try:
        violation = first_violation(witness)
    except ValueError as exc:
        raise ValueError(f"witness is not checkable: {exc}") from None
    doc = {
        "command": "verify-witness",
        "k": witness.func.k,
        "provenance": witness.provenance,
        "b1": int_to_decimal(witness.b1),
        "generators": [int_to_decimal(g) for g in witness.generators],
        "valid": violation is None,
        "first_violation": int_to_decimal(violation) if violation is not None else None,
    }
    _emit(args, doc)
    return EXIT_OK


def build_parser(command: str | None = None) -> _Parser:
    """The parser for every subcommand, or for command alone when given;
    usage lines and help read the same either way."""
    commands = COMMANDS if command is None else (command,)
    # argparse makes a formatter for every argument, and each one asks the
    # terminal for its width; ask once, and give every formatter the width
    # HelpFormatter would compute.
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(
        prog="multlab",
        description="Laboratory for kernel runs of completely multiplicative functions",
        formatter_class=formatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    add_parser = partial(subparsers.add_parser, formatter_class=formatter)

    if "constant" in commands:
        p = add_parser("constant", help="least bound forcing a kernel run")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--r", type=int, default=2, help="run length (default 2)")
        p.add_argument("--b-max", dest="b_max", type=int, default=100,
                       help="give up beyond this bound (default 100)")
        _add_search_flags(p)
        _add_output_flags(p)
        p.set_defaults(handler=cmd_constant)

    if "avoid" in commands:
        p = add_parser("avoid", help="search run-avoiding prime classes at a fixed bound")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--B", type=int, required=True, help="no run may start at 1..B")
        _add_search_flags(p)
        _add_output_flags(p)
        p.set_defaults(handler=cmd_avoid)

    if "verify-cert" in commands:
        p = add_parser("verify-cert", help="recheck an avoidance certificate")
        p.add_argument("path", help="certificate JSON, or a result document containing one")
        _add_output_flags(p)
        p.set_defaults(handler=cmd_verify_cert)

    if "runs" in commands:
        p = add_parser("runs", help="list kernel-run starting points of a function")
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--bound", type=int, required=True)
        _add_function_flags(p)
        _add_output_flags(p)
        p.set_defaults(handler=cmd_runs)

    if "blockseq" in commands:
        p = add_parser("blockseq", help="generate and verify a block-divisible sequence")
        p.add_argument("--n", type=int, required=True, help="last term index")
        _add_output_flags(p)
        p.set_defaults(handler=cmd_blockseq)

    if "hindman" in commands:
        p = add_parser("hindman", help="monochromatic finite-union family search")
        p.add_argument("--n", type=int, required=True, help="universe is 1..n")
        p.add_argument("--m", type=int, required=True, help="number of blocks")
        p.add_argument("--coloring", required=True,
                       choices=["size-parity", "max-parity", "random", "function"])
        p.add_argument("--classes", type=int, default=None,
                       help="colors for --coloring random (default 2)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for --coloring random (default 0)")
        p.add_argument("--node-budget", type=int, default=None)
        _add_function_flags(p)
        _add_output_flags(p)
        p.set_defaults(handler=cmd_hindman)

    if "witness" in commands:
        p = add_parser("witness", help="find a finite-sums witness")
        p.add_argument("--method", required=True, choices=["proof", "direct"])
        p.add_argument("--m", type=int, required=True,
                       help="blocks (proof method) or generators (direct method)")
        p.add_argument("--n-prefix", dest="n_prefix", type=int, default=None,
                       help="sequence prefix length for --method proof")
        p.add_argument("--bound", type=int, default=None,
                       help="scan limit for --method direct")
        p.add_argument("--deterministic", action="store_true",
                       help="omit machine-dependent fields from the output")
        p.add_argument("--node-budget", type=int, default=None,
                       help="give up (exit 2) after this many candidate blocks (proof) "
                            "or generators (direct)")
        _add_function_flags(p)
        _add_output_flags(p)
        p.set_defaults(handler=cmd_witness)

    if "verify-witness" in commands:
        p = add_parser("verify-witness", help="recheck a finite-sums witness")
        p.add_argument("path", help="witness JSON, or a result document containing one")
        _add_output_flags(p)
        p.set_defaults(handler=cmd_verify_witness)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the named subcommand's parser is read, so only it is built; any
    # other first token gets all of them, for help and the unknown-command
    # error.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.handler(args)
    except ValueError as exc:
        parser.error(str(exc))
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: out of memory{detail}\n")


if __name__ == "__main__":
    sys.exit(main())
