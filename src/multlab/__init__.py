"""Laboratory for kernel runs of completely multiplicative functions.

Completely multiplicative functions into the k-th roots of unity are
handled through their additive encoding (residue classes mod k on the
primes, class 0 for the kernel).  The package searches for run-avoiding
prime classes and minimal forcing bounds, generates block-divisible
sequences, hunts monochromatic finite-union families over finite
universes, and assembles finite-sums witnesses placing a whole
subset-sum closure inside the kernel and its shift by one.
"""

from .arith import FactorizationSieve, build_sieve, is_prime, prime_flags, valuation
from .blockseq import (
    BlockSequence,
    DivisibilityReport,
    estimated_digits,
    generate_block_sequence,
    normalize_index_set,
    precedes,
    subset_sum,
    verify_block_divisibility,
)
from .hildebrand import (
    FOUND,
    SAT,
    UNKNOWN,
    UNSAT,
    AvoidanceCertificate,
    ConstantResult,
    SearchOptions,
    SearchOutcome,
    SearchStats,
    avoidance_search,
    certificate_from_dict,
    certificate_to_dict,
    hildebrand_constant,
    verify_certificate,
)
from .hindman import (
    BlockFamily,
    SearchBudgetExceeded,
    SubsetColoring,
    fu_closure,
    max_parity_coloring,
    monochromatic_fu_search,
    random_coloring,
    size_parity_coloring,
)
from .multfunc import (
    FINITE_SUPPORT,
    SIEVE_BOUNDED,
    MultiplicativeFunction,
    class_table,
    find_runs,
    function_from_dict,
    function_to_dict,
    run_mask,
)
from .witness import (
    DIRECT_SEARCH,
    PROOF_PIPELINE,
    IPWitness,
    fs_closure,
    ip_witness_direct,
    ip_witness_from_proof,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "FactorizationSieve", "build_sieve", "is_prime", "prime_flags", "valuation",
    "BlockSequence", "DivisibilityReport", "estimated_digits",
    "generate_block_sequence", "normalize_index_set", "precedes", "subset_sum",
    "verify_block_divisibility",
    "FOUND", "SAT", "UNKNOWN", "UNSAT", "AvoidanceCertificate",
    "ConstantResult", "SearchOptions", "SearchOutcome", "SearchStats",
    "avoidance_search", "certificate_from_dict", "certificate_to_dict",
    "hildebrand_constant", "verify_certificate",
    "BlockFamily", "SearchBudgetExceeded", "SubsetColoring", "fu_closure",
    "max_parity_coloring", "monochromatic_fu_search", "random_coloring",
    "size_parity_coloring",
    "FINITE_SUPPORT", "SIEVE_BOUNDED", "MultiplicativeFunction", "class_table",
    "find_runs", "function_from_dict", "function_to_dict", "run_mask",
    "DIRECT_SEARCH", "PROOF_PIPELINE", "IPWitness", "fs_closure",
    "ip_witness_direct", "ip_witness_from_proof",
    "verify_witness", "witness_from_dict", "witness_to_dict",
    "__version__",
]
