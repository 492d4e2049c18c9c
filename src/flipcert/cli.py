"""Command-line front end.

Exit codes: 0 accept/valid, 1 reject/invalid (witness on stdout),
2 usage or malformed input, 3 budget or infeasibility.  Reports go to
stdout; machine-readable artifacts are written only via --out paths.
All randomness is seeded, so identical argv yields identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import replace

from .circuits import bound_fits, check_arity, evaluate, lower, parse_circuit, serialize_circuit
from .config import (
    BOUND,
    REGIME,
    add_flag,
    add_flags,
    format_config,
    from_args,
    given,
    parse_config,
)
from .designs import (
    DesignParams,
    build_design_greedy,
    count_designs_exhaustive,
    decode_design,
    encode_design,
    verify_design,
)
from .errors import (
    BudgetError,
    BudgetExceeded,
    ConstructionFailed,
    FlipcertError,
    NoFailingQuery,
    PoolExhausted,
    TargetComputable,
    UsageError,
)
from .fields import (
    ExtField,
    dual_basis,
    extract_coeffs,
    find_irreducible,
    format_field_spec,
    frobenius_trace,
    trace_form_gram,
)
from .matrices import SQUARE, matrix_from_text
from .obstruction import (
    CertConfig,
    decode_counterexample,
    derive_certificate,
    harness_F,
    parse_certificate,
    random_truth_table,
    serialize_certificate,
    trivial_obstruction_table,
)
from .oracles import efun, permanent
from .pit import (
    EnumeratedClass,
    build_hitting_set_greedy,
    hitting_set_axioms_report,
    parse_hitting_set,
    pit_random,
    serialize_hitting_set,
    verify_hitting_set,
)
from .symtests import SAMPLE_WIDTH, VerifyConfig, verify_claims_efun, verify_claims_perm
from .util import any_digits, quoted, sample_box


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from None


@contextmanager
def _replacing(path: str):
    """A text file that becomes `path` only when the block completes: the
    block writes a sibling file, which os.replace moves onto `path` (onto
    the file a symlink names).  On any error the sibling is removed and
    `path` is left as it was."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise UsageError(f"cannot write {path}: not a regular file")
    dest = os.path.realpath(path)
    tmp = f"{dest}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x")
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, dest)
    except BaseException as e:
        with suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise UsageError(f"cannot write {path}: {e}") from None
        raise


def _out_file(path: str | None):
    """_replacing(path) for an --out path, else a block with no file (None).

    A command enters it before its work, so an unwritable --out is refused
    first, and prints its report after it, so a failed write prints none."""
    return _replacing(path) if path else nullcontext()


# the widest value a report prints, about 158,000 digits: int-to-decimal
# takes quadratic time, 27.5 s for 1.2 million digits (CPython 3.11)
MAX_PRINT_BITS = 1 << 19
# the widest step eval and pit compute: squaring a 2^21-bit value took
# 0.27 s, and each further doubling of the width about 3 times as long
MAX_EVAL_BITS = 1 << 22


def _decimal(value: int) -> str:
    """An exact value in decimal, past Python's int-to-str digit limit but
    within MAX_PRINT_BITS.  Parsing keeps the limit: a number in an input
    file or flag is text to convert, and the limit caps that cost."""
    if value.bit_length() > MAX_PRINT_BITS:
        raise BudgetExceeded(f"value of {value.bit_length()} bits is past the "
                             f"{MAX_PRINT_BITS}-bit print budget")
    with any_digits():
        return str(value)


def _check_eval_budget(c, width: int) -> None:
    """Refuses c unrun if a step's static bit bound at `width`-bit inputs passes MAX_EVAL_BITS."""
    if not bound_fits(lower(c), width, MAX_EVAL_BITS):
        raise BudgetExceeded(f"a step may pass the {MAX_EVAL_BITS}-bit evaluation "
                             f"budget at {width}-bit inputs")


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {quoted(text)}") from None


def _load_circuit(path: str):
    return parse_circuit(_read(path))


def _read_label(path: str) -> bytes:
    try:
        return bytes.fromhex(_read(path).strip())
    except ValueError:
        raise UsageError(f"{path} is not a hex design label") from None


def _print_verify(res) -> int:
    print(res.transcript())
    if res.mode == "sampled":
        print(f"false-accept bound {res.error_bound:.3g}")
    for note in res.notes:
        print(f"note: {note}")
    return 0 if res.accept else 1


def _enumerated_class(args) -> EnumeratedClass:
    return from_args(EnumeratedClass, args, num_inputs=args.ninputs,
                     alphabet=_ints(args.alphabet))


def _design_params(args) -> DesignParams:
    return DesignParams(m_prime=args.rows, l=args.l, r=args.r, k_cap=args.kcap)


def _cert_values(args, file_pairs=()) -> dict:
    """CLI-side config assembly: the declared defaults, overridden by the
    flags the argv set, overridden in turn by a config file's pairs.  An n
    set by none of them follows the merged target: a perm target is 2 x 2,
    an efun target has none.  The truth table is left to the caller."""
    values = {name: opt.default for name, opt in CertConfig.declared.items()
              if name not in ("n", "truth_table")}
    values.update(given(CertConfig, args))
    values.update(file_pairs)
    values.setdefault("n", 2 if values["target"] == "perm" else 0)
    return values


def _cert_config_from_file(path: str | None, args, design_r: int) -> CertConfig:
    """The merged pairs are decoded as strictly as a certificate's own
    config block; an empty truth table is then committed from --table-seed."""
    pairs = _cert_values(args, parse_config(_read(path)) if path else ())
    pairs.setdefault("truth_table", "")
    config = CertConfig.from_pairs(parse_config(format_config(pairs)))
    if config.truth_table:
        return config
    return replace(config, truth_table=random_truth_table(design_r, args.table_seed))


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    c = _load_circuit(args.circuit)
    point = _ints(args.point)
    check_arity(c, point)
    _check_eval_budget(c, max(map(int.bit_length, point), default=0))
    print(_decimal(evaluate(c, point)))
    return 0


def cmd_pit(args) -> int:
    c = _load_circuit(args.circuit)
    box = sample_box(args.width)
    _check_eval_budget(c, box[1].bit_length())
    res = pit_random(c, trials=args.trials, seed=args.seed, box=box,
                     degree_hint=args.degree_hint)
    if res.verdict == "nonzero":
        print(f"nonzero at {res.witness_point} (value {_decimal(res.witness_value)})")
        return 1
    print(f"zero (false-zero bound {res.error_bound:.3g}, {res.trials_run} trials)")
    return 0


def cmd_verify_perm(args) -> int:
    c = _load_circuit(args.circuit)
    return _print_verify(verify_claims_perm(c, args.n, from_args(VerifyConfig, args)))


def cmd_verify_efun(args) -> int:
    c = _load_circuit(args.circuit)
    cfg = from_args(VerifyConfig, args)
    return _print_verify(verify_claims_efun(c, args.m, args.k, cfg))


def cmd_efun_oracle(args) -> int:
    print(efun(*matrix_from_text(_read(args.matrix)), budget=args.budget))
    return 0


def cmd_gen_design(args) -> int:
    params = _design_params(args)
    with _out_file(args.out) as fh:
        d = build_design_greedy(params, seed=args.seed)
        label = encode_design(d)
        if fh:
            fh.write(label.hex() + "\n")
    print(f"design m'={args.rows} l={args.l} r={args.r} k_cap={args.kcap}")
    print(f"label {label.hex()}")
    for i, row in enumerate(d.row_sets()):
        print(f"T_{i + 1} = {{{','.join(str(e) for e in sorted(row))}}}")
    return 0


def cmd_verify_design(args) -> int:
    d = decode_design(_read_label(args.label))
    violation = verify_design(d)
    if violation is None:
        print("valid")
        return 0
    print(f"invalid: {violation.kind} {violation.detail}")
    return 1


def cmd_count_designs(args) -> int:
    print(count_designs_exhaustive(_design_params(args), budget=args.budget))
    return 0


def cmd_build_hitting_set(args) -> int:
    cls = _enumerated_class(args)
    box = sample_box(args.width)
    with _out_file(args.out) as fh:
        hs = build_hitting_set_greedy(cls, seed=args.seed, pool_size=args.pool, box=box)
        report = hitting_set_axioms_report(hs)
        if fh:
            fh.write(serialize_hitting_set(hs))
    # wall-clock lines go to stderr so stdout stays byte-stable per argv
    for key in sorted(report):
        if key == "verify_seconds":
            print(f"{key}={report[key]}", file=sys.stderr)
        else:
            print(f"{key}={report[key]}")
    return 0


def cmd_verify_hitting_set(args) -> int:
    hs = parse_hitting_set(_read(args.file))
    rep = verify_hitting_set(hs)
    if rep.valid:
        print(f"valid ({rep.members_checked} members, {rep.evaluations} evaluations)")
        return 0
    print(f"invalid: unhit nonzero member\n{serialize_circuit(rep.violator)}", end="")
    return 1


def cmd_derive_cert(args) -> int:
    d = decode_design(_read_label(args.design))
    config = _cert_config_from_file(args.config, args, d.params.r)
    with _out_file(args.out) as fh:
        cert = derive_certificate(d, config)
        if fh:
            fh.write(serialize_certificate(cert))
    print(f"target {config.target_label()}")
    print(f"label bits {cert.label_bits()}")
    print(f"queries {len(cert.queries)}")
    print(f"points {len(cert.points)}")
    print(f"derive seconds {cert.derive_seconds:.3f}", file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    cert = parse_certificate(_read(args.cert))
    c = _load_circuit(args.circuit)
    res = decode_counterexample(cert, c)
    print(f"failing query {res.query_index}: kind={res.query.kind}")
    for i, P in enumerate(res.query.points):
        direct = ""
        if res.direct_disagreement is not None:
            direct = f"  direct-disagreement={res.direct_disagreement[i]}"
        print(f"point {i}: {','.join(str(v) for v in P)}{direct}")
    return 0


def cmd_harness_f(args) -> int:
    cert = parse_certificate(_read(args.cert))
    cls = _enumerated_class(args)
    rep = harness_F(cert, cls, f2_samples=args.f2_samples, seed=args.seed)
    print(rep.text())
    return 0 if rep.all_pass else 1


def cmd_trivial_table(args) -> int:
    if args.head < 0:
        raise UsageError(f"--head must be >= 0, got {args.head}")
    cls = _enumerated_class(args)
    config = CertConfig(**{**_cert_values(args), "truth_table": (0, 0), "seed_bits": 1})
    head = []  # the first --head rows, printed when there is no --out

    def keep(row) -> None:
        if row.index < args.head:
            head.append(_table_line(row))

    with _out_file(args.out) as fh:  # with --out, every row, written as it comes
        count = trivial_obstruction_table(
            cls, config, (lambda row: fh.write(_table_line(row) + "\n")) if fh else keep
        )
    print(f"target {config.target_label()}")
    print(f"rows {count}")
    for line in head:
        print(line)
    return 0


def _table_line(row) -> str:
    return (
        f"row {row.index} point {','.join(str(v) for v in row.point)} "
        f"circuit {row.circuit_value} target {row.target_value}"
    )


def cmd_trace_tools(args) -> int:
    modulus = _ints(args.modulus) if args.modulus else find_irreducible(args.q, args.l)
    F = ExtField(args.q, args.l, modulus)
    print(f"field {format_field_spec(F)}")
    gram = trace_form_gram(F)
    print("gram " + "; ".join(",".join(str(v) for v in row) for row in gram))
    dual = dual_basis(F, gram)
    print("dual " + "; ".join(",".join(str(c) for c in b) for b in dual))
    x = F.gen()
    print(f"trace(gen) {frobenius_trace(F, x)}")
    print(f"coeffs(gen) {','.join(str(c) for c in extract_coeffs(F, x, dual))}")
    return 0


def cmd_perm_oracle(args) -> int:
    shape, flat = matrix_from_text(_read(args.matrix))
    if shape[0] != SQUARE:
        raise UsageError("permanent needs a square matrix")
    print(permanent(zip(*[iter(flat)] * shape[1])))  # the rows of flat
    return 0


# ---------------------------------------------------------------------------
# parser plumbing

def _add_class_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ninputs", type=int, required=True)
    add_flag(p, BOUND, required=True)
    p.add_argument("--alphabet", required=True)
    add_flag(p, REGIME)


def _add_design_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kcap", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipcert",
        description="symmetry tests, identity testing, designs, and "
        "obstruction certificates for arithmetic circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a circuit at an integer point")
    p.add_argument("--circuit", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pit", help="randomized identity test (exit 1 = nonzero)")
    p.add_argument("--circuit", required=True)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=62, help=SAMPLE_WIDTH.span())
    p.add_argument("--degree-hint", type=int, default=None)
    p.set_defaults(func=cmd_pit)

    p = sub.add_parser("verify-perm", help="permanent symmetry suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--circuit", required=True)
    add_flags(p, VerifyConfig, skip=("det_factor_mode",))
    p.set_defaults(func=cmd_verify_perm)

    p = sub.add_parser("verify-efun", help="product-of-determinants symmetry suite")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--circuit", required=True)
    add_flags(p, VerifyConfig)
    p.set_defaults(func=cmd_verify_efun)

    p = sub.add_parser("efun-oracle", help="evaluate E(X) on a block matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--budget", type=int, default=4096)
    p.set_defaults(func=cmd_efun_oracle)

    p = sub.add_parser("perm-oracle", help="evaluate the permanent on a square matrix file")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_perm_oracle)

    p = sub.add_parser("gen-design", help="greedy design construction (exit 3 = infeasible)")
    _add_design_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_design)

    p = sub.add_parser("verify-design", help="check a hex design label file")
    p.add_argument("--label", required=True)
    p.set_defaults(func=cmd_verify_design)

    p = sub.add_parser("count-designs", help="exact backtracking count")
    _add_design_flags(p)
    p.add_argument("--budget", type=int, default=5_000_000)
    p.set_defaults(func=cmd_count_designs)

    p = sub.add_parser("build-hitting-set", help="greedy hitting set for a circuit class")
    _add_class_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool", type=int, default=64)
    p.add_argument("--width", type=int, default=16, help=SAMPLE_WIDTH.span())
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_hitting_set)

    p = sub.add_parser("verify-hitting-set", help="exhaustive hitting-set check")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_verify_hitting_set)

    p = sub.add_parser("derive-cert", help="derive an obstruction certificate")
    p.add_argument("--design", required=True, help="hex design label file")
    p.add_argument("--config", default=None, help="key=value config file")
    add_flags(p, CertConfig)
    p.add_argument("--table-seed", type=int, default=0, dest="table_seed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_derive_cert)

    p = sub.add_parser("decode", help="first failing query for a class circuit")
    p.add_argument("--cert", required=True)
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("harness-f", help="run the F0-F4 property harness")
    p.add_argument("--cert", required=True)
    _add_class_flags(p)
    p.add_argument("--f2-samples", type=int, default=32, dest="f2_samples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_harness_f)

    p = sub.add_parser("trivial-table", help="one counterexample row per class circuit")
    _add_class_flags(p)
    add_flags(p, CertConfig, skip=("regime", "bound", "seed_bits", "sample_width"))
    p.add_argument("--head", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_trivial_table)

    p = sub.add_parser("trace-tools", help="extension field trace and dual basis demo")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--modulus", default=None, help="little-endian coefficients c0,c1,...")
    p.set_defaults(func=cmd_trace_tools)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NoFailingQuery, TargetComputable) as e:
        print(f"negative: {e}")
        return 1
    except (BudgetError, ConstructionFailed, PoolExhausted) as e:
        print(f"budget: {e}", file=sys.stderr)
        return 3
    except FlipcertError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())  # unreachable: in subprocess tests only
