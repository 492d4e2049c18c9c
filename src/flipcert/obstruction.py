"""Obstruction certificates: derivation, decoding, and the F-property harness.

A certificate is a design label plus a generator config.  The stand-in
generator commits to a random truth table T on r bits; seed bits occupy the
low positions of the universe and each design row reads off r of them, so
tape bit i is T evaluated on the seed restricted to row i.  Each distinct
tape drives one deterministic run of the symmetry-query generator; the
certificate's query list is the canonical union over the whole seed space
and its point set is the union of all query points.  Everything downstream
of (design, config) is recomputable, which is what makes staleness of a
serialized certificate detectable.

Points stay the flat row-major int tuples the generators draw, through the
file form and decoding; all of them have the target's shape.

This generator is explicitly a combinatorial stand-in: it reuses seed bits
through the design the way a hardness-based construction would, but the
table is random, not derived from a hard function.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import product
from typing import Callable, NamedTuple

from .circuits import (
    Circuit,
    check_eval_budget,
    evaluate,
    expand_to_polynomial,
    lower,
    poly_eval,
    poly_max_var_degree,
    poly_sub,
    run_many,
)
from .builders import efun_circuit, perm_circuit
from .config import (
    BOUND,
    REGIME,
    Option,
    config_hash,
    declare,
    format_config,
    parse_bool,
    parse_config,
)
from .designs import (
    Design,
    build_design_greedy,
    decode_design,
    encode_design,
    verify_design,
)
from .errors import (
    BudgetExceeded,
    InvalidDesign,
    MalformedEncoding,
    NoFailingQuery,
    StaleCertificate,
    TargetComputable,
    UsageError,
)
from .matrices import BLOCK, SQUARE
from .oracles import ORDER_CAP, permanent
from .symtests import (
    DET_MODE,
    MAX_NONZERO,
    MAX_ROUNDS,
    SAMPLE_WIDTH,
    Query,
    canonicalize_queries,
    gen_queries_efun,
    gen_queries_perm,
    query_verdict,
    require_row_law,
    serialize_point,
    serialize_query,
)
from .util import Stopwatch, any_digits, derive_seed, sample_box, seeded

F2_MIN_DISJOINT = 2  # mutually point-disjoint certificates F2 asks for
MAX_F2_SAMPLES = 1024  # F2's sampled certificates, each a full derivation
# the F gates' budgets reach at most a day, and a label of 2^32 bits
MAX_BUDGET_SECONDS = 86_400.0
MAX_BUDGET_BITS = 1 << 32
TARGET = Option("perm", "target", "--target", choices=("perm", "efun"))
# the most seed-row steps a derivation's tape scan takes, 2^(seed bits some
# row reads) seeds times the rows.  At the budget a 16-row design at 14 seed
# bits derives in 0.6 s at 40 MB peak RSS; a 20-row design at 20 bits,
# 2^20 x 20 steps, took 33 s and 1.1 GB with no budget.
# Tier-1, the README and the benchmark derive at 128 steps at most.
MAX_TAPE_STEPS = 1 << 18
# an efun target's largest m and k: a diagonal law's factor has width*m*k^m
# bits, and at width 1024 E(4,3) derived and serialized in 1.8 s, E(4,4) in 15 s
MAX_EFUN_M, MAX_EFUN_K = 4, 3


@dataclass(frozen=True)
@declare(target=TARGET)
class CertConfig:
    """Everything besides the design label that derivation depends on."""

    target: str
    # decode checks a perm target's points with the permanent oracle
    n: int = Option(0, "dimension n", "--n", lo=0, hi=ORDER_CAP)  # see cli._cert_values
    m: int = Option(0, "dimension m", "--m", lo=0, hi=MAX_EFUN_M)
    k: int = Option(0, "dimension k", "--k", lo=0, hi=MAX_EFUN_K)
    regime: str = REGIME
    bound: int = BOUND
    seed_bits: int = Option(4, "seed bits", "--seed-bits", lo=0, hi=20)
    rounds_per_tape: int = Option(1, "rounds per tape", lo=1, hi=MAX_ROUNDS)
    nonzero_count: int = Option(1, "nonzero count", lo=0, hi=MAX_NONZERO)
    sample_width: int = SAMPLE_WIDTH.replace(dest="sample_width")
    band: int = Option(0, "sample band", lo=0)
    normalize: bool = Option(True, "normalize")
    det_factor_mode: str = DET_MODE.replace(flag=None)
    truth_table: tuple[int, ...] = Option((), "truth table entry", choices=(0, 1))
    f0_budget_bits: int = Option(4096, "F0 budget bits", lo=0, hi=MAX_BUDGET_BITS)
    f1a_budget_seconds: float = Option(
        60.0, "F1a budget seconds", lo=0, hi=MAX_BUDGET_SECONDS)
    f3_budget_seconds: float = Option(10.0, "F3 budget seconds", lo=0, hi=MAX_BUDGET_SECONDS)
    f4_budget_seconds: float = Option(10.0, "F4 budget seconds", lo=0, hi=MAX_BUDGET_SECONDS)

    def __post_init__(self):
        self._check()
        if self.target == "perm":
            if self.n < 1 or self.m or self.k:
                raise UsageError("perm target needs n >= 1 and no (m, k)")
        else:
            if self.m < 1 or self.k < 2 or self.n:
                raise UsageError("efun target needs m >= 1, k >= 2 and no n")
            require_row_law(self.m, self.det_factor_mode)

    def target_label(self) -> str:
        if self.target == "perm":
            return f"perm({self.n})"
        return f"efun({self.m},{self.k})"

    def num_vars(self) -> int:
        return self.n * self.n if self.target == "perm" else self.m * self.m * self.k

    def box(self) -> tuple[int, int]:
        return sample_box(self.sample_width, self.band)

    def pairs(self) -> dict[str, object]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["truth_table"] = "".join(str(b) for b in self.truth_table)
        return out

    @staticmethod
    def from_pairs(pairs: dict[str, str]) -> "CertConfig":
        """Strict inverse of pairs() on text values: every field, nothing else,

        each decoded by the type of its declared default."""
        want = {name: _DECODERS.get(type(opt.default), type(opt.default))
                for name, opt in CertConfig.declared.items()}
        missing, extra = want.keys() - pairs.keys(), pairs.keys() - want.keys()
        if missing or extra:
            raise MalformedEncoding(
                f"config keys off: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        try:
            return CertConfig(**{k: decode(pairs[k]) for k, decode in want.items()})
        except (ValueError, UsageError) as e:
            raise MalformedEncoding(f"bad config value: {e}") from None


_DECODERS = {bool: parse_bool, tuple: lambda text: tuple(int(ch) for ch in text)}


def random_truth_table(r: int, seed: int = 0) -> tuple[int, ...]:
    if not 0 <= r <= 20:
        raise UsageError("table arity outside [0, 20]")
    rng = seeded("truth-table", r, seed)
    return tuple(rng.getrandbits(1) for _ in range(1 << r))


class ObstructionCertificate(NamedTuple):
    design: Design
    config: CertConfig
    queries: tuple[Query, ...]
    points: tuple[tuple[int, ...], ...]  # flat row-major, in the target's shape

    def label(self) -> bytes:
        return encode_design(self.design)

    def label_bits(self) -> int:
        return 8 * len(self.label())


def _tapes(design: Design, table: tuple[int, ...], seed_bits: int) -> set[int]:
    """Every seed value's tape, as the integer whose bit i is tape bit i.

    The seed occupies universe positions 0..seed_bits-1, the rest read 0,
    and tape bit i indexes the table by the seed restricted to row i.  Only
    the seed positions some row reads move a tape, so the seeds run over
    those alone.  Past MAX_TAPE_STEPS seed-row steps it raises
    BudgetExceeded before the scan."""
    rows = [[pos for pos in range(design.params.l) if row >> pos & 1] for row in design.rows]
    used = sorted({pos for row in rows for pos in row if pos < seed_bits})
    steps = (1 << len(used)) * len(rows)
    if steps > MAX_TAPE_STEPS:
        raise BudgetExceeded(
            f"deriving scans 2^{len(used)} seeds x {len(rows)} rows = {steps} steps,"
            f" past the budget of {MAX_TAPE_STEPS}")
    tapes = set()
    for bits in range(1 << len(used)):
        seed = sum((bits >> t & 1) << pos for t, pos in enumerate(used))
        tapes.add(sum(table[sum((seed >> pos & 1) << j for j, pos in enumerate(row))] << i
                      for i, row in enumerate(rows)))
    return tapes


def derive_certificate(design: Design, config: CertConfig) -> ObstructionCertificate:
    """Expand the whole seed space through the design and take the canonical

    union of the per-tape query suites.  Deterministic in (design, config)."""
    violation = verify_design(design)
    if violation is not None:
        raise InvalidDesign(str(violation))
    p = design.params
    if config.seed_bits > p.l:
        raise UsageError(f"seed_bits {config.seed_bits} exceeds universe size {p.l}")
    if len(config.truth_table) != 1 << p.r:
        raise UsageError(
            f"truth table has {len(config.truth_table)} entries, needs {1 << p.r}"
        )
    if config.target == "perm":
        gen = partial(gen_queries_perm, config.n)
    else:
        gen = partial(gen_queries_efun, config.m, config.k,
                      det_factor_mode=config.det_factor_mode)
    gen = partial(gen, rounds=config.rounds_per_tape, box=config.box(),
                  nonzero_count=config.nonzero_count, normalize=config.normalize)
    tapes = sorted(_tapes(design, config.truth_table, config.seed_bits))
    suites = [gen(seed=derive_seed("tape", tape)) for tape in tapes]
    queries = canonicalize_queries([q for qs in suites for q in qs])
    points = tuple(sorted({P for q in queries for P in q.points}))
    per_tape_max = max(map(len, suites))
    assert len(queries) <= len(tapes) * per_tape_max
    assert len(points) <= len(tapes) * per_tape_max * 2
    return ObstructionCertificate(design, config, queries, points)


# ---------------------------------------------------------------------------
# certificate files

_CERT_HEADER = "flipcert-obstruction v1"


def serialize_certificate(cert: ObstructionCertificate) -> str:
    """Versioned text form.  The query and point sections are materialized

    copies of what (design, config) derives; readers recompute and compare.
    Wall-clock fields are deliberately absent."""
    pairs = cert.config.pairs()
    out = [
        _CERT_HEADER,
        f"config-hash {config_hash(pairs)}",
        f"design {encode_design(cert.design).hex()}",
        "config {",
        format_config(pairs).rstrip("\n"),
        "}",
        f"queries {len(cert.queries)}",
    ]
    cfg = cert.config
    shape = (SQUARE, cfg.n) if cfg.target == "perm" else (BLOCK, cfg.m, cfg.k)
    with any_digits():  # the dimension caps bound a factor's digits
        out.extend(serialize_query(q, shape) for q in cert.queries)
    out.append(f"points {len(cert.points)}")
    out.extend(serialize_point(shape, P) for P in cert.points)
    out.append("end")
    return "".join(line + "\n" for line in out)


def parse_certificate(text: str) -> ObstructionCertificate:
    """Rebuild a certificate from its file form.

    The derived sections are never trusted: the certificate is re-derived
    from (design, config) and any materialized section that disagrees raises
    StaleCertificate.  Structural problems raise MalformedEncoding.
    """
    lines = text.splitlines()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise MalformedEncoding("truncated certificate")
        line = lines[pos]
        pos += 1
        return line

    if take() != _CERT_HEADER:
        raise MalformedEncoding("bad header or unsupported version")
    hash_line = take()
    if not hash_line.startswith("config-hash "):
        raise MalformedEncoding("missing config-hash")
    stated_hash = hash_line.split(" ", 1)[1]
    design_line = take()
    if not design_line.startswith("design "):
        raise MalformedEncoding("missing design block")
    try:
        design = decode_design(bytes.fromhex(design_line.split(" ", 1)[1]))
    except ValueError:
        raise MalformedEncoding("design block is not hex") from None
    if take() != "config {":
        raise MalformedEncoding("missing config block")
    cfg_lines = []
    while True:
        line = take()
        if line == "}":
            break
        cfg_lines.append(line)
    config = CertConfig.from_pairs(parse_config("\n".join(cfg_lines)))
    if config_hash(config.pairs()) != stated_hash:
        raise MalformedEncoding("config hash mismatch")

    cert = derive_certificate(design, config)

    # Optional materialized sections: recompute-and-compare, never parse-and-trust.
    if pos < len(lines) and lines[pos].startswith("queries "):
        fresh = serialize_certificate(cert).splitlines()
        # config lines always contain '=', so the bare "}" is the block closer
        if lines[pos:] != fresh[fresh.index("}") + 1 :]:
            raise StaleCertificate(
                "materialized sections disagree with fresh derivation"
            )
    return cert


# ---------------------------------------------------------------------------
# decoding

class DecodeResult(NamedTuple):
    query_index: int
    query: Query
    # perm targets only: per-point exact check c(X) != perm(X)
    direct_disagreement: tuple[bool, ...] | None


def _class_membership(config: CertConfig, c: Circuit) -> None:
    measure = c.size if config.regime == "size" else c.bitsize
    if measure > config.bound:
        raise UsageError(
            f"circuit {config.regime} {measure} exceeds class bound {config.bound}"
        )
    if c.num_inputs != config.num_vars():
        raise UsageError(
            f"circuit reads {c.num_inputs} inputs, target has {config.num_vars()}"
        )


def decode_counterexample(cert: ObstructionCertificate, c: Circuit) -> DecodeResult:
    """First failing query in canonical order; its point set has size <= 2.

    Raises NoFailingQuery when every query passes, which at desk scale means
    the certificate does not obstruct this circuit.
    """
    # membership pins c's arity to the target's, which every query point has
    _class_membership(cert.config, c)
    prog = lower(c)
    check_eval_budget(prog, 2 * cert.config.box()[1].bit_length())  # as a sampled suite's
    for idx, q in enumerate(cert.queries):
        passed, vals = query_verdict(q.relation, q.coeffs, run_many(prog, q.points))
        if passed:
            continue
        direct = None
        if cert.config.target == "perm":
            direct = tuple(
                v != permanent(zip(*[iter(P)] * cert.config.n))  # the rows of P
                for v, P in zip(vals, q.points)
            )
        return DecodeResult(idx, q, direct)
    raise NoFailingQuery(f"certificate does not obstruct this circuit ({c.size} nodes)")


# ---------------------------------------------------------------------------
# the F harness

class PropertyReport(NamedTuple):
    name: str
    passed: bool
    seconds: float
    detail: str


class FReport(NamedTuple):
    properties: tuple[PropertyReport, ...]
    all_pass: bool  # F0, F1a, F1b, F3, F4 (F2 is an empirical count, not a gate)
    class_label: str
    class_size: int
    point_count: int
    trivial_rows: int
    label_bits: int
    aborted: bool = False

    def text(self) -> str:
        lines = [
            f"target class: {self.class_label}",
        ]
        for p in self.properties:
            state = "pass" if p.passed else "FAIL"
            lines.append(f"{p.name:4s} {state}  {p.seconds:8.3f}s  {p.detail}")
        if self.aborted:
            lines.append("aborted: downstream properties not evaluated")
        lines.append(
            f"compression contrast: |S| = {self.point_count} points vs "
            f"{self.trivial_rows} trivial table rows "
            f"(label {self.label_bits} bits, class size {self.class_size})"
        )
        lines.append("overall: " + ("pass" if self.all_pass else "FAIL"))
        return "\n".join(lines)


def _target_polynomial(config: CertConfig) -> dict:
    if config.target == "perm":
        return expand_to_polynomial(perm_circuit(config.n))
    return expand_to_polynomial(efun_circuit(config.m, config.k))


def harness_F(
    cert: ObstructionCertificate,
    cls,
    f2_samples: int = 32,
    seed: int = 0,
) -> FReport:
    """Check F0 through F4 against an enumerable circuit class.

    F3 runs first: a label that is not a valid design aborts the rest.  The
    hardness premise behind F1(b) is discharged by enumeration: a class
    member whose expansion equals the target raises TargetComputable.  F2 is
    reported as an empirical disjointness count, never an asymptotic claim.

    F1(b) is one pass over cls.members(): each member is expanded once,
    checked for membership and counted, but decoded only if it is the first
    member with its exact expansion, since the first failing query depends
    on nothing else.  No member is kept, so peak memory grows with the
    number of distinct polynomials, not with the class size.
    """
    if not 0 <= f2_samples <= MAX_F2_SAMPLES:
        raise UsageError(f"F2 sample count must be 0..{MAX_F2_SAMPLES}, got {f2_samples}")
    cfg = cert.config

    with Stopwatch() as sw:
        violation = verify_design(cert.design)
    f3 = PropertyReport(
        "F3",
        violation is None and sw.seconds <= cfg.f3_budget_seconds,
        sw.seconds,
        "design valid" if violation is None else f"invalid design: {violation}",
    )
    if violation is not None:
        return FReport(
            properties=(f3,),
            all_pass=False,
            class_label=cls.label(),
            class_size=0,
            point_count=len(cert.points),
            trivial_rows=0,
            label_bits=cert.label_bits(),
            aborted=True,
        )

    bits = cert.label_bits()
    f0 = PropertyReport(
        "F0",
        bits <= cfg.f0_budget_bits,
        0.0,
        f"label {bits} bits vs budget {cfg.f0_budget_bits}",
    )

    with Stopwatch() as sw:
        again = derive_certificate(cert.design, cfg)
        identical = serialize_certificate(again) == serialize_certificate(cert)
    f1a = PropertyReport(
        "F1a",
        identical and sw.seconds <= cfg.f1a_budget_seconds,
        sw.seconds,
        f"re-derivation {'byte-identical' if identical else 'DIVERGED'}, "
        f"{len(cert.queries)} queries, {len(cert.points)} points",
    )

    with Stopwatch() as sw:
        target_poly = _target_polynomial(cfg)
        # counterexample set size of each distinct expansion's first decode,
        # None when every query passes
        set_size: dict[tuple, int | None] = {}
        membership_error: UsageError | None = None
        members = failures = max_set = 0
        for c in cls.members():
            members += 1
            poly = expand_to_polynomial(c)
            if poly == target_poly:
                raise TargetComputable(
                    "a class member computes the target exactly", circuit=c
                )
            # a membership error waits for the pass to end, so a later
            # member's TargetComputable or TermBudgetExceeded still wins
            if membership_error is not None:
                continue
            try:
                _class_membership(cfg, c)
            except UsageError as e:
                membership_error = e
                continue
            key = tuple(sorted(poly.items()))
            if key not in set_size:
                try:
                    set_size[key] = len(decode_counterexample(cert, c).query.points)
                except NoFailingQuery:
                    set_size[key] = None
            size = set_size[key]
            if size is None:
                failures += 1
            else:
                max_set = max(max_set, size)
        if membership_error is not None:
            raise membership_error
    f1b = PropertyReport(
        "F1b",
        failures == 0 and max_set <= 2,
        sw.seconds,
        f"decoded {members - failures}/{members} members, "
        f"max counterexample set {max_set}",
    )

    with Stopwatch() as sw:
        point_sets = []
        for f in range(f2_samples):
            d_f = build_design_greedy(
                cert.design.params, seed=derive_seed("f2-design", seed, f)
            )
            cfg_f = replace(
                cfg,
                band=f,
                normalize=False,
                truth_table=random_truth_table(
                    cert.design.params.r, derive_seed("f2-table", seed, f)
                ),
            )
            point_sets.append(frozenset(derive_certificate(d_f, cfg_f).points))
        disjoint_pairs = sum(
            1
            for i in range(len(point_sets))
            for j in range(i + 1, len(point_sets))
            if not point_sets[i] & point_sets[j]
        )
        family: list[frozenset] = []
        for s in point_sets:
            if all(not (s & t) for t in family):
                family.append(s)
    f2 = PropertyReport(
        "F2",
        len(family) >= F2_MIN_DISJOINT,
        sw.seconds,
        f"{len(family)} mutually point-disjoint certificates among "
        f"{f2_samples} sampled labels ({disjoint_pairs} disjoint pairs); "
        "empirical count only",
    )

    with Stopwatch() as sw:
        built = build_design_greedy(cert.design.params, seed=derive_seed("f4", seed))
        ok4 = verify_design(built) is None
    f4 = PropertyReport(
        "F4",
        ok4 and sw.seconds <= cfg.f4_budget_seconds,
        sw.seconds,
        f"greedy rebuild {'valid' if ok4 else 'INVALID'}",
    )

    gates = (f0, f1a, f1b, f3, f4)
    return FReport(
        properties=(f0, f1a, f1b, f2, f3, f4),
        all_pass=all(p.passed for p in gates),
        class_label=cls.label(),
        class_size=members,
        point_count=len(cert.points),
        trivial_rows=members,
        label_bits=bits,
        aborted=False,
    )


# ---------------------------------------------------------------------------
# the trivial obstruction table

class TableRow(NamedTuple):
    """Class member `index` disagrees with the target at `point`."""

    index: int
    point: tuple[int, ...]
    circuit_value: int
    target_value: int


def trivial_obstruction_table(
    cls, config: CertConfig, sink: Callable[[TableRow], object]
) -> int:
    """One counterexample row per class circuit, found by grid scan, each
    passed to `sink` in member order; returns the row count.

    The difference polynomial has some per-variable degree d, so the grid
    {0..d}^vars must contain a nonzero point of it; the first one in lex
    order becomes the row.  A member with zero difference means the class
    computes the target: TargetComputable, no table exists.  A row's point
    and values depend only on the member's expansion, so they are found
    once per distinct expansion and shared by the members that compute it.
    """
    target_poly = _target_polynomial(config)
    nvars = config.num_vars()
    # (point, circuit value, target value) of each distinct expansion
    row_of: dict[tuple, tuple[tuple[int, ...], int, int]] = {}
    idx = -1
    for idx, c in enumerate(cls.members()):
        if c.num_inputs != nvars:
            raise UsageError(
                f"class member reads {c.num_inputs} inputs, target has {nvars}"
            )
        poly = expand_to_polynomial(c)
        key = tuple(sorted(poly.items()))
        if key not in row_of:
            diff = poly_sub(poly, target_poly)
            if not diff:
                raise TargetComputable(
                    "a class member computes the target exactly", circuit=c
                )
            d = poly_max_var_degree(diff)
            found = None
            for pt in product(range(d + 1), repeat=nvars):
                if poly_eval(diff, pt) != 0:
                    found = pt
                    break
            assert found is not None  # nonzero poly with per-var degree <= d
            row_of[key] = (found, evaluate(c, found), poly_eval(target_poly, found))
        point, circuit_value, target_value = row_of[key]
        sink(TableRow(idx, point, circuit_value, target_value))
    return idx + 1
