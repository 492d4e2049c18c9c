"""Symmetry-characterization test suites for the permanent and the

E-function, plus the exact coefficient-space uniqueness computation.

A candidate circuit is interrogated with randomized identity queries built
from the characterizing symmetries:

  permanent suite   nonzero at a random point; invariance under adjacent
                    row/column transpositions; diagonal scaling law
                    C(mu X) = (prod mu) C(X) on both sides; optional
                    normalization C(I) = 1.
  self-reduction    first-row expansion C_i(Y) = sum_j y_1j C_{i-1}(Y_j),
                    kept as a reporting/contrast suite (its queries touch
                    i+1 points; the symmetry queries touch at most 2).
  E-function suite  nonzero; left action by m x m elementaries with the
                    det(A)^(k^m) factor (or det-1 elements only, in literal
                    mode); invariance under the column wreath generators;
                    vanishing on a singular primary submatrix; optional
                    normalization E(X0) = 1 at the all-unit-columns point.

A query point is a flat row-major tuple of ints, from generation through
`run_queries` to the certificate text; its shape, (SQUARE, n) or
(BLOCK, m, k), belongs to the suite and comes from the target dimensions,
so a `Query` does not carry it.  Every drawn entry, of a point or of a
group element, comes from `util.rand_point`: CPython's randrange rule
inlined, so the draws, and with them the query text and certificate bytes,
are those `rng.randrange(lo, hi + 1)` gives.  The permutations' variable
maps are the same in every round, so a suite asks for them once.

Queries evaluate either over exact integers or modulo a few fresh random
primes.  Exhaustive mode replaces sampling with exact identity checks on
the circuit's sparse expansion, with diagonal test vectors anchored at
distinct primes; for this class of identities that makes the check sound,
not just probabilistic (multiplicative independence forces the degree
vectors exactly).  Both modes, and the nullspace, move variables by the
one map `oracles.var_map` gives each group element; `oracles.act` applies
it to a point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import prod
from typing import NamedTuple, Sequence

from .circuits import (
    Circuit,
    evaluate,  # noqa: F401  (perfbench's tracer test expects it bound here)
    expand_to_polynomial,
    lower,
    poly_eval,
    poly_remap_vars,
    poly_row_add_subst,
    poly_scale_vars,
    poly_scaled,
    poly_subst_consts,
    run_many,
)
from .errors import ArityMismatch, UsageError
from .fields import random_prime
from .matrices import BLOCK, SQUARE
from .oracles import (
    Diagonal,
    ElementaryAdd,
    PermSwap,
    RowCycle,
    act,
    k_generators,
    var_map,
)
from .pit import pit_error_bound as sampled_error_bound
from .util import Stopwatch, derive_seed, rand_point

# query kinds
P_NONZERO = "PNonZero"
P_PERM_LEFT = "PPermLeft"
P_PERM_RIGHT = "PPermRight"
P_DIAG_LEFT = "PDiagLeft"
P_DIAG_RIGHT = "PDiagRight"
SELF_REDUCE = "SelfReduce"
SELF_REDUCE_BASE = "SelfReduceBase"
E_NONZERO = "ENonZero"
E_ELEM = "EElem"
E_KGEN = "EKGen"
E_PRIMARY_VANISH = "EPrimaryVanish"
NORMALIZE = "Normalize"

MAX_TERMS = 200_000  # expansion budget of the exhaustive checks
EXTRA_DIAGONALS = 2  # sampled diagonals beyond the prime one, per check set

# relations between the evaluations v_0, v_1, ... of a query's points
REL_NONZERO = "nonzero"  # v0 != 0
REL_EQUAL = "equal"  # v1 == v0
REL_SCALED = "scaled"  # v1 == coeffs[0] * v0
REL_LINEAR = "linear"  # v0 == sum_i coeffs[i] * v_{i+1}
REL_CONST = "const"  # v0 == coeffs[0]


# Query and Verdict are named tuples: a suite makes one of each per query,
# and a tuple is built in C, several times faster than a frozen dataclass.
class Query(NamedTuple):
    kind: str
    params: tuple
    relation: str
    coeffs: tuple
    points: tuple[tuple[int, ...], ...]  # flat row-major, in the suite's shape


class Verdict(NamedTuple):
    index: int
    kind: str
    passed: bool
    witness: tuple = ()


@dataclass(frozen=True)
class RunReport:
    accept: bool
    verdicts: tuple[Verdict, ...]
    mode: str
    primes: tuple[int, ...] = ()


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0
    rounds: int = 2
    nonzero_count: int = 3
    sample_width: int = 62
    normalize: bool = True
    mode: str = "sampled"  # "sampled" | "exhaustive"
    ring: str = "exact"  # "exact" | "modular"
    prime_bits: int = 31
    prime_count: int = 3
    det_factor_mode: str = "det-corrected"  # "det-corrected" | "literal"

    def __post_init__(self):
        if self.sample_width < 1:
            raise UsageError("sample width must be >= 1")
        if min(self.rounds, self.nonzero_count, self.prime_count) < 0:
            raise UsageError("rounds, nonzero and prime counts must be >= 0")
        if self.mode == "sampled" and self.rounds < 1:
            # with no symmetry law left, any nonzero normalized circuit passes
            raise UsageError("sampled mode needs rounds >= 1")
        if self.ring == "modular" and self.prime_count < 1:
            # with no prime, every nonzero query fails and every other passes
            raise UsageError("the modular ring needs prime count >= 1")

    def box(self) -> tuple[int, int]:
        return (1, 1 << self.sample_width)


@dataclass(frozen=True)
class VerifyResult:
    accept: bool
    target: str
    mode: str
    dims: tuple
    queries: tuple[Query, ...]
    verdicts: tuple[Verdict, ...]
    error_bound: float
    seconds: float
    notes: tuple[str, ...] = ()

    def transcript(self) -> str:
        lines = []
        for v in self.verdicts:
            word = "pass" if v.passed else "fail"
            extra = ""
            if v.witness:
                extra = " " + " ".join(str(w) for w in v.witness)
            lines.append(f"QUERY {v.index} {v.kind} {word}{extra}")
        lines.append("ACCEPT" if self.accept else "REJECT")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# query construction


def _rand_entry(rng: random.Random, box: tuple[int, int]) -> int:
    return rand_point(rng, 1, box)[0]


def identity_point(n: int) -> tuple:
    return tuple([int(r == c) for r in range(n) for c in range(n)])


def unit_columns_point(m: int, k: int) -> tuple:
    """Every choice column at position i is the i-th unit vector; E = 1."""
    return tuple([int(r == c // k) for r in range(m) for c in range(k * m)])


def embed_principal(Y: Sequence[Sequence[int]], n: int) -> tuple:
    """Embed an i x i matrix into the lower-right corner of an n x n matrix

    with ones on the leading diagonal and zeros elsewhere."""
    i = len(Y)
    if i > n:
        raise UsageError(f"cannot embed {i}x{i} into {n}x{n}")
    off = n - i
    return tuple([
        Y[r - off][c - off] if r >= off and c >= off else int(r == c)
        for r in range(n)
        for c in range(n)
    ])


def _first_row_minor(Y: Sequence[tuple], j: int) -> list[tuple]:
    return [row[:j] + row[j + 1 :] for row in Y[1:]]


def _query_sort_key(q: Query):
    # one (kind, params) has one point count, each point the suite's size, so
    # the points compare as their concatenation would
    return (q.kind, tuple(map(str, q.params)), q.relation, q.points)


def canonicalize_queries(queries: Sequence[Query]) -> tuple[Query, ...]:
    """Stable canonical order with exact duplicates removed."""
    out: list[Query] = []
    for q in sorted(queries, key=_query_sort_key):
        if not out or out[-1] != q:
            out.append(q)
    return tuple(out)


def serialize_point(shape: tuple, flat: Sequence[int]) -> str:
    """`s<n>:` or `b<m>x<k>:` followed by the row-major entries."""
    tag = f"s{shape[1]}" if shape[0] == SQUARE else f"b{shape[1]}x{shape[2]}"
    return tag + ":" + ",".join(str(v) for v in flat)


def serialize_query(q: Query, shape: tuple) -> str:
    """One text line; `shape` is the suite's, shared by every point."""
    def render(vals):
        return ",".join(str(v) for v in vals) if vals else "-"

    pts = "|".join(serialize_point(shape, P) for P in q.points)
    return (
        f"Q kind={q.kind} rel={q.relation} coeffs={render(q.coeffs)}"
        f" params={render(q.params)} points={pts}"
    )


def gen_queries_perm(
    n: int,
    seed: int,
    rounds: int = 2,
    box: tuple[int, int] = (1, 1 << 62),
    nonzero_count: int = 3,
    normalize: bool = True,
) -> tuple[Query, ...]:
    """The permanent symmetry suite; deterministic in (n, seed, config)."""
    shape = (SQUARE, n)
    swaps = [
        (i, var_map(PermSwap(i), shape, "left"), var_map(PermSwap(i), shape, "right"))
        for i in range(1, n)
    ]
    queries: list[Query] = []
    for r in range(rounds):
        rng = random.Random(derive_seed("P", n, seed, r))
        X = rand_point(rng, n * n, box)
        for i, left, right in swaps:
            queries.append(Query(P_PERM_LEFT, (i, r), REL_EQUAL, (), (X, act(left, X))))
            queries.append(Query(P_PERM_RIGHT, (i, r), REL_EQUAL, (), (X, act(right, X))))
        for kind, side in ((P_DIAG_LEFT, "left"), (P_DIAG_RIGHT, "right")):
            mu = rand_point(rng, n, box)
            queries.append(
                Query(
                    kind,
                    (r,) + mu,
                    REL_SCALED,
                    (prod(mu),),
                    (X, act(var_map(Diagonal(mu), shape, side), X)),
                )
            )
    for t in range(nonzero_count):
        rng = random.Random(derive_seed("Pnz", n, seed, t))
        queries.append(
            Query(P_NONZERO, (t,), REL_NONZERO, (), (rand_point(rng, n * n, box),))
        )
    if normalize:
        queries.append(Query(NORMALIZE, (), REL_CONST, (1,), (identity_point(n),)))
    return canonicalize_queries(queries)


def gen_queries_selfreduce(n: int, seed: int, rounds: int = 1) -> tuple[Query, ...]:
    """Downward self-reduction suite, entries drawn from [1, 2^62].

    Reporting/contrast only: each order-i query carries i+1 points, against
    the symmetry suite's 2."""
    box = (1, 1 << 62)
    queries: list[Query] = []
    for r in range(rounds):
        rng = random.Random(derive_seed("SR", n, seed, r))
        for i in range(2, n + 1):
            Y = [rand_point(rng, i, box) for _ in range(i)]
            points = [embed_principal(Y, n)]
            for j in range(i):
                points.append(embed_principal(_first_row_minor(Y, j), n))
            queries.append(
                Query(SELF_REDUCE, (i, r), REL_LINEAR, Y[0], tuple(points))
            )
        y = _rand_entry(rng, box)
        queries.append(
            Query(
                SELF_REDUCE_BASE,
                (r,),
                REL_CONST,
                (y,),
                (embed_principal([[y]], n),),
            )
        )
    return canonicalize_queries(queries)


def _literal_diag_entries(rng: random.Random, m: int) -> tuple[int, ...]:
    # +-1 entries with an even number of -1, so the determinant is 1
    entries = [rng.choice((1, -1)) for _ in range(m)]
    if entries.count(-1) % 2 == 1:
        entries[rng.randrange(m)] *= -1
    return tuple(entries)


def gen_queries_efun(
    m: int,
    k: int,
    seed: int,
    rounds: int = 2,
    box: tuple[int, int] = (1, 1 << 62),
    nonzero_count: int = 3,
    normalize: bool = True,
    det_factor_mode: str = "det-corrected",
) -> tuple[Query, ...]:
    """The E-function suite; deterministic in (m, k, seed, config)."""
    if det_factor_mode not in ("det-corrected", "literal"):
        raise UsageError(f"unknown det_factor_mode {det_factor_mode!r}")
    corrected = det_factor_mode == "det-corrected"
    e = k**m
    shape, size = (BLOCK, m, k), k * m * m
    # the elements without drawn entries, as (kind, params but the round,
    # relation, coeffs, var map): the same in every round
    if corrected:
        fixed = [
            (E_ELEM, ("swap", i), REL_SCALED, ((-1) ** e,),
             var_map(PermSwap(i), shape, "left"))
            for i in range(1, m)
        ]
    else:
        fixed = [
            (E_ELEM, ("cycle", 1, 2, j), REL_EQUAL, (),
             var_map(RowCycle(1, 2, j), shape, "left"))
            for j in range(3, m + 1)
        ]
    for g in k_generators(m, k):
        args = tuple(getattr(g, f) for f in g.__dataclass_fields__)
        fixed.append((E_KGEN, (type(g).__name__,) + args, REL_EQUAL, (),
                      var_map(g, shape, "right")))
    queries: list[Query] = []
    for r in range(rounds):
        rng = random.Random(derive_seed("E", m, k, seed, r))
        X = rand_point(rng, size, box)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                y = _rand_entry(rng, box)
                queries.append(
                    Query(
                        E_ELEM,
                        ("add", i, j, y, r),
                        REL_EQUAL,
                        (),
                        (X, act(var_map(ElementaryAdd(i, j, y), shape, "left"), X)),
                    )
                )
        if corrected:
            mu = rand_point(rng, m, box)
            params, rel, coeffs = ("diag", r) + mu, REL_SCALED, (prod(mu) ** e,)
        else:
            mu = _literal_diag_entries(rng, m)
            params, rel, coeffs = ("diag1", r) + mu, REL_EQUAL, ()
        dmap = var_map(Diagonal(mu), shape, "left")
        queries.append(Query(E_ELEM, params, rel, coeffs, (X, act(dmap, X))))
        for kind, params, rel, coeffs, vmap in fixed:
            queries.append(Query(kind, params + (r,), rel, coeffs, (X, act(vmap, X))))
        queries.append(
            Query(
                E_PRIMARY_VANISH,
                (r,),
                REL_CONST,
                (0,),
                (_primary_vanish_point(rng, m, k, box),),
            )
        )
    for t in range(nonzero_count):
        rng = random.Random(derive_seed("Enz", m, k, seed, t))
        queries.append(
            Query(E_NONZERO, (t,), REL_NONZERO, (), (rand_point(rng, size, box),))
        )
    if normalize:
        queries.append(
            Query(NORMALIZE, (), REL_CONST, (1,), (unit_columns_point(m, k),))
        )
    return canonicalize_queries(queries)


def _primary_vanish_bindings(m: int, k: int) -> dict[int, int]:
    """Row-major positions and values that make the primary submatrix

    visibly singular: choice-1 columns at positions below m are unit
    vectors, and the m-th entry of the choice-1 column at position m is
    zero."""
    w = k * m
    out = {r * w + pos * k: int(r == pos) for pos in range(m - 1) for r in range(m)}
    out[(m - 1) * w + (m - 1) * k] = 0
    return out


def _primary_vanish_point(rng, m, k, box) -> tuple:
    """Random block point with the primary-vanish bindings imposed."""
    vals = list(rand_point(rng, k * m * m, box))
    for v, val in _primary_vanish_bindings(m, k).items():
        vals[v] = val
    return tuple(vals)


# ---------------------------------------------------------------------------
# query execution


def _relation_holds(q: Query, vals: Sequence[int], p: int = 0) -> bool:
    """The query's relation on exact values, or on residues mod p if p > 0."""
    rel = q.relation
    if rel == REL_NONZERO:
        diff = vals[0]
    elif rel == REL_EQUAL:
        diff = vals[1] - vals[0]
    elif rel == REL_SCALED:
        diff = vals[1] - q.coeffs[0] * vals[0]
    elif rel == REL_LINEAR:
        diff = vals[0] - sum(c * v for c, v in zip(q.coeffs, vals[1:]))
    elif rel == REL_CONST:
        diff = vals[0] - q.coeffs[0]
    else:
        raise UsageError(f"unknown relation {q.relation!r}")
    if p:
        diff %= p
    return bool(diff) if rel == REL_NONZERO else not diff


def query_verdict(
    q: Query, vals: Sequence[int], moduli: Sequence[int] = (0,)
) -> tuple[bool, list]:
    """(passed, values) for one query, given the circuit's values at its points.

    The modulus 0 compares `vals` exactly.  Over primes, `vals` may be exact
    or reduced mod any multiple of every prime; the nonzero relation passes
    at the first prime with a nonzero residue and every other relation must
    hold at every prime.  The values returned are the residues at the prime
    that settled the verdict (the last one tried).
    """
    settles = q.relation == REL_NONZERO  # the verdict that stops the loop
    ok, res = not settles, []
    for p in moduli:
        res = [v % p for v in vals] if p else vals
        ok = _relation_holds(q, res, p)
        if ok == settles:
            break
    return ok, res


def run_queries(
    c: Circuit,
    queries: Sequence[Query],
    ring: str = "exact",
    prime_bits: int = 31,
    prime_count: int = 3,
    seed: int = 0,
) -> RunReport:
    """Evaluate a query list against a circuit.

    Exact mode compares BigInt values.  Modular mode draws prime_count fresh
    random primes; equality-style relations must hold at every prime, the
    nonzero relation is satisfied by a nonzero residue at any prime.

    The circuit is lowered once and run once, by run_many, over the suite's
    distinct points (a suite's round shares its X across queries: perm(4)
    has 22 distinct points in 36 slots).  Modular mode runs that pass modulo
    the product of the primes and reads each prime's residues off it, which
    are the same residues, since Z/Q -> Z/p is a ring map for p | Q.
    """
    if ring not in ("exact", "modular"):
        raise UsageError(f"unknown ring mode {ring!r}")
    modular = ring == "modular"
    primes: tuple[int, ...] = ()
    if modular:
        rng = random.Random(derive_seed("queryprimes", seed, prime_bits))
        # random_prime returns only numbers that passed is_prime
        primes = tuple(random_prime(rng, prime_bits) for _ in range(prime_count))
    column: dict[tuple, int] = {}  # distinct flat point -> its batch column
    slots = [[column.setdefault(P, len(column)) for P in q.points] for q in queries]
    for P in column:
        if len(P) != c.num_inputs:
            raise ArityMismatch(
                f"query point has {len(P)} entries, circuit takes {c.num_inputs}"
            )
    values = run_many(lower(c), list(column), prod(primes) if primes else 0)
    verdicts = []
    for idx, (q, cols) in enumerate(zip(queries, slots)):
        vals = [values[i] for i in cols]
        if modular:
            ok, vals = query_verdict(q, vals, primes)
        else:
            ok = _relation_holds(q, vals)
        verdicts.append(Verdict(idx, q.kind, ok, () if ok else tuple(vals)))
    accept = all(v.passed for v in verdicts)
    return RunReport(accept, tuple(verdicts), ring, primes)


# ---------------------------------------------------------------------------
# exhaustive (symbolic) identity checks
#
# Each check asks whether p(g X) == f * p(X) holds identically, for p the
# circuit's expansion.  A diagonal or a permutation sends each monomial to
# one monomial, so those two read p a monomial at a time and never build
# p(g X).  That needs every stored coefficient to be nonzero, which
# expand_to_polynomial guarantees: then each stored monomial is really in p.
#   scale  x^e goes to w_e x^e, w_e = prod scale[v]^e_v; pass iff w_e == f
#          at every monomial of p.
#   dest   x^e goes to x^e' with e'[u] = e[dest[u]], distinct monomials to
#          distinct images; pass iff c_e == f * p[e'] at every monomial, an
#          absent image reading 0.  f is not always 1: the E-function swap
#          law has f = (-1)^e.
# Row additions mix monomials, so they build p(g X) through `acted`, which
# also stays the reference the tests hold the per-monomial rule against.


def _record(verdicts: list[Verdict], kind: str, ok: bool, note=()):
    verdicts.append(Verdict(len(verdicts), kind, ok, tuple(note)))


def _prime_tuple(n: int) -> tuple[int, ...]:
    out, cand = [], 2
    while len(out) < n:
        for p in out:
            if cand % p == 0:
                break
        else:
            out.append(cand)
        cand += 1
    return tuple(out)


def _diagonals(size: int, rng: random.Random, box: tuple[int, int]) -> list[tuple]:
    """The prime diagonal, then EXTRA_DIAGONALS drawn from the box."""
    drawn = [rand_point(rng, size, box) for _ in range(EXTRA_DIAGONALS)]
    return [_prime_tuple(size)] + drawn


def acted(p: dict, vmap: tuple) -> dict:
    """The polynomial whose value at X is p(g X), for vmap = var_map(g, ...)."""
    dest, scale, add = vmap
    if dest is not None:
        inverse = [0] * len(dest)
        for v, d in enumerate(dest):
            inverse[d] = v
        p = poly_remap_vars(p, inverse)
    if scale is not None:
        p = poly_scale_vars(p, scale)
    if add is not None:
        p = poly_row_add_subst(p, *add)
    return p


def _suite(shape: tuple, checks) -> tuple:
    """The (kind, note, element, side, factor) checks as (kind, note, var

    map, factor); the check passes iff p(g X) == factor * p(X)."""
    return tuple(
        (kind, note, var_map(g, shape, side), factor)
        for kind, note, g, side, factor in checks
    )


# The suites depend only on the dimensions and the config, so a class sweep
# builds each once and applies it to every member's expansion.


@lru_cache(maxsize=8)
def _perm_suite(n: int, cfg: VerifyConfig) -> tuple:
    """Row/column swap invariance, then both diagonal laws per diagonal."""
    checks = []
    for i in range(1, n):
        checks.append((P_PERM_LEFT, (), PermSwap(i), "left", 1))
        checks.append((P_PERM_RIGHT, (), PermSwap(i), "right", 1))
    rng = random.Random(derive_seed("Pexh", n, cfg.seed))
    for mu in _diagonals(n, rng, cfg.box()):
        checks.append((P_DIAG_LEFT, (), Diagonal(mu), "left", prod(mu)))
        checks.append((P_DIAG_RIGHT, (), Diagonal(mu), "right", prod(mu)))
    return _suite((SQUARE, n), checks)


@lru_cache(maxsize=8)
def _efun_suite(m: int, k: int, cfg: VerifyConfig) -> tuple:
    """Row additions at y = 1 and a drawn y, the det-mode row laws, then the

    column wreath generators."""
    e = k**m
    rng = random.Random(derive_seed("Eexh", m, k, cfg.seed))
    checks = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i != j:
                for y in (1, _rand_entry(rng, cfg.box())):
                    checks.append(
                        (E_ELEM, (f"add {i},{j} y={y}",), ElementaryAdd(i, j, y), "left", 1)
                    )
    if cfg.det_factor_mode == "det-corrected":
        for mu in _diagonals(m, rng, cfg.box()):
            checks.append((E_ELEM, (f"diag {mu}",), Diagonal(mu), "left", prod(mu) ** e))
        for i in range(1, m):
            checks.append((E_ELEM, (f"swap {i}",), PermSwap(i), "left", (-1) ** e))
    else:
        if m >= 2:
            mu = (-1, -1) + (1,) * (m - 2)
            checks.append((E_ELEM, ("diag1 -1,-1",), Diagonal(mu), "left", 1))
        for j in range(3, m + 1):
            checks.append((E_ELEM, (f"cycle 1,2,{j}",), RowCycle(1, 2, j), "left", 1))
    for g in k_generators(m, k):
        checks.append((E_KGEN, (type(g).__name__,), g, "right", 1))
    return _suite((BLOCK, m, k), checks)


def _check_suite(verdicts: list[Verdict], poly: dict, suite: tuple) -> None:
    """Record, per check, whether p(g X) == factor * p(X) identically.

    A diagonal check passes iff every monomial's weight prod scale[v]^e_v
    equals the factor; a permutation check iff every coefficient equals the
    factor times its image's coefficient in p.  Both rules need p to hold
    no zero coefficient, which an expansion never does.  Row additions go
    through `acted`."""
    items = poly.items()
    get = poly.get
    push = verdicts.append
    for kind, note, vmap, factor in suite:
        dest, scale, _ = vmap
        ok = True
        if scale is not None:
            for e in poly:
                if prod(map(pow, scale, e)) != factor:
                    ok = False
                    break
        elif dest is not None:
            for e, coeff in items:
                if factor * get(tuple(map(e.__getitem__, dest)), 0) != coeff:
                    ok = False
                    break
        else:
            ok = acted(poly, vmap) == poly_scaled(poly, factor)
        push(Verdict(len(verdicts), kind, ok, note))


def _exhaustive_perm(c: Circuit, n: int, cfg: VerifyConfig) -> tuple[list[Verdict], tuple[str, ...]]:
    poly = expand_to_polynomial(c, max_terms=MAX_TERMS)
    verdicts: list[Verdict] = []
    _record(verdicts, P_NONZERO, bool(poly))
    _check_suite(verdicts, poly, _perm_suite(n, cfg))
    if cfg.normalize:
        _record(verdicts, NORMALIZE, poly_eval(poly, identity_point(n)) == 1)
    return verdicts, (f"expansion terms={len(poly)}",)


def _exhaustive_efun(
    c: Circuit, m: int, k: int, cfg: VerifyConfig
) -> tuple[list[Verdict], tuple[str, ...]]:
    poly = expand_to_polynomial(c, max_terms=MAX_TERMS)
    verdicts: list[Verdict] = []
    _record(verdicts, E_NONZERO, bool(poly))
    _check_suite(verdicts, poly, _efun_suite(m, k, cfg))
    vanish = poly_subst_consts(poly, _primary_vanish_bindings(m, k))
    _record(verdicts, E_PRIMARY_VANISH, vanish == {})
    if cfg.normalize:
        _record(
            verdicts,
            NORMALIZE,
            poly_eval(poly, unit_columns_point(m, k)) == 1,
        )
    return verdicts, (f"expansion terms={len(poly)}",)


# ---------------------------------------------------------------------------
# top-level verifiers


def verify_claims_perm(c: Circuit, n: int, cfg: VerifyConfig | None = None) -> VerifyResult:
    """Decide whether c plausibly computes the n x n permanent.

    Sampled mode runs the randomized symmetry suite and reports a
    per-identity error bound.  Exhaustive mode checks the identities
    exactly on the expansion (sound for this class: accept iff c is the
    permanent, assuming the expansion fits the term budget).
    """
    cfg = cfg or VerifyConfig()
    return _verify_claims(c, "perm", (n,), cfg, _exhaustive_perm, gen_queries_perm)


def verify_claims_efun(
    c: Circuit, m: int, k: int, cfg: VerifyConfig | None = None
) -> VerifyResult:
    """Decide whether c plausibly computes the (m, k) E-function."""
    cfg = cfg or VerifyConfig()
    if m == 1 and cfg.det_factor_mode == "literal":
        # its row laws (diag1 -1,-1, the row cycles) need m >= 2
        raise UsageError("det mode literal has no row law at m = 1; use det-corrected")
    gen = partial(gen_queries_efun, det_factor_mode=cfg.det_factor_mode)
    notes: tuple[str, ...] = ()
    if k < 3:
        notes = ("sub-threshold k (characterization converse needs k >= 3)",)
    return _verify_claims(c, "efun", (m, k), cfg, _exhaustive_efun, gen, notes)


_DIM_NAMES = {"perm": ("n",), "efun": ("m", "k")}


def _verify_claims(
    c: Circuit, target: str, dims: tuple, cfg: VerifyConfig, exhaustive, gen, notes=()
) -> VerifyResult:
    """The body both verifiers share; `exhaustive` and `gen` take *dims first."""
    for name, d in zip(_DIM_NAMES[target], dims):
        if d < 1:
            raise UsageError(f"{target} dimension {name} must be at least 1, got {d}")
    want = dims[0] * prod(dims)  # n x n, or m x (k * m)
    if c.num_inputs != want:
        raise ArityMismatch(f"circuit takes {c.num_inputs} inputs, want {want}")
    bound = 0.0
    with Stopwatch() as sw:
        if cfg.mode == "exhaustive":
            verdicts, more = exhaustive(c, *dims, cfg)
            accept, queries = all(v.passed for v in verdicts), ()
        elif cfg.mode == "sampled":
            queries = gen(
                *dims,
                cfg.seed,
                rounds=cfg.rounds,
                box=cfg.box(),
                nonzero_count=cfg.nonzero_count,
                normalize=cfg.normalize,
            )
            report = run_queries(
                c,
                queries,
                ring=cfg.ring,
                prime_bits=cfg.prime_bits,
                prime_count=cfg.prime_count,
                seed=cfg.seed,
            )
            accept, verdicts, more = report.accept, report.verdicts, (f"ring={report.mode}",)
        else:
            raise UsageError(f"unknown mode {cfg.mode!r}")
    if cfg.mode == "sampled":
        bound = sampled_error_bound(c.size, cfg.box(), cfg.rounds)
    return VerifyResult(
        accept, target, cfg.mode, dims, queries, tuple(verdicts), bound, sw.seconds,
        notes + more,
    )


# ---------------------------------------------------------------------------
# coefficient-space uniqueness


@dataclass
class NullspaceResult:
    dim: int
    monomials: list[tuple[int, ...]]
    basis: list[dict]
    forced_zero: int = 0


def _monomials_up_to(nvars: int, degree: int):
    # exponent tuples with total degree <= degree, lexicographic
    def rec(prefix, remaining, left):
        if left == 0:
            yield tuple(prefix)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + [e], remaining - e, left - 1)

    yield from rec([], degree, nvars)


def perm_symmetry_nullspace(n: int, seed: int = 0) -> NullspaceResult:
    """Solution space of the symmetry constraints on coefficient vectors of

    polynomials of total degree <= n in the n x n matrix entries.

    Constraints: the exhaustive suite's checks, that is invariance under
    adjacent row and column transpositions and the two diagonal scaling laws
    at the first n primes (exact, by multiplicative independence) and at
    drawn diagonals.  All
    elimination is exact; the expected outcome is a one-dimensional space
    spanned by the permanent's coefficient vector.
    """
    monomials = list(_monomials_up_to(n * n, n))
    index = {mono: i for i, mono in enumerate(monomials)}

    # The exhaustive suite's checks, read by _check_suite's rules: a scale
    # part kills each monomial whose weight differs from the factor, and a
    # dest part (a swap, factor 1) ties each coefficient to its image's.
    killed = [False] * len(monomials)
    pair_rows: list[tuple[int, int]] = []
    for _, _, (dest, scale, _), factor in _perm_suite(
        n, VerifyConfig(mode="exhaustive", seed=seed)
    ):
        for mi, mono in enumerate(monomials):
            if scale is not None:
                if prod(map(pow, scale, mono)) != factor:
                    killed[mi] = True
            else:
                mj = index[tuple(map(mono.__getitem__, dest))]
                if mi < mj:
                    pair_rows.append((mi, mj))

    # propagate forced zeros through the pair constraints
    changed = True
    while changed:
        changed = False
        for a, b in pair_rows:
            if killed[a] != killed[b]:
                killed[a] = killed[b] = True
                changed = True

    survivors = [i for i in range(len(monomials)) if not killed[i]]
    sub_index = {mono_i: j for j, mono_i in enumerate(survivors)}
    rows = []
    for a, b in pair_rows:
        if not killed[a] and not killed[b] and a != b:
            r = [Fraction(0)] * len(survivors)
            r[sub_index[a]] = Fraction(1)
            r[sub_index[b]] = Fraction(-1)
            rows.append(r)

    # exact rational elimination (Gauss-Jordan) on the surviving system
    ncols = len(survivors)
    pivots: dict[int, list[Fraction]] = {}
    for r in rows:
        r = r[:]
        for col, prow in pivots.items():
            if r[col]:
                f = r[col]
                r = [a - f * b for a, b in zip(r, prow)]
        lead = next((i for i, v in enumerate(r) if v), None)
        if lead is None:
            continue
        inv = r[lead]
        r = [v / inv for v in r]
        for col, prow in pivots.items():
            if prow[lead]:
                f = prow[lead]
                pivots[col] = [a - f * b for a, b in zip(prow, r)]
        pivots[lead] = r
    free_cols = [i for i in range(ncols) if i not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for col, prow in pivots.items():
            vec[col] = -prow[fc]
        coeffs = {
            monomials[survivors[i]]: vec[i] for i in range(ncols) if vec[i]
        }
        basis.append(coeffs)
    return NullspaceResult(
        dim=len(free_cols),
        monomials=monomials,
        basis=basis,
        forced_zero=len(monomials) - len(survivors),
    )
