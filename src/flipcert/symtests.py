"""Symmetry-characterization test suites for the permanent and the

E-function, plus the exact coefficient-space uniqueness computation.

Each target's characterizing symmetries are written once, in `_laws`:

  permanent   adjacent row/column transpositions; the diagonal law
              C(mu X) = (prod mu) C(X) on both sides.
  E-function  the row swaps with (-1)^(k^m) (literal mode: det-1
              elements only, row 3-cycles and +-1 diagonals); the column
              wreath generators; row additions; the diagonal law with
              factor (prod mu)^(k^m).

Each law asserts p(g X) == factor * p(X).  A static law (kind, head, note,
dest, factor) permutes the variables by dest, `oracles.var_map`'s, with a
factor of None for invariance.  A drawn law (kind, head, part, power) reads
its draw through part: `add_pairs` for a row addition's y, or a
`scale_reader` for a diagonal's mu, with factor prod(mu)^power, 0 meaning
invariance.  Sampled mode queries every law at each round's random X, its
params the head, the round and any draw; its seed-free part is one cached
template per shape, read from these rows, so a call pays for its seeds,
draws and acted points.  Exhaustive mode makes each law, at fixed draws, a
check (kind, note, var map, factor) on the circuit's expansion (`_check`),
and the nullspace solves the permanent's checks.  A suite also asks for
nonzero values, for E vanishing on a singular primary submatrix, and
optionally the normalization C(I) = 1 or E(X0) = 1 at the all-unit-columns
point.  The self-reduction suite C_i(Y) = sum_j y_1j C_{i-1}(Y_j) is kept
for contrast: its queries touch i+1 points, a law's 2.

A query point is a flat row-major tuple of ints, from generation through
`run_queries` to the certificate text; its shape, (SQUARE, n) or
(BLOCK, m, k), belongs to the suite and comes from the target dimensions,
so a `Query` does not carry it.  Every drawn entry, of a point or of a
group element, comes from `util.rand_point`: CPython's randrange rule
inlined, so the draws, and with them the query text and certificate bytes,
are those `rng.randrange(lo, hi + 1)` gives.

Queries evaluate either over exact integers or modulo a few fresh random
primes.  Exhaustive mode replaces sampling with exact identity checks on
the circuit's sparse expansion, with diagonal test vectors anchored at
distinct primes; for this class of identities that makes the check sound,
not just probabilistic (multiplicative independence forces the degree
vectors exactly).  A diagonal or permutation law is decided once per
distinct monomial: the suite's table keeps each monomial's row (the checks
it fails alone, and its images) and one verdict tuple per outcome, in the
suite's lru_cache entry, so it holds at most 8 suites, each with the
distinct monomials it has seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, permutations
from math import prod
from operator import mul
from typing import NamedTuple, Sequence

from .circuits import (
    Circuit,
    check_eval_budget,
    evaluate,  # noqa: F401  (perfbench's tracer test expects it bound here)
    expand_to_polynomial,
    formal_degree,
    lower,
    poly_eval,
    poly_remap_vars,
    poly_row_add_subst,
    poly_scale_vars,
    poly_scaled,
    poly_subst_consts,
    run_many,
)
from .config import Option, declare
from .errors import ArityMismatch, UsageError
from .fields import is_prime, random_prime
from .matrices import BLOCK, SQUARE
from .oracles import (
    PermSwap,
    RowCycle,
    add_pairs,
    k_generators,
    mover,
    reader,
    scale_reader,
    var_map,
)
from .pit import pit_error_bound as sampled_error_bound
from .util import MAX_SAMPLE_WIDTH, rand_point, sample_box, seeded, streams

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
# the most primes a modular run draws; a count of 10^8 was still drawing
# after 15 s
MAX_PRIME_COUNT = 64
# the most rounds and nonzero queries a suite draws; 10^8 of either was
# still running on perm(2) after 6 s
MAX_ROUNDS = 1024
MAX_NONZERO = 1024

# relations between the evaluations v_0, v_1, ... of a query's points
REL_NONZERO = "nonzero"  # v0 != 0
REL_EQUAL = "equal"  # v1 == v0
REL_SCALED = "scaled"  # v1 == coeffs[0] * v0
REL_LINEAR = "linear"  # v0 == sum_i coeffs[i] * v_{i+1}
REL_CONST = "const"  # v0 == coeffs[0]


# Query and Verdict are named tuples, as flipcert's package docstring says
# records are; a suite makes one of each per query.
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


class RunReport(NamedTuple):
    accept: bool
    verdicts: tuple[Verdict, ...]
    mode: str
    primes: tuple[int, ...] = ()


# the E-function suites' two law sets (see the module docstring)
DET_MODE = Option("det-corrected", "det_factor_mode", "--det-mode", "det_mode",
                  choices=("det-corrected", "literal"))
# the sample box's width in bits, shared with CertConfig
SAMPLE_WIDTH = Option(62, "sample width", "--width", lo=1, hi=MAX_SAMPLE_WIDTH)
# the ring a suite runs in; run_queries reads its choices too
RING = Option("exact", "ring", "--ring", choices=("exact", "modular"))


@dataclass(frozen=True)
@declare()
class VerifyConfig:
    seed: int = Option(0, "seed", "--seed")
    rounds: int = Option(2, "rounds", "--rounds", lo=0, hi=MAX_ROUNDS)
    nonzero_count: int = Option(3, "nonzero count", "--nonzero", lo=0, hi=MAX_NONZERO)
    sample_width: int = SAMPLE_WIDTH
    normalize: bool = Option(True, "normalize", "--no-normalize")
    mode: str = Option("sampled", "mode", "--mode", choices=("sampled", "exhaustive"))
    ring: str = RING
    # random_prime's floor; below 2^81 < psi_13 every drawn prime is
    # certainly prime, and a huge width would draw for minutes
    prime_bits: int = Option(31, "prime bits", "--prime-bits", lo=16, hi=81)
    # with no prime, every nonzero query fails and every other passes
    prime_count: int = Option(3, "prime count", "--prime-count", lo=1, hi=MAX_PRIME_COUNT)
    det_factor_mode: str = DET_MODE

    def __post_init__(self):
        self._check()
        if self.mode == "sampled" and self.rounds < 1:
            # with no symmetry law left, any nonzero normalized circuit passes
            raise UsageError("sampled mode needs rounds >= 1")

    def box(self) -> tuple[int, int]:
        return sample_box(self.sample_width)


class VerifyResult(NamedTuple):
    accept: bool
    mode: str
    queries: tuple[Query, ...]
    verdicts: tuple[Verdict, ...]
    error_bound: float
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


@lru_cache(maxsize=16)
def identity_point(n: int) -> tuple:
    return tuple([int(r == c) for r in range(n) for c in range(n)])


@lru_cache(maxsize=16)
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


def canonicalize_queries(queries: Sequence[Query]) -> tuple[Query, ...]:
    """Stable canonical order with exact duplicates removed.  One (kind,
    params) has one point count, each point the suite's size, so the points
    compare as their concatenation would."""
    out: list[Query] = []
    for q in sorted(queries, key=lambda q: (q.kind, tuple(map(str, q.params)),
                                            q.relation, q.points)):
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


# ---------------------------------------------------------------------------
# the symmetry laws: each target's, once, as static and drawn rows


@lru_cache(maxsize=16)
def _laws(target: str, dims: tuple, corrected: bool) -> tuple[tuple, tuple]:
    """(static, drawn), the rows of the module docstring.  The permanent's
    static laws are its swaps, its drawn laws the left and right diagonals;
    E's are the row swaps (literal mode: 3-cycles) and column generators,
    then the row additions and the diagonal."""
    m, shape = dims[0], ((SQUARE,) if target == "perm" else (BLOCK,)) + dims
    if target == "perm":
        static = tuple((kind, (i,), (), var_map(PermSwap(i), shape, side)[0], None)
                       for i in range(1, m)
                       for kind, side in ((P_PERM_LEFT, "left"), (P_PERM_RIGHT, "right")))
        return static, ((P_DIAG_LEFT, (), scale_reader(shape, "left"), 1),
                        (P_DIAG_RIGHT, (), scale_reader(shape, "right"), 1))
    power = dims[1] ** m * corrected  # k^m, or 0 in literal mode
    if corrected:
        rows = [(("swap", i), f"swap {i}", PermSwap(i), (-1) ** power) for i in range(1, m)]
    else:
        rows = [(("cycle", 1, 2, j), f"cycle 1,2,{j}", RowCycle(1, 2, j), None)
                for j in range(3, m + 1)]
    static = [(E_ELEM, head, (note,), var_map(g, shape, "left")[0], factor)
              for head, note, g, factor in rows]
    static += [(E_KGEN, (type(g).__name__,) + tuple(g), (type(g).__name__,),
                var_map(g, shape, "right")[0], None) for g in k_generators(*dims)]
    drawn = [(E_ELEM, ("add", i, j), add_pairs(i, j, shape, "left"), 0)
             for i, j in permutations(range(1, m + 1), 2)]
    drawn.append((E_ELEM, ("diag",) if corrected else ("diag1",), scale_reader(shape, "left"),
                  power))
    return tuple(static), tuple(drawn)


def _check(law: tuple, draw=None) -> tuple:
    """A static law, or a drawn law at its draw, as the exhaustive check
    (kind, note, var map, factor)."""
    if draw is None:
        kind, _, note, dest, factor = law
        return kind, note, (dest, None, None), 1 if factor is None else factor
    kind, head, part, power = law
    if not callable(part):  # add_pairs, at y = draw
        return kind, (f"add {head[1]},{head[2]} y={draw}",), (None, None, (part, draw)), 1
    if not head:  # the permanent's
        note = ()
    elif power:
        note = (f"diag {draw}",)
    else:  # det mu = 1; the note lists its -1 entries
        note = ("diag1 " + ",".join(str(v) for v in draw if v != 1),)
    return kind, note, (None, part(draw), None), prod(draw) ** power


def require_row_law(m: int, det_factor_mode: str) -> None:
    """Refuse literal mode at m = 1, where the E-function has no row law:
    diag1 -1,-1 needs two rows and the row cycles three."""
    if m == 1 and det_factor_mode == "literal":
        raise UsageError("det mode literal has no row law at m = 1; use det-corrected")


# ---------------------------------------------------------------------------
# sampled suites
#
# A suite's shape, (target, dims, det mode, rounds, nonzero count, normalize),
# fixes all but its draws: _template holds that part.  A call seeds its
# streams, draws, computes the acted points as columns and puts the queries
# together in canonical order, canonicalize_queries'; it orders only each
# tie, one (i, j)'s row additions, whose params put the drawn y first.


class _Template(NamedTuple):
    dims: tuple
    size: int  # entries of a point
    rounds: int
    label: str  # of the round streams; the nonzero streams' adds "nz"
    draws: int  # entries a round draws from the box: X, its ys, its mus
    movers: tuple  # the static laws', in order
    adds: tuple  # (head, pairs) of _laws' drawn rows whose part is add_pairs, in order
    diags: tuple  # (reader, power, heads) of those whose part is a scale reader;
    #               heads[r] is the head and round r, the params before the mu
    params: tuple  # the seed-free queries'; a call appends the drawn laws'
    coeffs: tuple  # the same
    rows: tuple  # (kind, relation, params index, pick, slots), canonical order
    slots: tuple  # each row's
    ties: tuple  # (lo, hi) slices of rows, one (i, j)'s row additions
    nonzero: int  # the nonzero count
    one: tuple  # (the normalization point,), or () without normalization
    passes: tuple  # each row's verdict when it passes


@lru_cache(maxsize=32)
def _template(target: str, dims: tuple, det_mode: str, rounds: int,
              nonzero_count: int, normalize: bool) -> _Template:
    """A round's columns are X, the static laws' points, the drawn laws'
    points and, for E, the vanish point; the one-point queries' follow."""
    if target == "efun" and det_mode not in DET_MODE.choices:
        raise DET_MODE.refuse(det_mode)
    m, size, efun = dims[0], dims[0] * prod(dims), target == "efun"
    corrected = not efun or det_mode == "det-corrected"
    static, drawn = _laws(target, dims, corrected)
    adds = tuple((head, part) for _, head, part, _ in drawn if not callable(part))
    diags = tuple((part, power, tuple(head + (r,) for r in range(rounds)))
                  for _, head, part, power in drawn if callable(part))
    label, nonzero = ("E", E_NONZERO) if efun else ("P", P_NONZERO)
    one = unit_columns_point(*dims) if efun else identity_point(m)
    width = 1 + len(static) + len(drawn) + efun  # a round's columns
    fixed, late = [], []  # (kind, params, relation, coeffs, slots) without and with draws
    for r in range(rounds):
        x = r * width
        for at, (kind, head, _, _, factor) in enumerate(static, x + 1):
            rel, coeffs = (REL_EQUAL, ()) if factor is None else (REL_SCALED, (factor,))
            fixed.append((kind, head + (r,), rel, coeffs, (x, at)))
        # a drawn law sorts by its params before the draws, head + (r,)
        late += [(kind, head + (r,), REL_SCALED if power else REL_EQUAL, (), (x, at))
                 for at, (kind, head, _, power) in enumerate(drawn, x + 1 + len(static))]
        if efun:
            fixed.append((E_PRIMARY_VANISH, (r,), REL_CONST, (0,), (x + width - 1,)))
    x = rounds * width
    fixed += [(nonzero, (t,), REL_NONZERO, (), (x + t,)) for t in range(nonzero_count)]
    if normalize:
        fixed.append((NORMALIZE, (), REL_CONST, (1,), (x + nonzero_count,)))
    keyed = sorted(((kind, tuple(map(str, params)), rel), kind, rel, at, reader(slots), slots)
                   for at, (kind, params, rel, _, slots) in enumerate(fixed + late))
    assert len({row[0] for row in keyed}) == len(keyed), "two queries share kind and params"
    rows = tuple(row[1:] for row in keyed)
    # one (i, j)'s row additions, one per round, sit together in that order
    adds_at = [at for at, row in enumerate(keyed) if row[0][1][:1] == ("add",)]
    return _Template(
        dims, size, rounds, label, size + len(adds) + len(diags) * m * corrected,
        tuple(mover(law[3]) for law in static), adds, diags,
        tuple(q[1] for q in fixed), tuple(q[3] for q in fixed), rows,
        tuple(row[-1] for row in rows),
        tuple((lo, lo + rounds) for lo in adds_at[::rounds]) if rounds > 1 else (),
        nonzero_count, (one,) * normalize,
        tuple(Verdict(i, row[0], True) for i, row in enumerate(rows)))


def _literal_diag_entries(rng: random.Random, m: int) -> tuple[int, ...]:
    # +-1 entries with an even number of -1, so the determinant is 1
    entries = [rng.choice((1, -1)) for _ in range(m)]
    if entries.count(-1) % 2 == 1:
        entries[rng.randrange(m)] *= -1
    return tuple(entries)


def _suite(t: _Template, seed: int, box: tuple[int, int]) -> tuple:
    """(queries, columns, slots): the queries in canonical order, each drawn
    or acted point once as a column, and each query's columns."""
    dims, m, size, movers = t.dims, t.dims[0], t.size, t.movers
    columns, params, coeffs = [], list(t.params), list(t.coeffs)
    column, param, coeff = columns.append, params.append, coeffs.append
    for r, rng in enumerate(streams(t.rounds, t.label, *dims, seed)):
        vals = rand_point(rng, t.draws, box)
        X = vals[:size]
        column(X)
        for move in movers:
            column(move(X))
        for (head, pairs), y in zip(t.adds, vals[size:]):
            Y = list(X)
            for d, s in pairs:
                Y[d] += y * Y[s]
            column(tuple(Y))
            param(head + (y, r))
            coeff(())
        at = size + len(t.adds)
        for read, power, heads in t.diags:
            # the entries left, or literal mode's +-1, drawn past the box
            mu = vals[at:at + m] if at < len(vals) else _literal_diag_entries(rng, m)
            at += m
            # built as a list first: a tuple filled from a bare map is resized
            # as it grows, which left the process's peak RSS 1.2 MB higher
            column(tuple([*map(mul, read(mu), X)]))
            param(heads[r] + mu)
            coeff((prod(mu) ** power,) if power else ())
        if t.label == "E":
            column(_primary_vanish_point(rng, *dims, box))
    columns += [rand_point(rng, size, box)
                for rng in streams(t.nonzero, t.label + "nz", *dims, seed)]
    columns += t.one
    rows, slots = t.rows, t.slots
    if t.ties:  # each in its rounds' text order, which decides between equal ys
        rows = list(rows)
        for lo, hi in t.ties:
            rows[lo:hi] = sorted(rows[lo:hi], key=lambda row: str(params[row[2]][3]))
        slots = [row[-1] for row in rows]
    new = tuple.__new__  # as Query._make builds, without its length check
    return tuple([new(Query, (kind, params[at], rel, coeffs[at], pick(columns)))
                  for kind, rel, at, pick, _ in rows]), columns, slots


def _sampled_suite(target, dims, det_mode, seed, rounds, box, nonzero_count, normalize) -> tuple:
    """_suite of the shape's template."""
    return _suite(_template(target, dims, det_mode, rounds, nonzero_count, normalize), seed, box)


def gen_queries_perm(
    n: int, seed: int, rounds: int = 2, box: tuple[int, int] = (1, 1 << 62),
    nonzero_count: int = 3, normalize: bool = True,
) -> tuple[Query, ...]:
    """The permanent symmetry suite; deterministic in (n, seed, config)."""
    args = (seed, rounds, box, nonzero_count, normalize)
    return _sampled_suite("perm", (n,), "det-corrected", *args)[0]


def gen_queries_selfreduce(n: int, seed: int, rounds: int = 1) -> tuple[Query, ...]:
    """Downward self-reduction suite, entries drawn from [1, 2^62].

    Reporting/contrast only: each order-i query carries i+1 points, against
    the symmetry suite's 2."""
    box = (1, 1 << 62)
    queries: list[Query] = []
    for r in range(rounds):
        rng = seeded("SR", n, seed, r)
        for i in range(2, n + 1):
            Y = [rand_point(rng, i, box) for _ in range(i)]
            points = [embed_principal(Y, n)]
            for j in range(i):
                points.append(embed_principal(_first_row_minor(Y, j), n))
            queries.append(Query(SELF_REDUCE, (i, r), REL_LINEAR, Y[0], tuple(points)))
        y = rand_point(rng, 1, box)[0]
        queries.append(Query(SELF_REDUCE_BASE, (r,), REL_CONST, (y,), (embed_principal([[y]], n),)))
    return canonicalize_queries(queries)


def gen_queries_efun(
    m: int, k: int, seed: int, rounds: int = 2, box: tuple[int, int] = (1, 1 << 62),
    nonzero_count: int = 3, normalize: bool = True, det_factor_mode: str = "det-corrected",
) -> tuple[Query, ...]:
    """The E-function suite; deterministic in (m, k, seed, config)."""
    args = (seed, rounds, box, nonzero_count, normalize)
    return _sampled_suite("efun", (m, k), det_factor_mode, *args)[0]


@lru_cache(maxsize=16)
def _primary_vanish_bindings(m: int, k: int) -> dict[int, int]:
    """Row-major positions and values that make the primary submatrix

    visibly singular: choice-1 columns at positions below m are unit
    vectors, and the m-th entry of the choice-1 column at position m is
    zero.  Cached, so every caller shares it: read it only."""
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


def _failures(queries: Sequence[Query], values: Sequence[int],
              slots: Sequence[Sequence[int]], p: int = 0) -> list[int]:
    """The indices of the queries whose relation fails on v_j =
    values[slots[i][j]], query i's values, exactly, or on residues mod p if
    p > 0: the one relation rule, run over a whole list in one loop.  The
    relations are tested in the order of how often a suite asks for them."""
    out = []
    for i, (q, s) in enumerate(zip(queries, slots)):
        rel = q.relation
        if rel == REL_EQUAL:
            diff = values[s[1]] - values[s[0]]
        elif rel == REL_SCALED:
            diff = values[s[1]] - q.coeffs[0] * values[s[0]]
        elif rel == REL_NONZERO:
            if not (values[s[0]] % p if p else values[s[0]]):
                out.append(i)
            continue
        elif rel == REL_CONST:
            diff = values[s[0]] - q.coeffs[0]
        elif rel == REL_LINEAR:
            diff = values[s[0]] - sum(c * values[t] for c, t in zip(q.coeffs, s[1:]))
        else:
            raise UsageError(f"unknown relation {rel!r}")
        if diff % p if p else diff:
            out.append(i)
    return out


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
    slots = range(len(vals))
    for p in moduli:
        res = [v % p for v in vals] if p else vals
        ok = not _failures((q,), res, (slots,), p)
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
    columns: list | None = None,
    slots: Sequence[Sequence[int]] = (),
    passes: tuple[Verdict, ...] = (),
) -> RunReport:
    """Evaluate a query list against a circuit.

    Exact mode compares BigInt values.  Modular mode draws prime_count fresh
    random primes; equality-style relations must hold at every prime, the
    nonzero relation is satisfied by a nonzero residue at any prime.

    The circuit runs once, by run_many, over the columns: a verifier's suite
    passes its own, each drawn or acted point once, query i reading columns[j]
    for j in slots[i]; any other list's are its distinct points, checked
    against c's arity.  The run is modulo rad, the product of the distinct
    primes (0 in the exact ring, 1 with no prime).  A relation holds modulo
    every prime iff it holds modulo rad, so each query is decided once; with
    p drawn twice, a difference divisible by p but not p^2 would fail modulo
    the product of all the primes.  The relation is read off the run's
    values at the query's slots; only a failed query gathers its values and
    walks its primes, through query_verdict, for the settling prime's
    residues, which are those of the exact values, since Z/rad -> Z/p is a
    ring map.  `passes`, from a suite's template, holds each query's verdict
    should it pass, shared between calls; any other list's are made here.
    """
    if ring not in RING.choices:
        raise UsageError(f"unknown ring mode {ring!r}")
    moduli: tuple[int, ...] = (0,)
    primes: tuple[int, ...] = ()
    if ring == "modular":
        rng = seeded("queryprimes", seed, prime_bits)
        # random_prime returns only numbers is_prime accepts
        moduli = primes = tuple(random_prime(rng, prime_bits) for _ in range(prime_count))
    rad = prod(set(moduli))
    if columns is None:
        column: dict[tuple, int] = {}  # distinct flat point -> its batch column
        slots = [[column.setdefault(P, len(column)) for P in q.points] for q in queries]
        for P in column:
            if len(P) != c.num_inputs:
                raise ArityMismatch(
                    f"query point has {len(P)} entries, circuit takes {c.num_inputs}"
                )
        columns = list(column)
    values = run_many(lower(c), columns, rad)
    failed = _failures(queries, values, slots, rad)
    new = tuple.__new__  # as RunReport._make and Verdict._make build
    verdicts = passes or tuple([new(Verdict, (i, q.kind, True, ())) for i, q in enumerate(queries)])
    if failed:
        verdicts = list(verdicts)
        for i in failed:
            res = [values[j] for j in slots[i]]
            if rad:  # the residues at the prime that settles it
                res = query_verdict(queries[i], res, moduli)[1]
            verdicts[i] = new(Verdict, (i, queries[i].kind, False, tuple(res)))
    return new(RunReport, (not failed, tuple(verdicts), ring, primes))


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
# Both rules depend on e alone, so a suite's _Table decides them once per
# distinct monomial: e's row is the bitmask of checks e fails by itself
# (w_e != f, or e' == e with f != 1) and (bit, f, e') for each permutation
# that moves e.  A call ORs its rows' masks and compares each coefficient
# with its images', and the calls of a class share the few verdict tuples
# their outcomes give.  The table lives in the suite's lru_cache entry, so
# at most 8 suites are held, each with the distinct monomials it has seen.
# Row additions mix monomials, so they build p(g X) through `acted`, which
# also stays the reference the tests hold the per-monomial rule against.


def _record(verdicts: list[Verdict], kind: str, ok: bool, note=()):
    verdicts.append(Verdict(len(verdicts), kind, ok, tuple(note)))


def _prime_tuple(n: int) -> tuple[int, ...]:
    """The first n primes."""
    return tuple(islice(filter(is_prime, count(2)), n))


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


class _Table:
    """A suite's checks, each distinct monomial's row and each outcome's
    verdicts.  Check i owns bit 1 << i of a failure mask.  `first` and
    `last` are the kinds of the verdicts recorded before and after the
    checks, and an outcome is the failure mask with those verdicts' passes."""

    __slots__ = ("suite", "first", "last", "diagonals", "perms", "others", "rows", "outcomes")

    def __init__(self, suite: tuple, first: str = "", last: tuple = ()):
        self.suite, self.first, self.last = suite, first, last
        self.diagonals, self.perms, self.others = [], [], []
        for i, (_, _, vmap, factor) in enumerate(suite):
            dest, scale, _ = vmap
            if scale is not None:
                self.diagonals.append((1 << i, scale, factor))
            elif dest is not None:
                self.perms.append((1 << i, dest, factor))
            else:
                self.others.append((1 << i, vmap, factor))
        self.rows: dict[tuple, tuple] = {}
        self.outcomes: dict[tuple, tuple[bool, tuple[Verdict, ...]]] = {}

    def row(self, e: tuple) -> tuple[int, tuple]:
        """(mask of the checks e fails alone, (bit, factor, image) for each
        permutation that moves e)."""
        mask = 0
        for bit, scale, factor in self.diagonals:
            if prod(map(pow, scale, e)) != factor:
                mask |= bit
        moves = []
        for bit, dest, factor in self.perms:
            image = tuple(map(e.__getitem__, dest))
            if image != e:
                moves.append((bit, factor, image))
            elif factor != 1:  # c_e == factor * c_e fails, c_e being nonzero
                mask |= bit
        return mask, tuple(moves)

    def failures(self, poly: dict) -> int:
        """The mask of the checks p(g X) == factor * p(X) fails."""
        rows, get = self.rows, poly.get
        fail = 0
        for e, coeff in poly.items():
            row = rows.get(e)
            if row is None:
                row = rows[e] = self.row(e)
            fail |= row[0]
            for bit, factor, image in row[1]:
                if factor * get(image, 0) != coeff:
                    fail |= bit
        for bit, vmap, factor in self.others:
            if acted(poly, vmap) != poly_scaled(poly, factor):
                fail |= bit
        return fail

    def outcome(self, poly: dict, first_ok: bool, *last_oks: bool) -> tuple:
        """(accept, verdict tuple) of poly's outcome, built on its first
        sight and shared from then on."""
        fail = self.failures(poly)
        key = (fail, first_ok) + last_oks
        out = self.outcomes.get(key)
        if out is None:
            verdicts: list[Verdict] = []
            _record(verdicts, self.first, first_ok)
            for i, (kind, note, _, _) in enumerate(self.suite):
                _record(verdicts, kind, not fail >> i & 1, note)
            for kind, ok in zip(self.last, last_oks):
                _record(verdicts, kind, ok)
            accept = all(v.passed for v in verdicts)
            out = self.outcomes[key] = (accept, tuple(verdicts))
        return out


# The suites depend only on the dimensions and the config, so a class sweep
# builds each once, with its table, and applies it to every member's
# expansion.


@lru_cache(maxsize=8)
def _perm_table(n: int, cfg: VerifyConfig) -> _Table:
    """The permanent's laws, each diagonal on both sides."""
    static, drawn = _laws("perm", (n,), True)
    rng = seeded("Pexh", n, cfg.seed)
    suite = [_check(law) for law in static]
    suite += [_check(law, mu) for mu in _diagonals(n, rng, cfg.box()) for law in drawn]
    return _Table(tuple(suite), P_NONZERO, (NORMALIZE,) * cfg.normalize)


@lru_cache(maxsize=8)
def _efun_table(m: int, k: int, cfg: VerifyConfig) -> _Table:
    """The E-function's laws: row additions at y = 1 and at a drawn y; the
    prime and drawn diagonals, or in literal mode -1 on rows 1 and 2."""
    corrected = cfg.det_factor_mode == "det-corrected"
    static, (*adds, diag) = _laws("efun", (m, k), corrected)
    rng, box = seeded("Eexh", m, k, cfg.seed), cfg.box()
    suite = [_check(law, y) for law in adds for y in (1, rand_point(rng, 1, box)[0])]
    if corrected:
        suite += [_check(diag, mu) for mu in _diagonals(m, rng, box)]
    elif m >= 2:
        suite.append(_check(diag, (-1, -1) + (1,) * (m - 2)))
    suite += [_check(law) for law in static]
    return _Table(tuple(suite), E_NONZERO, (E_PRIMARY_VANISH,) + (NORMALIZE,) * cfg.normalize)


# Each returns (accept, verdicts, notes).


def _exhaustive_perm(c: Circuit, n: int, cfg: VerifyConfig) -> tuple:
    poly = expand_to_polynomial(c, max_terms=MAX_TERMS)
    last = (poly_eval(poly, identity_point(n)) == 1,) if cfg.normalize else ()
    accept, verdicts = _perm_table(n, cfg).outcome(poly, bool(poly), *last)
    return accept, verdicts, (f"expansion terms={len(poly)}",)


def _exhaustive_efun(c: Circuit, m: int, k: int, cfg: VerifyConfig) -> tuple:
    poly = expand_to_polynomial(c, max_terms=MAX_TERMS)
    last = (not poly_subst_consts(poly, _primary_vanish_bindings(m, k)),)
    if cfg.normalize:
        last += (poly_eval(poly, unit_columns_point(m, k)) == 1,)
    accept, verdicts = _efun_table(m, k, cfg).outcome(poly, bool(poly), *last)
    return accept, verdicts, (f"expansion terms={len(poly)}",)


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
    return _verify_claims(c, "perm", (n,), cfg, _exhaustive_perm)


def verify_claims_efun(
    c: Circuit, m: int, k: int, cfg: VerifyConfig | None = None
) -> VerifyResult:
    """Decide whether c plausibly computes the (m, k) E-function."""
    cfg = cfg or VerifyConfig()
    require_row_law(m, cfg.det_factor_mode)
    notes: tuple[str, ...] = ()
    if k < 3:
        notes = ("sub-threshold k (characterization converse needs k >= 3)",)
    return _verify_claims(c, "efun", (m, k), cfg, _exhaustive_efun, notes)


_DIM_NAMES = {"perm": ("n",), "efun": ("m", "k")}


def _verify_claims(
    c: Circuit, target: str, dims: tuple, cfg: VerifyConfig, exhaustive, notes=()
) -> VerifyResult:
    """The body both verifiers share; `exhaustive` takes *dims first."""
    for name, d in zip(_DIM_NAMES[target], dims):
        if d < 1:
            raise UsageError(f"{target} dimension {name} must be at least 1, got {d}")
    want = dims[0] * prod(dims)  # n x n, or m x (k * m)
    if c.num_inputs != want:
        raise ArityMismatch(f"circuit takes {c.num_inputs} inputs, want {want}")
    bound, prog = 0.0, lower(c)
    if cfg.mode == "exhaustive":
        check_eval_budget(prog, cfg.sample_width + 1)  # 2^w, the box's widest entry
        accept, verdicts, more = exhaustive(c, *dims, cfg)
        queries = ()
    else:
        box = cfg.box()
        if cfg.ring == "exact":  # a suite's widest entry: a box entry times a drawn factor
            check_eval_budget(prog, 2 * box[1].bit_length())
        t = _template(target, dims, cfg.det_factor_mode, cfg.rounds, cfg.nonzero_count,
                      cfg.normalize)
        queries, columns, slots = _suite(t, cfg.seed, box)
        report = run_queries(c, queries, cfg.ring, cfg.prime_bits, cfg.prime_count,
                             cfg.seed, columns, slots, t.passes)
        accept, verdicts, more = report.accept, report.verdicts, (f"ring={report.mode}",)
        bound = sampled_error_bound(formal_degree(prog), box, cfg.rounds)
    # as VerifyResult._make builds
    return tuple.__new__(VerifyResult, (accept, cfg.mode, queries, tuple(verdicts), bound,
                                        notes + more))


# ---------------------------------------------------------------------------
# coefficient-space uniqueness


class NullspaceResult(NamedTuple):
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
    drawn diagonals.  A swap (factor 1) that moves a monomial ties its
    coefficient to its image's; a law the monomial fails alone kills its
    coefficient.  So the space is spanned by the sums over the orbits of
    the ties (union-find) that hold no killed monomial, ordered by their
    last monomial: Gauss-Jordan elimination's free columns.  The expected
    outcome is one dimension, spanned by the permanent's coefficient vector.
    """
    monomials = list(_monomials_up_to(n * n, n))
    index = {mono: i for i, mono in enumerate(monomials)}
    parent = list(range(len(monomials)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    # each monomial's row of the exhaustive suite: (kill mask, moves)
    table = _perm_table(n, VerifyConfig(mode="exhaustive", seed=seed))
    rows = [table.row(mono) for mono in monomials]
    for mi, (_, moves) in enumerate(rows):
        for _, factor, image in moves:
            assert factor == 1, "a permutation law with a factor ties no pair"
            parent[find(mi)] = find(index[image])
    dead = {find(mi) for mi, (mask, _) in enumerate(rows) if mask}
    orbits: dict[int, list[tuple[int, ...]]] = {}
    for mi, mono in enumerate(monomials):
        if find(mi) not in dead:
            orbits.setdefault(find(mi), []).append(mono)
    ordered = sorted(orbits.values(), key=lambda orbit: index[orbit[-1]])
    return NullspaceResult(
        dim=len(ordered),
        monomials=monomials,
        basis=[dict.fromkeys(orbit, Fraction(1)) for orbit in ordered],
        forced_zero=len(monomials) - sum(map(len, ordered)),
    )
