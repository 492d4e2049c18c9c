"""Set-system designs: m' subsets of a size-l universe, each of size r,

pairwise intersecting in at most k_cap elements.

Rows are stored as bitmasks over the universe {0, ..., l-1}.  The build and
the check share one overlap rule (_Placed): two r-subsets share more than
k_cap elements iff they share a (k_cap+1)-subset.  The binary label format
is a fixed header of four big-endian u16 fields (m', l, r, k_cap) followed
by the row-major incidence bitmatrix, MSB-first within each byte,
zero-padded to a byte boundary; the codec converts the whole bitmatrix to
and from one integer.  Decoding is strict: wrong length, header values that
violate the parameter constraints, or nonzero padding all fail
structurally; set-system violations (wrong cardinality, oversized
intersection) are the verifier's business, not the decoder's.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .errors import BudgetExceeded, ConstructionFailed, MalformedEncoding, UsageError
from .util import seeded


@dataclass(frozen=True)
class DesignParams:
    m_prime: int
    l: int
    r: int
    k_cap: int

    def __post_init__(self):
        # k_cap >= r is degenerate (no pair constraint binds) but legal.
        if self.m_prime < 1:
            raise UsageError("need at least one row")
        if not 1 <= self.r <= self.l:
            raise UsageError(f"need 1 <= r <= l, got r={self.r} l={self.l}")
        if self.k_cap < 0:
            raise UsageError(f"need k_cap >= 0, got {self.k_cap}")
        for v in (self.m_prime, self.l, self.r, self.k_cap):
            if v > 0xFFFF:
                raise UsageError(f"field {v} does not fit the u16 header")

    @staticmethod
    def from_provenance(m: int, c: int, a: int, b: int):
        """Parameters scaled from a base size m with exponents 0 < c < a < b:

        t = ceil(log2 m), m' = m^c, r = a*t, l = b*t, k_cap = c*t."""
        if not 0 < c < a < b:
            raise UsageError(f"need 0 < c < a < b, got ({c}, {a}, {b})")
        if m < 2:
            raise UsageError("base size m must be >= 2")
        t = max(1, math.ceil(math.log2(m)))
        return DesignParams(m_prime=m**c, l=b * t, r=a * t, k_cap=c * t)


class Design(NamedTuple):
    params: DesignParams
    rows: tuple[int, ...]

    def row_sets(self) -> tuple[frozenset[int], ...]:
        """Rows as subsets of the 1-indexed universe {1, ..., l}."""
        return tuple(
            frozenset(j + 1 for j in range(self.params.l) if row >> j & 1)
            for row in self.rows
        )


class DesignViolation(NamedTuple):
    kind: str  # "row-count" | "universe" | "cardinality" | "intersection"
    index: int | None = None
    pair: tuple[int, int] | None = None
    detail: str = ""


def verify_design(d: Design) -> DesignViolation | None:
    """First violation in canonical scan order, or None if valid, in one
    pass: of each row j's least earlier partner i, the least (i, j) is the
    pair scan's first violating pair (i first, then j)."""
    p = d.params
    if len(d.rows) != p.m_prime:
        return DesignViolation(
            "row-count", detail=f"{len(d.rows)} rows, expected {p.m_prime}"
        )
    full = (1 << p.l) - 1
    placed = _Placed(p)
    pair = None
    for j, row in enumerate(d.rows):
        if row & ~full:
            return DesignViolation(
                "universe", index=j, detail="element outside the universe"
            )
        if row.bit_count() != p.r:
            return DesignViolation(
                "cardinality", index=j, detail=f"|T_{j}| = {row.bit_count()}, expected {p.r}"
            )
        bits, rest = [], row  # its one-bit masks, lowest first: O(r), not O(l)
        while rest:
            bits.append(rest & -rest)
            rest &= rest - 1
        i = placed.partner(bits, always=True)
        if i is not None and (pair is None or i < pair[0]):
            pair = (i, j)
    if pair is None:
        return None
    i, j = pair
    inter = (d.rows[i] & d.rows[j]).bit_count()
    return DesignViolation("intersection", pair=pair,
                           detail=f"|T_{i} & T_{j}| = {inter} > {p.k_cap}")


# _Placed maps subsets when _MAP_RATIO * C(r, k_cap+1) <= m' and scans
# otherwise: on valid designs at (l, r, k_cap) = (30, 5, 2), (30, 6, 3) and
# (40, 8, 5), verify and build alike, the scan was faster at m' = 4 C, even
# within 25% at 8 C, and slower from 16 C on (2-core host, Python 3.11.7).
_MAP_RATIO = 8


class _Placed:
    """The rows placed so far, and the one overlap rule: two r-subsets share
    more than k_cap elements iff they share a (k_cap+1)-subset.  A row has
    C(r, k_cap+1) of these (none if k_cap >= r, itself if k_cap = r - 1); if
    few against m', a map of each to its first holder gives a row's least
    partner, and otherwise the placed rows are scanned in order."""

    def __init__(self, params: DesignParams):
        self.k_cap = params.k_cap
        self.rows: list[int] = []
        mapped = _MAP_RATIO * math.comb(params.r, params.k_cap + 1) <= params.m_prime
        self.first: dict[int, int] | None = {} if mapped else None

    def partner(self, bits: list[int], always: bool) -> int | None:
        """Least index of a placed row sharing more than k_cap elements with
        the row sum(bits), or None; places the row if always or it has none."""
        row = sum(bits)
        n = i = len(self.rows)
        if self.first is None:
            i = next((i for i, prev in enumerate(self.rows)
                      if (prev & row).bit_count() > self.k_cap), n)
        else:
            subsets = [sum(c) for c in combinations(bits, self.k_cap + 1)]
            # setdefault places each subset while it looks it up
            look = self.first.setdefault if always else self.first.get
            for s in subsets:
                h = look(s, n)
                if h < i:
                    i = h
            if i == n and not always:
                self.first.update(dict.fromkeys(subsets, n))
        if always or i == n:
            self.rows.append(row)
        return None if i == n else i


def forced_intersection(params: DesignParams) -> int:
    """Any two r-subsets of an l-universe share at least 2r - l elements."""
    return max(0, 2 * params.r - params.l)


def _all_rows(params: DesignParams) -> list[int]:
    """Every r-subset of the universe as a bitmask, in combinations order."""
    combos = combinations(range(params.l), params.r)
    return [sum(1 << j for j in combo) for combo in combos]


# build_design_greedy's search effort: random draws per row, whole greedy
# builds, the largest C(l, r) row universe the backtracking fallback
# enumerates, and the node cap of that search
_RESTARTS = 500
_ATTEMPTS = 8
_EXHAUSTIVE_CAP = 200_000
_BACKTRACK_NODES = 500_000


def build_design_greedy(params: DesignParams, seed: int = 0) -> Design:
    """Row-by-row randomized construction.

    Greedy choice can dead-end even when a design exists (it does for
    m'=4, l=6, r=3, k_cap=1), so the whole build is retried _ATTEMPTS
    times and, for universes small enough to enumerate, a deterministic
    backtracking search runs last.  ConstructionFailed carries the best
    row count achieved.  The pigeonhole bound 2r - l > k_cap fails fast, as
    do more rows than r-subsets when k_cap < r (a repeated row meets itself
    in r).  A draw is admitted when it has no partner under the one overlap
    rule verify_design also uses (_Placed): no chosen row shares a
    (k_cap+1)-subset with it.
    """
    if params.m_prime >= 2 and forced_intersection(params) > params.k_cap:
        raise ConstructionFailed(
            f"2r - l = {2 * params.r - params.l} exceeds k_cap = {params.k_cap}",
            rows_achieved=0,
        )
    universe = math.comb(params.l, params.r)
    if params.k_cap < params.r and params.m_prime > universe:
        raise ConstructionFailed(
            f"{params.m_prime} distinct rows exceed C({params.l}, {params.r}) = {universe}")
    rng = seeded("design", seed, params.m_prime, params.l, params.r, params.k_cap)

    best = 0
    for _ in range(_ATTEMPTS):
        placed = _Placed(params)
        rows = placed.rows
        while len(rows) < params.m_prime:
            for _ in range(_RESTARTS):
                bits = [1 << j for j in rng.sample(range(params.l), params.r)]
                if placed.partner(bits, always=False) is None:
                    break
            else:
                break
        best = max(best, len(rows))
        if len(rows) == params.m_prime:
            break
    else:
        if universe > _EXHAUSTIVE_CAP:
            raise ConstructionFailed(
                f"stuck after {best} rows (randomized attempts exhausted)",
                rows_achieved=best,
            )
        designs, nodes, deepest, rows = _backtrack(params, True, _BACKTRACK_NODES)
        best = max(best, deepest)
        if not designs:
            raise ConstructionFailed(
                f"no design found (backtracking over {universe} rows, "
                f"{nodes} nodes, best {best} rows)",
                rows_achieved=best,
            )
    d = Design(params, tuple(rows))
    violation = verify_design(d)
    if violation is not None:
        raise AssertionError(f"builder produced an invalid design: {violation}")  # unreachable: same overlap rule
    return d


def count_designs_exhaustive(params: DesignParams, budget: int = 5_000_000) -> int:
    """Number of ordered row tuples forming a valid design, by backtracking.

    The crude upper estimate C(l, r)^m' is checked against the budget before
    any work happens, one factor at a time, so no power past the budget is
    built.
    """
    if budget < 1:
        raise UsageError(f"budget must be at least 1, got {budget}")
    rows = math.comb(params.l, params.r)
    est = 1
    for _ in range(params.m_prime):
        est *= rows
        if est > budget:
            raise BudgetExceeded(
                f"estimated search space C({params.l}, {params.r})^{params.m_prime}"
                f" = {rows}^{params.m_prime} exceeds budget {budget}"
            )
    return _backtrack(params, False, math.inf)[0]


def _backtrack(params: DesignParams, first: bool, node_cap: float) -> tuple:
    """(designs found, candidates tried, deepest level, rows held) of a
    depth-first search over tuples of _all_rows admissible in order, stopping
    at the first design when `first` and after node_cap candidates.  A level
    scans the candidates admissible against the rows above it (indices into
    all_rows) and counts the others it skips as tried.  The levels live on
    an explicit stack, so m' is not limited by Python's recursion depth."""
    all_rows, k_cap = _all_rows(params), params.k_cap
    rows: list[int] = []
    found = nodes = deepest = 0
    # one frame per level: [candidates, next position, candidates tried]
    stack = [[list(range(len(all_rows))), 0, 0]]
    while stack:
        frame = stack[-1]
        cands, pos, tried = frame
        if pos == len(cands):
            nodes += len(all_rows) - tried
            if nodes > node_cap:
                break
            stack.pop()
            if stack:
                rows.pop()  # the row that opened this level
            continue
        i = cands[pos]
        frame[1], frame[2] = pos + 1, i + 1
        nodes += i + 1 - tried
        if nodes > node_cap:  # the cap fell before candidate i
            break
        row = all_rows[i]
        rows.append(row)
        deepest = max(deepest, len(rows))
        if len(rows) == params.m_prime:
            found += 1
            if first:
                break
            rows.pop()
        else:
            admissible = [j for j in cands if (all_rows[j] & row).bit_count() <= k_cap]
            stack.append([admissible, 0, 0])
    return found, min(nodes, node_cap), deepest, rows


# ---------------------------------------------------------------------------
# binary labels

_HEADER = struct.Struct(">HHHH")


def encoded_length(params: DesignParams) -> int:
    return _HEADER.size + (params.m_prime * params.l + 7) // 8


def encode_design(d: Design) -> bytes:
    p = d.params
    full = (1 << p.l) - 1  # bits past the universe are not encoded
    bits = "".join(format(row & full, f"0{p.l}b")[::-1] for row in d.rows)
    nbytes = encoded_length(p) - _HEADER.size
    body = int(bits.ljust(8 * nbytes, "0"), 2).to_bytes(nbytes, "big")
    return _HEADER.pack(p.m_prime, p.l, p.r, p.k_cap) + body


def decode_design(data: bytes) -> Design:
    if len(data) < _HEADER.size:
        raise MalformedEncoding("label shorter than the fixed header")
    m_prime, l, r, k_cap = _HEADER.unpack_from(data)
    try:
        params = DesignParams(m_prime, l, r, k_cap)
    except UsageError as e:
        raise MalformedEncoding(f"header violates parameter constraints: {e}") from None
    if len(data) != encoded_length(params):
        raise MalformedEncoding(
            f"label length {len(data)}, expected {encoded_length(params)}"
        )
    body = int.from_bytes(data[_HEADER.size :], "big")
    pad = 8 * (len(data) - _HEADER.size) - m_prime * l
    if body & ((1 << pad) - 1):
        raise MalformedEncoding("nonzero padding bits")
    bits = format(body >> pad, f"0{m_prime * l}b")
    rows = [int(bits[i : i + l][::-1], 2) for i in range(0, m_prime * l, l)]
    return Design(params, tuple(rows))
