"""Set-family construction, counting, and binary labels.

Tiny counts are cross-checked by an independent product-scan recount;
the golden label bytes are derived by hand from the header layout.
"""
from __future__ import annotations

import hashlib
import itertools
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcert import designs
from flipcert.designs import (
    Design,
    DesignParams,
    build_design_greedy,
    count_designs_exhaustive,
    decode_design,
    encode_design,
    encoded_length,
    forced_intersection,
    verify_design,
)
from flipcert.errors import (
    BudgetExceeded,
    ConstructionFailed,
    MalformedEncoding,
    UsageError,
)


def _count_by_product(params: DesignParams) -> int:
    """Oracle recount: scan every ordered tuple of r-subsets directly."""
    subsets = list(itertools.combinations(range(1, params.l + 1), params.r))
    total = 0
    for rows in itertools.product(subsets, repeat=params.m_prime):
        if all(
            len(set(a) & set(b)) <= params.k_cap
            for a, b in itertools.combinations(rows, 2)
        ):
            total += 1
    return total


# ---------------------------------------------------------------------------
# parameters

def test_params_validation():
    with pytest.raises(UsageError):
        DesignParams(0, 4, 2, 1)
    with pytest.raises(UsageError):
        DesignParams(1, 4, 0, 1)
    with pytest.raises(UsageError):
        DesignParams(1, 2, 3, 1)  # r > l
    with pytest.raises(UsageError):
        DesignParams(1, 4, 2, -1)
    # k_cap >= r is degenerate but legal
    DesignParams(2, 2, 1, 1)


def test_from_provenance():
    p = DesignParams.from_provenance(16, 1, 2, 6)
    assert p == DesignParams(16, 24, 8, 4)
    with pytest.raises(UsageError):
        DesignParams.from_provenance(16, 0, 2, 6)
    with pytest.raises(UsageError):
        DesignParams.from_provenance(16, 2, 2, 6)  # needs c < a
    with pytest.raises(UsageError, match="base size m must be >= 2"):
        DesignParams.from_provenance(1, 1, 2, 6)


def test_forced_intersection():
    assert forced_intersection(DesignParams(2, 6, 3, 1)) == 0
    assert forced_intersection(DesignParams(2, 4, 3, 2)) == 2
    assert forced_intersection(DesignParams(2, 2, 1, 0)) == 0


def test_row_sets_are_one_indexed():
    d = Design(DesignParams(2, 4, 2, 1), (0b0011, 0b1100))
    assert d.row_sets() == (frozenset({1, 2}), frozenset({3, 4}))


# ---------------------------------------------------------------------------
# verification

def test_verify_accepts_hand_design():
    d = Design(DesignParams(3, 4, 2, 1), (0b0011, 0b0101, 0b0110))
    assert verify_design(d) is None


def test_verify_row_count():
    d = Design(DesignParams(3, 4, 2, 1), (0b0011,))
    v = verify_design(d)
    assert v is not None and v.kind == "row-count"


def test_verify_universe():
    d = Design(DesignParams(1, 4, 2, 1), (0b10001,))  # bit 4 is element 5
    v = verify_design(d)
    assert v is not None and v.kind == "universe" and v.index == 0


def test_verify_cardinality():
    d = Design(DesignParams(1, 4, 2, 1), (0b0111,))
    v = verify_design(d)
    assert v is not None and v.kind == "cardinality" and v.index == 0


def test_verify_intersection_reports_first_pair():
    d = Design(DesignParams(3, 6, 3, 1), (0b000111, 0b001011, 0b110001))
    v = verify_design(d)
    assert v is not None
    assert v.kind == "intersection"
    assert v.pair == (0, 1)
    assert "> 1" in v.detail


def _first_pair_by_scan(d: Design):
    """Reference: the first (i, j) in canonical scan order whose rows share
    more than k_cap elements."""
    for i, j in itertools.combinations(range(len(d.rows)), 2):
        if bin(d.rows[i] & d.rows[j]).count("1") > d.params.k_cap:
            return i, j
    return None


@st.composite
def _designs_around_the_threshold(draw):
    """Rows of the right size from a small universe, k_cap from 0 to r + 1,
    and a row count on the scan side or the map side of the overlap rule's
    threshold; returned with whether it is the map side."""
    l = draw(st.integers(1, 6))
    r = draw(st.integers(1, l))
    k_cap = draw(st.integers(0, r + 1))
    threshold = designs._MAP_RATIO * comb(r, k_cap + 1)
    mapped = threshold <= 1 or draw(st.booleans())
    m = draw(st.integers(max(threshold, 1), threshold + 12) if mapped
             else st.integers(1, threshold - 1))
    pool = [sum(1 << e for e in c) for c in itertools.combinations(range(l), r)]
    rows = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    return Design(DesignParams(m, l, r, k_cap), tuple(rows)), mapped


@settings(max_examples=300, deadline=None)
@given(_designs_around_the_threshold())
def test_verify_matches_the_pair_scan(case):
    # verify's one pass reports the brute-force scan's first pair and its
    # detail, whether the overlap rule maps subsets or scans rows
    d, mapped = case
    assert (designs._Placed(d.params).first is not None) == mapped
    pair = _first_pair_by_scan(d)
    v = verify_design(d)
    if pair is None:
        assert v is None
    else:
        i, j = pair
        inter = bin(d.rows[i] & d.rows[j]).count("1")
        assert v == designs.DesignViolation(
            "intersection", pair=pair, detail=f"|T_{i} & T_{j}| = {inter} > {d.params.k_cap}")


def test_distinct_rows_rule_prefers_the_least_first_index():
    # rows A B B A: the pair (0, 3) comes before (1, 2) in scan order
    d = Design(DesignParams(4, 4, 2, 1), (0b0011, 0b0101, 0b0101, 0b0011))
    assert verify_design(d).pair == (0, 3)


# ---------------------------------------------------------------------------
# construction

def test_build_simple():
    d = build_design_greedy(DesignParams(3, 4, 2, 1))
    assert verify_design(d) is None


def test_build_deterministic():
    p = DesignParams(4, 9, 3, 1)
    assert build_design_greedy(p, seed=7) == build_design_greedy(p, seed=7)


def test_build_needs_backtracking():
    # greedy dead-ends on this one; the exhaustive fallback finds
    # the unique-up-to-relabeling solution {123}{145}{246}{356}
    d = build_design_greedy(DesignParams(4, 6, 3, 1))
    assert verify_design(d) is None
    assert len(set(d.rows)) == 4


def test_build_pigeonhole_fast_fail():
    with pytest.raises(ConstructionFailed) as ei:
        build_design_greedy(DesignParams(2, 4, 3, 1))
    assert ei.value.rows_achieved == 0
    assert "exceeds k_cap" in str(ei.value)


def test_single_row_ignores_pair_constraint():
    # pigeonhole bound only binds for two or more rows
    d = build_design_greedy(DesignParams(1, 4, 3, 1))
    assert verify_design(d) is None


def test_build_infeasible_proved_by_backtracking():
    with pytest.raises(ConstructionFailed) as ei:
        build_design_greedy(DesignParams(6, 6, 3, 1))
    assert ei.value.rows_achieved == 4


@pytest.mark.parametrize(
    "params, rows",
    [
        (DesignParams(4, 6, 3, 1), (7, 25, 42, 52)),
        (DesignParams(6, 7, 3, 1), (7, 25, 97, 42, 82, 76)),
    ],
)
def test_fallback_designs_frozen(monkeypatch, params, rows):
    # with no greedy attempts the backtracking fallback builds the design
    monkeypatch.setattr(designs, "_ATTEMPTS", 0)
    assert build_design_greedy(params, seed=0).rows == rows


def test_backtracking_failure_frozen(monkeypatch):
    with pytest.raises(ConstructionFailed) as ei:
        build_design_greedy(DesignParams(5, 6, 3, 1), seed=0)
    assert str(ei.value) == (
        "no design found (backtracking over 20 rows, 33220 nodes, best 4 rows)")
    assert ei.value.rows_achieved == 4
    # the node cap counts every candidate tried
    monkeypatch.setattr(designs, "_ATTEMPTS", 0)
    monkeypatch.setattr(designs, "_BACKTRACK_NODES", 50)
    with pytest.raises(ConstructionFailed) as ei:
        build_design_greedy(DesignParams(6, 7, 3, 1), seed=0)
    assert str(ei.value) == (
        "no design found (backtracking over 35 rows, 50 nodes, best 4 rows)")
    assert ei.value.rows_achieved == 4
    # (4, 6, 3, 1)'s design is the 43rd candidate tried
    monkeypatch.setattr(designs, "_BACKTRACK_NODES", 43)
    assert build_design_greedy(DesignParams(4, 6, 3, 1)).rows == (7, 25, 42, 52)
    monkeypatch.setattr(designs, "_BACKTRACK_NODES", 42)
    with pytest.raises(ConstructionFailed) as ei:
        build_design_greedy(DesignParams(4, 6, 3, 1))
    assert str(ei.value) == (
        "no design found (backtracking over 20 rows, 42 nodes, best 3 rows)")


def test_build_gives_up_past_the_backtracking_universe():
    # three disjoint 15-subsets of a 30-universe do not exist, the fast
    # checks do not see it, and C(30, 15) rows are too many to backtrack over
    with pytest.raises(ConstructionFailed) as ei:
        build_design_greedy(DesignParams(3, 30, 15, 0), seed=0)
    assert str(ei.value) == "stuck after 1 rows (randomized attempts exhausted)"
    assert ei.value.rows_achieved == 1


def test_backtracking_cap_falls_at_the_end_of_a_level(monkeypatch):
    # (3, 4, 2, 0): rows {0,1} then {2,3} leave the third level no candidate;
    # closing it counts its 6 skipped rows, 7 + 6 nodes, past the cap of 10
    monkeypatch.setattr(designs, "_ATTEMPTS", 0)
    monkeypatch.setattr(designs, "_BACKTRACK_NODES", 10)
    with pytest.raises(ConstructionFailed) as ei:
        build_design_greedy(DesignParams(3, 4, 2, 0))
    assert str(ei.value) == (
        "no design found (backtracking over 6 rows, 10 nodes, best 2 rows)")


def test_distinct_rows_design_label_frozen():
    # k_cap = r - 1 admits a row by set membership; the label is the bytes
    # the row-by-row intersection scan gave
    d = build_design_greedy(DesignParams(12, 6, 3, 2), seed=3)
    assert encode_design(d).hex() == "000c000600030002aa6a632c7c5957495a"


def test_distinct_rows_design_builds_fast():
    # 12,000 of the 12,870 8-subsets of 16; a pair scan took minutes
    p = DesignParams(12000, 16, 8, 7)
    t0 = time.monotonic()
    d = build_design_greedy(p)
    assert len(set(d.rows)) == 12000
    assert verify_design(d) is None
    assert verify_design(Design(p, d.rows[:-1] + d.rows[:1])).pair == (0, 11999)
    assert time.monotonic() - t0 < 10.0


@pytest.mark.parametrize(
    "fields, seed, label",
    [
        # the overlap rule maps subsets: 8 C(r, k_cap+1) <= m'
        ((30, 7, 3, 2), 1,
         "001e0007000300022d49c640e2ea628b6192c4695a31e1a06c32698acc958474652a80"),
        ((5, 4, 2, 3), 0, "0005000400020003a9ac60"),
        ((16, 40, 2, 0), 0,
         "sha256:c918190f876790f23354eb9a2a9f4df69dabe814f4690f7cf222b5a2cfcec2c5"),
        ((800, 20, 6, 4), 0,
         "sha256:e97dbe372bcb431c4dec435fc682cf2cf44195f7704739b9fa60266bcb13baea"),
        # it scans the rows
        ((6, 9, 3, 1), 2, "0006000900030001312c20c0dc4504"),
        ((30, 12, 4, 2), 0, "001e000c00040002a14928a880d830c42a382232134341852c094c40968450a9903984"
                            "431c8271044301b605a210e2146d4024a191"),
        ((60, 24, 8, 4), 0,
         "sha256:272fee15b8f96ebbf0fc7c66a9e2b2edc720a3e46809dfd0dfbc163b1231d41a"),
    ],
)
def test_built_labels_frozen(fields, seed, label):
    # labels built while the admission was three rules (the first draw when
    # k_cap >= r, a set of rows when k_cap = r - 1, a pair scan otherwise)
    got = encode_design(build_design_greedy(DesignParams(*fields), seed=seed))
    if label.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(got).hexdigest() == label
    else:
        assert got.hex() == label


def test_provenance_instance_builds_fast():
    p = DesignParams.from_provenance(16, 1, 2, 6)
    t0 = time.monotonic()
    d = build_design_greedy(p)
    elapsed = time.monotonic() - t0
    assert verify_design(d) is None
    assert elapsed < 10.0
    assert len(encode_design(d)) == 56


# ---------------------------------------------------------------------------
# counting

TINY_COUNTS = [
    (DesignParams(2, 2, 1, 0), 2),
    (DesignParams(2, 2, 1, 1), 4),
    (DesignParams(1, 6, 3, 3), 20),
    (DesignParams(2, 4, 2, 1), 30),
]


@pytest.mark.parametrize("params,expected", TINY_COUNTS)
def test_tiny_counts_frozen(params, expected):
    assert count_designs_exhaustive(params) == expected


@pytest.mark.parametrize("params,expected", TINY_COUNTS)
def test_tiny_counts_against_recount(params, expected):
    assert _count_by_product(params) == expected


@pytest.mark.parametrize(
    "params, expected",
    [
        (DesignParams(3, 6, 3, 1), 720),
        (DesignParams(3, 7, 3, 1), 9_450),
        (DesignParams(4, 6, 3, 2), 116_280),
    ],
)
def test_counts_frozen(params, expected):
    assert count_designs_exhaustive(params) == expected


def test_count_single_row_is_binomial():
    assert count_designs_exhaustive(DesignParams(1, 4, 2, 2)) == comb(4, 2)


def test_count_invariant_under_relabeling():
    # permuting the universe maps valid designs to valid designs bijectively
    params = DesignParams(2, 4, 2, 1)
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    subsets = list(itertools.combinations(range(1, 5), 2))
    valid = [
        rows
        for rows in itertools.product(subsets, repeat=2)
        if len(set(rows[0]) & set(rows[1])) <= 1
    ]
    relabeled = {
        tuple(tuple(sorted(perm[e] for e in row)) for row in rows)
        for rows in valid
    }
    assert len(relabeled) == len(valid) == count_designs_exhaustive(params)
    assert all(
        len(set(rows[0]) & set(rows[1])) <= 1 for rows in relabeled
    )


def test_count_budget():
    with pytest.raises(BudgetExceeded):
        count_designs_exhaustive(DesignParams(8, 24, 8, 4), budget=1000)


# ---------------------------------------------------------------------------
# binary labels

def test_label_golden_bytes():
    # header >HHHH then row bits MSB-first, element j at bit position j-1
    d = Design(DesignParams(1, 2, 1, 1), (0b01,))
    label = encode_design(d)
    assert label == bytes.fromhex("000100020001000180")
    assert decode_design(label) == d


def test_encoded_length():
    assert encoded_length(DesignParams(16, 24, 8, 4)) == 8 + 48
    assert encoded_length(DesignParams(1, 6, 3, 3)) == 8 + 1


def test_roundtrip_hundred_built_designs():
    cases = 0
    for l, r, k_cap in [(6, 3, 2), (8, 3, 1), (9, 4, 2), (7, 2, 1), (10, 5, 3)]:
        for m_prime in (1, 2, 3, 4):
            for seed in range(5):
                d = build_design_greedy(DesignParams(m_prime, l, r, k_cap), seed=seed)
                assert decode_design(encode_design(d)) == d
                cases += 1
    assert cases == 100


def test_decode_truncated():
    label = encode_design(build_design_greedy(DesignParams(2, 6, 3, 2)))
    with pytest.raises(MalformedEncoding):
        decode_design(label[:-1])
    with pytest.raises(MalformedEncoding):
        decode_design(label[:4])
    with pytest.raises(MalformedEncoding):
        decode_design(b"")


def test_decode_extended():
    label = encode_design(build_design_greedy(DesignParams(2, 6, 3, 2)))
    with pytest.raises(MalformedEncoding):
        decode_design(label + b"\x00")


def test_decode_bad_header():
    import struct

    body = b"\x00"
    with pytest.raises(MalformedEncoding):
        decode_design(struct.pack(">HHHH", 0, 4, 2, 1) + body)
    with pytest.raises(MalformedEncoding):
        decode_design(struct.pack(">HHHH", 1, 2, 3, 0) + body)


def test_decode_nonzero_padding():
    d = build_design_greedy(DesignParams(1, 6, 3, 3))
    label = bytearray(encode_design(d))
    label[-1] |= 1  # last two bits of the body byte are padding
    with pytest.raises(MalformedEncoding):
        decode_design(bytes(label))


@pytest.mark.parametrize("l", range(1, 8))
def test_decode_rejects_every_padding_bit(l):
    # one row of l bits leaves 8 - l padding bits; each one alone is refused
    label = encode_design(Design(DesignParams(1, l, 1, 0), (1,)))
    assert decode_design(label).rows == (1,)
    for bit in range(8 - l):
        bad = label[:-1] + bytes([label[-1] | 1 << bit])
        with pytest.raises(MalformedEncoding, match="nonzero padding bits"):
            decode_design(bad)


def test_decode_is_structural_not_semantic():
    # labels with constraint-violating rows decode fine; verify flags them
    bad = Design(DesignParams(2, 4, 2, 0), (0b0011, 0b0011))
    back = decode_design(encode_design(bad))
    assert back == bad
    v = verify_design(back)
    assert v is not None and v.kind == "intersection"


def test_encode_u16_overflow():
    # a field past the u16 label header is refused when the parameters are
    # made, before any design is built
    for fields in ((70000, 4, 2, 1), (1, 70000, 2, 1), (1, 70000, 70000, 1),
                   (1, 4, 2, 70000)):
        with pytest.raises(UsageError, match="does not fit the u16 header"):
            DesignParams(*fields)
    encode_design(Design(DesignParams(0xFFFF, 1, 1, 0xFFFF), (1,) * 0xFFFF))


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=40))
def test_decode_encode_bijective_on_valid_labels(data):
    try:
        d = decode_design(data)
    except MalformedEncoding:
        return
    assert encode_design(d) == data
