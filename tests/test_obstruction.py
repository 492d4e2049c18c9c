"""Certificates: derivation, file form, decoding, and the property harness.

The query/point counts and the det(2) decode result below were measured
once on the fixed toy instance (4 rows over a 6-element universe, 4 seed
bits, committed truth table seed 0) and are frozen; derivation is
deterministic so they must reproduce exactly.
"""
from __future__ import annotations

import hashlib
import weakref
from itertools import product

import pytest

from circuit_ops import circuit_from_ops
from flipcert.builders import det_circuit, perm_circuit
from flipcert.circuits import (
    evaluate,
    expand_to_polynomial,
    lower,
    poly_eval,
    poly_max_var_degree,
    poly_sub,
    run_many,
)
from flipcert.config import format_config, parse_config
from flipcert.designs import Design, DesignParams, build_design_greedy
from flipcert.errors import (
    BudgetExceeded,
    InvalidDesign,
    MalformedEncoding,
    NoFailingQuery,
    StaleCertificate,
    TargetComputable,
    UsageError,
)
from flipcert import obstruction
from flipcert.obstruction import (
    CertConfig,
    ObstructionCertificate,
    decode_counterexample,
    derive_certificate,
    harness_F,
    parse_certificate,
    random_truth_table,
    serialize_certificate,
    trivial_obstruction_table,
)
from flipcert.pit import EnumeratedClass, ExplicitClass
from flipcert.symtests import gen_queries_perm, query_verdict
from flipcert.util import derive_seed

TOY_PARAMS = DesignParams(4, 6, 3, 1)
TOY_TABLE = random_truth_table(3, 0)


def toy_design() -> Design:
    return build_design_greedy(TOY_PARAMS)


def toy_config(**overrides) -> CertConfig:
    base = dict(target="perm", n=2, bound=3, seed_bits=4, truth_table=TOY_TABLE)
    base.update(overrides)
    return CertConfig(**base)


# ---------------------------------------------------------------------------
# config dataclass

def test_config_target_validation():
    with pytest.raises(UsageError):
        CertConfig(target="perm", n=2, m=1)
    with pytest.raises(UsageError):
        CertConfig(target="efun", m=1, k=1)
    with pytest.raises(UsageError):
        CertConfig(target="det", n=2)
    with pytest.raises(UsageError, match="no row law at m = 1"):
        CertConfig(target="efun", m=1, k=2, det_factor_mode="literal")


def test_config_range_validation():
    with pytest.raises(UsageError):
        toy_config(bound=0)
    with pytest.raises(UsageError):
        toy_config(seed_bits=21)
    with pytest.raises(UsageError):
        toy_config(rounds_per_tape=0)
    with pytest.raises(UsageError):
        toy_config(nonzero_count=-1)
    with pytest.raises(UsageError):
        toy_config(sample_width=0)
    with pytest.raises(UsageError, match="sample width must be 1..1024, got 1025"):
        toy_config(sample_width=1025)
    with pytest.raises(UsageError, match="sample band must be >= 0, got -1"):
        toy_config(band=-1)
    with pytest.raises(UsageError, match="unknown regime 'depth'"):
        toy_config(regime="depth")
    with pytest.raises(UsageError):
        toy_config(det_factor_mode="magic")
    with pytest.raises(UsageError):
        toy_config(truth_table=(0, 2))


def test_config_box_is_banded():
    cfg = toy_config(sample_width=4, band=0)
    assert cfg.box() == (1, 16)
    assert toy_config(sample_width=4, band=3).box() == (49, 64)
    assert toy_config(sample_width=1024).box() == (1, 1 << 1024)


def test_config_labels_and_vars():
    assert toy_config().target_label() == "perm(2)"
    assert toy_config().num_vars() == 4
    ef = CertConfig(target="efun", m=2, k=3, truth_table=TOY_TABLE)
    assert ef.target_label() == "efun(2,3)"
    assert ef.num_vars() == 12


def test_config_pairs_roundtrip():
    cfg = toy_config(normalize=False, band=2)
    back = CertConfig.from_pairs(parse_config(format_config(cfg.pairs())))
    assert back == cfg


def test_config_from_pairs_strict():
    good = {k: ("true" if v is True else "false" if v is False else str(v))
            for k, v in toy_config().pairs().items()}
    missing = dict(good)
    del missing["band"]
    with pytest.raises(MalformedEncoding):
        CertConfig.from_pairs(missing)
    extra = dict(good, surplus="1")
    with pytest.raises(MalformedEncoding):
        CertConfig.from_pairs(extra)
    bad = dict(good, bound="many")
    with pytest.raises(MalformedEncoding):
        CertConfig.from_pairs(bad)


def test_random_truth_table():
    assert random_truth_table(3, 0) == random_truth_table(3, 0)
    assert len(random_truth_table(5, 1)) == 32
    assert set(random_truth_table(4, 2)) <= {0, 1}
    with pytest.raises(UsageError):
        random_truth_table(21)


# ---------------------------------------------------------------------------
# derivation

def test_derive_frozen_counts():
    cert = derive_certificate(toy_design(), toy_config())
    assert len(cert.queries) == 41
    assert len(cert.points) == 49
    assert cert.label_bits() == 88


def test_derive_deterministic():
    texts = {
        serialize_certificate(derive_certificate(toy_design(), toy_config()))
        for _ in range(5)
    }
    assert len(texts) == 1


def test_derive_query_budget():
    # 16 seeds, at most 10 queries per tape for this config
    cert = derive_certificate(toy_design(), toy_config())
    assert len(cert.queries) <= 160
    assert max(len(q.points) for q in cert.queries) <= 2


def test_derive_efun_frozen_counts():
    cfg = CertConfig(target="efun", m=1, k=2, bound=8, seed_bits=4,
                     truth_table=TOY_TABLE)
    cert = derive_certificate(toy_design(), cfg)
    assert len(cert.queries) == 33
    assert len(cert.points) == 41


def test_derive_rejects_invalid_design():
    bad = Design(TOY_PARAMS, (7, 7, 7, 7))
    with pytest.raises(InvalidDesign):
        derive_certificate(bad, toy_config())


def test_derive_rejects_oversized_seed():
    with pytest.raises(UsageError):
        derive_certificate(toy_design(), toy_config(seed_bits=7))


def test_derive_rejects_wrong_table_length():
    with pytest.raises(UsageError):
        derive_certificate(toy_design(), toy_config(truth_table=(0, 1, 1, 0)))


# the design `gen-design --l 24 --r 3 --kcap 1 --rows 4` writes: 4,096 seeds
# at 12 seed bits, and at most 2^4 tapes
WIDE_DESIGN = build_design_greedy(DesignParams(4, 24, 3, 1))


def _tape_by_seed(design: Design, table: tuple, seed_bits: int, seed: int) -> int:
    """One seed's tape as an integer, bit i from row i, read seed by seed."""
    tape = 0
    for i, row in enumerate(design.rows):
        positions = [pos for pos in range(design.params.l) if row >> pos & 1]
        idx = sum((seed >> pos & 1) << j for j, pos in enumerate(positions) if pos < seed_bits)
        tape |= table[idx] << i
    return tape


def test_derive_runs_the_generator_once_per_distinct_tape(monkeypatch):
    seeds = []

    def counted(*args, seed, **kwargs):
        seeds.append(seed)
        return gen_queries_perm(*args, seed=seed, **kwargs)

    monkeypatch.setattr(obstruction, "gen_queries_perm", counted)
    derive_certificate(WIDE_DESIGN, toy_config(seed_bits=12))
    tapes = {_tape_by_seed(WIDE_DESIGN, TOY_TABLE, 12, s) for s in range(1 << 12)}
    assert seeds == [derive_seed("tape", t) for t in sorted(tapes)]


def test_derive_wide_design_bytes_frozen():
    # frozen from the derivation that ran the generator once per seed value
    text = serialize_certificate(derive_certificate(WIDE_DESIGN, toy_config(seed_bits=12)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8a53dbf2b7332e758d07cc0d6244fed68b0726c3c58a7ef7b5e7b13a25afc633")


# the design `gen-design --l 20 --r 3 --kcap 1 --rows 16` writes: its rows
# read every seed position, so 14 seed bits scan 2^14 seeds x 16 rows, the
# budget's steps exactly
BUDGET_DESIGN = build_design_greedy(DesignParams(16, 20, 3, 1))


def test_derive_tape_budget_edge():
    assert obstruction.MAX_TAPE_STEPS == (1 << 14) * 16
    assert derive_certificate(BUDGET_DESIGN, toy_config(seed_bits=14)).queries
    # one seed bit more doubles the scan, refused before it starts
    with pytest.raises(BudgetExceeded, match=r"2\^15 seeds x 16 rows = 524288 steps"):
        derive_certificate(BUDGET_DESIGN, toy_config(seed_bits=15))


def test_parse_rederives_within_the_budget(monkeypatch):
    # a certificate is re-derived from its design and config, so reading one
    # past the budget stops at the budget too; the toy scans 2^4 x 4 steps
    text = serialize_certificate(derive_certificate(toy_design(), toy_config()))
    monkeypatch.setattr(obstruction, "MAX_TAPE_STEPS", 64)
    assert parse_certificate(text).config == toy_config()
    monkeypatch.setattr(obstruction, "MAX_TAPE_STEPS", 63)
    with pytest.raises(BudgetExceeded):
        parse_certificate(text)


# ---------------------------------------------------------------------------
# file form

def test_serialize_parse_roundtrip():
    cert = derive_certificate(toy_design(), toy_config())
    assert parse_certificate(serialize_certificate(cert)) == cert


def test_a_factor_past_the_digit_limit_serializes_at_the_capped_dimensions():
    # at width 1024, E(2,3)'s diagonal factors have more than 4,300 digits,
    # Python's int-to-str limit: writing the certificate raised ValueError
    cfg = CertConfig(target="efun", m=2, k=3, sample_width=1024, seed_bits=0,
                     truth_table=TOY_TABLE)
    cert = derive_certificate(toy_design(), cfg)
    text = serialize_certificate(cert)
    widest = max(len(f) for line in text.splitlines() if "coeffs=" in line
                 for f in line.split("coeffs=")[1].split()[0].split(","))
    assert widest > 4300
    assert parse_certificate(text) == cert


def test_parse_accepts_sectionless_prefix():
    cert = derive_certificate(toy_design(), toy_config())
    lines = serialize_certificate(cert).splitlines()
    prefix = lines[: lines.index("}") + 1]
    back = parse_certificate("".join(line + "\n" for line in prefix))
    assert back == cert


def test_parse_rejects_bad_header():
    cert = derive_certificate(toy_design(), toy_config())
    text = serialize_certificate(cert).replace("v1", "v9", 1)
    with pytest.raises(MalformedEncoding):
        parse_certificate(text)


def test_parse_rejects_truncation():
    cert = derive_certificate(toy_design(), toy_config())
    lines = serialize_certificate(cert).splitlines()
    text = "".join(line + "\n" for line in lines[:4])  # cut inside config
    with pytest.raises(MalformedEncoding):
        parse_certificate(text)


# each line of the certificate's head, broken, and the error it must give
BROKEN_HEADS = {
    "config-hash": (1, "hash 00", "missing config-hash"),
    "design": (2, "label 00", "missing design block"),
    "design-hex": (2, "design zz", "design block is not hex"),
    "config": (3, "config", "missing config block"),
}


@pytest.mark.parametrize("at, line, message", BROKEN_HEADS.values(), ids=BROKEN_HEADS.keys())
def test_parse_rejects_a_broken_head(at, line, message):
    lines = serialize_certificate(derive_certificate(toy_design(), toy_config())).splitlines()
    lines[at] = line
    with pytest.raises(MalformedEncoding, match=message):
        parse_certificate("".join(ln + "\n" for ln in lines))


def test_parse_rejects_config_edit():
    cert = derive_certificate(toy_design(), toy_config())
    text = serialize_certificate(cert).replace("band=0", "band=1", 1)
    with pytest.raises(MalformedEncoding, match="hash mismatch"):
        parse_certificate(text)


def test_parse_rejects_tampered_query_section():
    cert = derive_certificate(toy_design(), toy_config())
    lines = serialize_certificate(cert).splitlines()
    start = lines.index(f"queries {len(cert.queries)}") + 1
    lines[start], lines[start + 1] = lines[start + 1], lines[start]
    with pytest.raises(StaleCertificate):
        parse_certificate("".join(line + "\n" for line in lines))


def test_parse_rejects_swapped_design():
    # a valid but different label re-derives different sections
    cert = derive_certificate(toy_design(), toy_config())
    rev = Design(TOY_PARAMS, tuple(reversed(toy_design().rows)))
    old = serialize_certificate(cert)
    new = serialize_certificate(derive_certificate(rev, toy_config()))
    old_design = next(l for l in old.splitlines() if l.startswith("design "))
    new_design = next(l for l in new.splitlines() if l.startswith("design "))
    assert old_design != new_design
    with pytest.raises(StaleCertificate):
        parse_certificate(old.replace(old_design, new_design, 1))


# ---------------------------------------------------------------------------
# decoding

def test_decode_det2_frozen():
    cfg = toy_config(bound=8)
    cert = derive_certificate(toy_design(), cfg)
    res = decode_counterexample(cert, det_circuit(2))
    assert res.query_index == 25
    assert res.query.kind == "PPermLeft"
    assert len(res.query.points) == 2
    assert res.direct_disagreement == (True, True)


def test_decode_target_itself_has_no_counterexample():
    cert = derive_certificate(toy_design(), toy_config(bound=8))
    with pytest.raises(NoFailingQuery):
        decode_counterexample(cert, perm_circuit(2))


def test_decode_membership_size():
    cert = derive_certificate(toy_design(), toy_config())  # bound 3
    with pytest.raises(UsageError, match="exceeds class bound"):
        decode_counterexample(cert, det_circuit(2))


def test_decode_membership_arity():
    cfg = CertConfig(target="efun", m=1, k=2, bound=8, seed_bits=4,
                     truth_table=TOY_TABLE)
    cert = derive_certificate(toy_design(), cfg)
    with pytest.raises(UsageError, match="inputs"):
        decode_counterexample(cert, perm_circuit(2))


# ---------------------------------------------------------------------------
# harness

def test_harness_toy_class_passes():
    cert = derive_certificate(toy_design(), toy_config())
    cls = EnumeratedClass(4, 3, (-1, 0, 1))
    rep = harness_F(cert, cls, f2_samples=8)
    assert rep.all_pass and not rep.aborted
    assert rep.class_size == 259
    assert rep.trivial_rows == 259
    assert rep.point_count == 49
    names = [p.name for p in rep.properties]
    assert names == ["F0", "F1a", "F1b", "F2", "F3", "F4"]
    by_name = {p.name: p for p in rep.properties}
    assert "decoded 259/259 members, max counterexample set 2" in by_name["F1b"].detail
    assert "empirical count only" in by_name["F2"].detail
    text = rep.text()
    assert "compression contrast: |S| = 49 points vs 259 trivial table rows" in text
    assert "overall: pass" in text


def test_harness_aborts_on_corrupt_label():
    bad = Design(TOY_PARAMS, (7, 7, 7, 7))
    cert = ObstructionCertificate(bad, toy_config(), (), ())
    rep = harness_F(cert, EnumeratedClass(4, 3, (-1, 0, 1)))
    assert rep.aborted and not rep.all_pass
    assert [p.name for p in rep.properties] == ["F3"]
    assert not rep.properties[0].passed
    assert "aborted" in rep.text()


def test_harness_discharges_hardness_premise():
    cert = derive_certificate(toy_design(), toy_config(bound=8))
    cls = ExplicitClass((perm_circuit(2),))
    with pytest.raises(TargetComputable) as ei:
        harness_F(cert, cls)
    assert ei.value.circuit == perm_circuit(2)


class TrackedClass:
    """An enumerated class that counts how many of its members are alive."""

    def __init__(self, inner):
        self.inner = inner
        self.alive = self.peak = self.yielded = 0

    def label(self) -> str:
        return self.inner.label()

    def _gone(self):
        self.alive -= 1

    def members(self):
        for c in self.inner.members():
            self.alive += 1
            self.yielded += 1
            self.peak = max(self.peak, self.alive)
            weakref.finalize(c, self._gone)
            yield c


def test_harness_streams_the_class():
    cert = derive_certificate(toy_design(), toy_config())
    cls = TrackedClass(EnumeratedClass(4, 3, (-1, 0, 1)))
    rep = harness_F(cert, cls, f2_samples=0)
    assert cls.yielded == rep.class_size == 259
    assert cls.peak <= 3


def test_harness_target_member_wins_over_an_earlier_membership_error():
    # det(2) has 7 nodes, past the bound of 3, but perm(2) computes the target
    cert = derive_certificate(toy_design(), toy_config())
    cls = ExplicitClass((det_circuit(2), perm_circuit(2)))
    with pytest.raises(TargetComputable) as ei:
        harness_F(cert, cls, f2_samples=0)
    assert ei.value.circuit == perm_circuit(2)


def test_harness_membership_error_after_the_pass():
    cert = derive_certificate(toy_design(), toy_config())
    xy = circuit_from_ops(4, [("input", 0), ("input", 1), ("mul", 0, 1)])
    with pytest.raises(UsageError, match="exceeds class bound"):
        harness_F(cert, ExplicitClass((xy, det_circuit(2), xy)), f2_samples=0)


def test_harness_counts_failures_per_member():
    # two distinct circuits computing x0*x1, then x0*x3, which has as many
    # terms but another first failing query, and det(2)
    xy = circuit_from_ops(4, [("input", 0), ("input", 1), ("mul", 0, 1)])
    yx = circuit_from_ops(4, [("input", 1), ("input", 0), ("mul", 0, 1)])
    xw = circuit_from_ops(4, [("input", 0), ("input", 3), ("mul", 0, 1)])
    assert xy != yx
    cert = derive_certificate(toy_design(), toy_config(bound=8))
    prog = lower(xy)
    kept = tuple(
        q for q in cert.queries
        if query_verdict(q.relation, q.coeffs, run_many(prog, q.points))[0]
    )
    cert = cert._replace(queries=kept)
    assert decode_counterexample(cert, xw) and decode_counterexample(cert, det_circuit(2))
    cls = ExplicitClass((xy, xw, det_circuit(2), yx))
    rep = harness_F(cert, cls, f2_samples=0)
    f1b = {p.name: p for p in rep.properties}["F1b"]
    assert f1b.detail.startswith("decoded 2/4 members")
    assert not f1b.passed and rep.class_size == 4


def _per_member_rows(cls, config):
    """The table's rows built member by member, with nothing shared."""
    target = expand_to_polynomial(perm_circuit(config.n))
    rows = []
    for idx, c in enumerate(cls.members()):
        diff = poly_sub(expand_to_polynomial(c), target)
        d = poly_max_var_degree(diff)
        pt = next(pt for pt in product(range(d + 1), repeat=config.num_vars())
                  if poly_eval(diff, pt) != 0)
        rows.append((idx, pt, evaluate(c, pt), poly_eval(target, pt)))
    return rows


def test_one_decode_per_polynomial_agrees_with_every_member():
    cfg = toy_config(bound=4)
    cert = derive_certificate(toy_design(), cfg)
    cls = EnumeratedClass(4, 4, (-1, 0, 1))
    members = failures = max_set = 0
    for c in cls.members():
        members += 1
        try:
            max_set = max(max_set, len(decode_counterexample(cert, c).query.points))
        except NoFailingQuery:
            failures += 1
    rep = harness_F(cert, cls, f2_samples=0)
    f1b = {p.name: p for p in rep.properties}["F1b"]
    assert f1b.detail == (f"decoded {members - failures}/{members} members, "
                          f"max counterexample set {max_set}")
    rows = []
    assert trivial_obstruction_table(cls, cfg, rows.append) == members
    assert [(r.index, r.point, r.circuit_value, r.target_value)
            for r in rows] == _per_member_rows(cls, cfg)


# ---------------------------------------------------------------------------
# trivial table

def test_trivial_table_one_row_per_member():
    cls = EnumeratedClass(4, 2, (1,))
    rows = []
    assert trivial_obstruction_table(cls, toy_config(), rows.append) == 20
    assert [r.index for r in rows] == list(range(20))
    # every row is a genuine disagreement
    assert all(r.circuit_value != r.target_value for r in rows)


def test_trivial_table_first_row_frozen():
    rows = []
    trivial_obstruction_table(EnumeratedClass(4, 2, (1,)), toy_config(), rows.append)
    first = rows[0]
    assert first.point == (0, 1, 1, 0)
    assert (first.circuit_value, first.target_value) == (0, 1)


def test_trivial_table_target_member_refused():
    with pytest.raises(TargetComputable):
        trivial_obstruction_table(ExplicitClass((perm_circuit(2),)),
                                  toy_config(bound=8), [].append)


def test_trivial_table_arity_mismatch():
    with pytest.raises(UsageError):
        trivial_obstruction_table(EnumeratedClass(2, 2, (1,)), toy_config(), [].append)
