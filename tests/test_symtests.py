"""Symmetry query generation and the accept/reject behavior of the suites.

Soundness here is characterized against hand-picked impostors: the
determinant (satisfies the diagonal law, breaks under row swaps), scalar
multiples (break only normalization), and monomials posing as E.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcert.builders import det_circuit, efun_circuit, perm_circuit, scale_circuit
from flipcert.circuits import (
    expand_to_polynomial,
    formal_degree,
    lower,
    parse_circuit,
    poly_constant_ratio,
    poly_eval,
    poly_scaled,
    poly_sub,
    serialize_circuit,
)
from flipcert.errors import ArityMismatch, UsageError
from flipcert.matrices import BLOCK, SQUARE
from flipcert.oracles import (
    ColCycle,
    ColSwap,
    Diagonal,
    ElementaryAdd,
    PermSwap,
    PosThreeCycle,
    RowCycle,
    act,
    k_generators,
    var_map,
)
from flipcert import oracles, symtests
from flipcert.pit import EnumeratedClass
from flipcert.symtests import (
    E_NONZERO,
    E_PRIMARY_VANISH,
    NORMALIZE,
    P_NONZERO,
    REL_CONST,
    REL_EQUAL,
    REL_NONZERO,
    REL_SCALED,
    Query,
    VerifyConfig,
    _efun_table,
    _perm_table,
    _Table,
    acted,
    canonicalize_queries,
    embed_principal,
    gen_queries_efun,
    gen_queries_perm,
    gen_queries_selfreduce,
    perm_symmetry_nullspace,
    query_verdict,
    run_queries,
    sampled_error_bound,
    serialize_query,
    verify_claims_efun,
    verify_claims_perm,
)
from flipcert.util import derive_seed, rand_point, sample_box, seeded, streams


def _failing_kinds(result) -> set[str]:
    return {v.kind for v in result.verdicts if not v.passed}


def test_query_generation_deterministic():
    a = gen_queries_perm(2, seed=0)
    b = gen_queries_perm(2, seed=0)
    shape = (SQUARE, 2)
    assert [serialize_query(q, shape) for q in a] == [serialize_query(q, shape) for q in b]
    assert a != gen_queries_perm(2, seed=1)


def test_perm_query_suite_shape():
    qs = gen_queries_perm(2, seed=0)
    assert len(qs) == 12
    kinds = sorted(q.kind for q in qs)
    assert kinds.count("Normalize") == 1
    assert kinds.count("PNonZero") == 3
    assert kinds.count("PPermLeft") == 2
    # symmetry queries never need more than two evaluations
    assert max(len(q.points) for q in qs) <= 2


def test_selfreduce_queries_carry_order_plus_one_points():
    qs = gen_queries_selfreduce(3, seed=0)
    by_order = {}
    for q in qs:
        order = q.params[0]
        by_order.setdefault(order, set()).add(len(q.points))
    for order, sizes in by_order.items():
        assert sizes == {order + 1}


def test_canonicalize_dedups_and_sorts():
    qs = gen_queries_perm(2, seed=0)
    doubled = canonicalize_queries(qs + qs)
    assert doubled == canonicalize_queries(qs)
    assert len(doubled) == len(set(qs))
    kinds = [q.kind for q in doubled]
    assert kinds == sorted(kinds)  # kind-major canonical order
    # input order must not matter
    assert canonicalize_queries(tuple(reversed(qs))) == doubled


def test_perm_accepts_its_own_circuit():
    for n in (1, 2, 3):
        res = verify_claims_perm(perm_circuit(n), n)
        assert res.accept, res.transcript()


def test_det_rejected_on_swap_queries_only():
    res = verify_claims_perm(det_circuit(2), 2)
    assert not res.accept
    assert _failing_kinds(res) == {"PPermLeft", "PPermRight"}


def test_det_rejected_exhaustive_mode():
    res = verify_claims_perm(det_circuit(2), 2, VerifyConfig(mode="exhaustive"))
    assert not res.accept
    assert _failing_kinds(res) == {"PPermLeft", "PPermRight"}


def test_scalar_multiple_fails_only_normalize():
    doubled = scale_circuit(perm_circuit(2), 2)
    res = verify_claims_perm(doubled, 2)
    assert not res.accept
    assert _failing_kinds(res) == {"Normalize"}
    relaxed = verify_claims_perm(doubled, 2, VerifyConfig(normalize=False))
    assert relaxed.accept


def test_perm_accepts_exhaustive_mode():
    res = verify_claims_perm(perm_circuit(2), 2, VerifyConfig(mode="exhaustive"))
    assert res.accept
    res3 = verify_claims_perm(perm_circuit(3), 3, VerifyConfig(mode="exhaustive"))
    assert res3.accept


def test_exhaustive_rejects_shifted_impostor():
    # perm + 1 agrees with perm on swaps/diagonals at no point: catches
    # the additive impostor that sampling might miss at unlucky points
    c = parse_circuit(
        """ninputs 4
g1 = input 0
g2 = input 1
g3 = input 2
g4 = input 3
g5 = mul g1 g4
g6 = mul g2 g3
g7 = add g5 g6
g8 = const 1
g9 = add g7 g8
output g9
"""
    )
    res = verify_claims_perm(c, 2, VerifyConfig(mode="exhaustive"))
    assert not res.accept


def test_modular_ring_agrees_with_exact():
    assert verify_claims_perm(perm_circuit(3), 3, VerifyConfig(ring="modular")).accept
    assert not verify_claims_perm(det_circuit(3), 3, VerifyConfig(ring="modular")).accept


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        verify_claims_perm(perm_circuit(2), 3)


def test_efun_accepts_across_grid():
    for m, k in ((1, 2), (2, 2), (1, 3), (2, 3)):
        res = verify_claims_efun(efun_circuit(m, k), m, k)
        assert res.accept, (m, k, res.transcript())


def test_efun_literal_mode_accepts():
    cfg = VerifyConfig(det_factor_mode="literal")
    res = verify_claims_efun(efun_circuit(2, 2), 2, 2, cfg)
    assert res.accept


def test_efun_literal_mode_refuses_m_1():
    # no row law at m = 1: both modes accepted (x0*x1)^2 as E(1,2), for any k
    c = parse_circuit("ninputs 2\ng1 = input 0\ng2 = input 1\ng3 = mul g1 g2\n"
                      "g4 = mul g3 g3\noutput g4\n")
    for mode in ("sampled", "exhaustive"):
        cfg = VerifyConfig(mode=mode, det_factor_mode="literal")
        with pytest.raises(UsageError, match="no row law at m = 1"):
            verify_claims_efun(c, 1, 2, cfg)
        with pytest.raises(UsageError, match="no row law at m = 1"):
            verify_claims_efun(efun_circuit(1, 3), 1, 3, cfg)


def test_efun_exhaustive_accepts():
    res = verify_claims_efun(efun_circuit(2, 2), 2, 2, VerifyConfig(mode="exhaustive"))
    assert res.accept


def test_efun_monomial_impostor_fails_kgen():
    # x^2 on the 1x2 block: right degrees, wrong symmetry
    c = parse_circuit("ninputs 2\ng1 = input 0\ng2 = mul g1 g1\noutput g2\n")
    res = verify_claims_efun(c, 1, 2)
    assert not res.accept
    assert "EKGen" in _failing_kinds(res)


def test_sub_threshold_k_is_noted():
    res = verify_claims_efun(efun_circuit(1, 2), 1, 2)
    assert any("sub-threshold" in note for note in res.notes)
    res3 = verify_claims_efun(efun_circuit(1, 3), 1, 3)
    assert not any("sub-threshold" in note for note in res3.notes)


def test_sampled_error_bound_shrinks_with_box_and_rounds():
    wide = sampled_error_bound(10, (1, 1 << 62), 2)
    narrow = sampled_error_bound(10, (1, 1 << 8), 2)
    assert wide < narrow
    assert sampled_error_bound(10, (1, 1 << 62), 4) < wide
    assert 0 < wide <= 1


def test_selfreduce_contrast_frozen():
    # a symmetry query touches at most 2 points, an order-i self-reduction i + 1
    red = gen_queries_selfreduce(3, 0)
    assert max(len(q.points) for q in gen_queries_perm(3, 0)) == 2
    assert max(len(q.points) for q in red) == 4
    assert {q.params[0]: len(q.points) for q in red if q.kind == "SelfReduce"} == {2: 3, 3: 4}


def test_nullspace_dimension_one_n2():
    res = perm_symmetry_nullspace(2)
    assert res.dim == 1
    # the surviving basis vector is the permanent itself
    basis = res.basis[0]
    perm_poly = expand_to_polynomial(perm_circuit(2))
    scale = next(iter(basis.values()))
    assert {k: v / scale for k, v in basis.items()} == {
        k: v for k, v in perm_poly.items()
    }


def test_nullspace_dimension_one_n3():
    res = perm_symmetry_nullspace(3)
    assert res.dim == 1


def test_verify_rejects_bad_mode():
    with pytest.raises(UsageError):
        verify_claims_perm(perm_circuit(2), 2, VerifyConfig(mode="psychic"))


# an unknown value is refused where the config is made, before any suite runs
def test_config_rejects_an_unknown_mode():
    with pytest.raises(UsageError, match="unknown mode 'psychic'"):
        VerifyConfig(mode="psychic")


def test_config_rejects_an_unknown_ring():
    with pytest.raises(UsageError, match="unknown ring 'bogus'"):
        VerifyConfig(mode="exhaustive", ring="bogus")


def test_config_rejects_an_unknown_det_factor_mode():
    with pytest.raises(UsageError, match="unknown det_factor_mode 'bogus'"):
        VerifyConfig(mode="exhaustive", det_factor_mode="bogus")


# ---------------------------------------------------------------------------
# one variable map per group element


def _line_elements(dim: int, rng: random.Random) -> list:
    """Every row (left) or column (right) element on a line of length dim."""
    lines = range(1, dim + 1)
    out: list = [PermSwap(i) for i in range(1, dim)]
    out += [RowCycle(*t) for t in itertools.permutations(lines, 3)]
    out.append(Diagonal(tuple(rng.randrange(-5, 6) for _ in lines)))
    for i, j in itertools.permutations(lines, 2):
        out.append(ElementaryAdd(i, j, rng.randrange(-5, 6)))
    return out


def _wreath_elements(m: int, k: int) -> list:
    out: list = [ColCycle(i) for i in range(1, m + 1)]
    if k >= 2:
        out += [ColSwap(i) for i in range(1, m + 1)]
    out += [PosThreeCycle(*t) for t in itertools.permutations(range(1, m + 1), 3)]
    return out


def _actions():
    """(shape, element, side) for every kind, both sides, square and block."""
    rng = random.Random(41)
    for n in (1, 2, 3, 4):
        for side in ("left", "right"):
            for g in _line_elements(n, rng):
                yield (SQUARE, n), g, side
    for m, k in ((1, 2), (2, 2), (3, 2), (2, 3), (4, 3)):
        for g in _line_elements(m, rng):
            yield (BLOCK, m, k), g, "left"
        for g in _wreath_elements(m, k):
            yield (BLOCK, m, k), g, "right"


def _random_poly(rng: random.Random, nvars: int) -> dict:
    return {
        tuple(rng.choice((0, 0, 1, 2)) for _ in range(nvars)): rng.randrange(-9, 10) or 1
        for _ in range(5)
    }


def test_acted_polynomial_is_p_of_g_x():
    # the polynomial side and the point side read the same map, in the same
    # direction: acted(p, map)(X) == p(g X), also for the 3-cycles
    rng = random.Random(42)
    seen = set()
    for shape, g, side in _actions():
        seen.add((shape[0], type(g).__name__, side))
        nvars = shape[1] * shape[1] * (shape[2] if shape[0] == BLOCK else 1)
        vmap = var_map(g, shape, side)
        for _ in range(3):
            p = _random_poly(rng, nvars)
            point = [rng.randrange(-9, 10) for _ in range(nvars)]
            want = poly_eval(p, act(vmap, point))
            assert poly_eval(acted(p, vmap), point) == want, (shape, g, side)
    kinds = ("PermSwap", "RowCycle", "Diagonal", "ElementaryAdd")
    for kind, side in itertools.product(kinds, ("left", "right")):
        assert (SQUARE, kind, side) in seen
    for kind in kinds:
        assert (BLOCK, kind, "left") in seen
    for kind in ("ColSwap", "ColCycle", "PosThreeCycle"):
        assert (BLOCK, kind, "right") in seen


def _act_oracle(vmap: tuple, flat) -> tuple:
    """act's earlier general body, the reference: add, then scale, then move."""
    dest, scale, add = vmap
    vals = list(flat)
    if add is not None:
        pairs, y = add
        for d, s in pairs:
            vals[d] = vals[d] + y * vals[s]
    if scale is not None:
        vals = [f * v for f, v in zip(scale, vals)]
    if dest is not None:
        moved = [None] * len(vals)
        for v, d in zip(vals, dest):
            moved[d] = v
        vals = moved
    return tuple(vals)


ACTIONS = tuple(_actions())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_act_matches_the_general_body(seed):
    # every kind, both sides, square and block shapes; the 3-cycles are not
    # involutions, so a map read in the wrong direction shows
    rng = random.Random(seed)
    for shape, g, side in ACTIONS:
        nvars = shape[1] * shape[1] * (shape[2] if shape[0] == BLOCK else 1)
        X = tuple(rng.randrange(-(1 << 70), 1 << 70) for _ in range(nvars))
        vmap = var_map(g, shape, side)
        assert sum(part is not None for part in vmap) == 1  # what act relies on
        assert act(vmap, X) == _act_oracle(vmap, X), (shape, g, side)


# (target, dims, det_factor_mode) of every suite the per-monomial rule runs
SUITE_CASES = [("perm", (n,), "det-corrected") for n in (1, 2, 3, 4)] + [
    ("efun", dims, mode)
    for dims in ((1, 2), (2, 2), (1, 3), (2, 3))
    for mode in ("det-corrected", "literal")
]


def _target_poly(target: str, dims: tuple) -> dict:
    c = perm_circuit(*dims) if target == "perm" else efun_circuit(*dims)
    return expand_to_polynomial(c)


TARGET_POLYS = {(t, dims): _target_poly(t, dims) for t, dims, _ in SUITE_CASES}


def _suite(target: str, dims: tuple, cfg: VerifyConfig) -> tuple:
    return (_perm_table(*dims, cfg) if target == "perm" else _efun_table(*dims, cfg)).suite


def _passes(suite: tuple, poly: dict) -> list[bool]:
    """Whether poly passes each check, read from a table of its own."""
    fail = _Table(suite).failures(poly)
    return [not fail >> i & 1 for i in range(len(suite))]


def _sparse_polys(nvars: int):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.integers(-5, 5).filter(bool)
    return st.dictionaries(exps, coeffs, max_size=6)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_check_rule_matches_the_acted_reference(data):
    # each diagonal and permutation check of every suite decides
    # p(g X) == f p(X) as building p(g X) through `acted` does: on targets,
    # their multiples, near misses, and p - s p(g X) for a permutation g of
    # the suite, which passes g's check at f = -s when g is a swap
    target, dims, mode = data.draw(st.sampled_from(SUITE_CASES))
    cfg = VerifyConfig(mode="exhaustive", det_factor_mode=mode,
                       seed=data.draw(st.integers(0, 2**32)))
    suite = _suite(target, dims, cfg)
    # row additions build p(g X) through `acted` themselves, and are slow
    # on E(2,3); every other check is decided one monomial at a time
    suite = tuple(chk for chk in suite if chk[2][2] is None)
    tp = TARGET_POLYS[target, dims]
    nvars = len(next(iter(tp)))
    noise = data.draw(_sparse_polys(nvars))
    form = data.draw(st.sampled_from(("random", "target", "multiple", "near", "orbit")))
    if form == "random":
        poly = noise
    elif form == "target":
        poly = tp
    elif form == "multiple":
        poly = poly_scaled(tp, data.draw(st.integers(-4, 4)))
    elif form == "near":
        poly = poly_sub(tp, noise)
    else:
        dests = [vmap for _, _, vmap, _ in suite if vmap[0] is not None] or [None]
        vmap = data.draw(st.sampled_from(dests))
        sign = data.draw(st.sampled_from((1, -1)))
        poly = noise if vmap is None else poly_sub(noise, poly_scaled(acted(noise, vmap), sign))
    assert all(poly.values())  # the invariant the rule relies on
    assert _passes(suite, poly) == [
        acted(poly, vmap) == poly_scaled(poly, factor) for _, _, vmap, factor in suite
    ]


def test_check_rule_sees_every_check_pass_and_fail():
    # the target passes every check of its suite; taking x0^(deg + 1) off breaks
    # every diagonal law; E(2,3)'s swap law is the one check with f = -1
    for target, dims, mode in SUITE_CASES:
        cfg = VerifyConfig(mode="exhaustive", det_factor_mode=mode)
        suite = _suite(target, dims, cfg)
        tp = TARGET_POLYS[target, dims]
        assert all(_passes(suite, tp)), (target, dims, mode)
        e0 = next(iter(tp))
        bumped = poly_sub(tp, {(sum(e0) + 1,) + (0,) * (len(e0) - 1): 1})
        diag = [ok for ok, chk in zip(_passes(suite, bumped), suite) if chk[2][1] is not None]
        assert not any(diag), (target, dims, mode)
        assert diag or (mode, dims[0]) == ("literal", 1)  # literal m = 1: no row law
    suite = _efun_table(2, 3, VerifyConfig(mode="exhaustive")).suite
    assert [f for _, _, vmap, f in suite if vmap[0] is not None].count(-1) == 1


def _swap_fixed_polys():
    """Sparse polynomials in E(2,3)'s 12 variables with at least one
    monomial the row swap fixes: row 2's exponents equal row 1's, as in
    x_{1,c} x_{2,c}."""
    row = st.tuples(*[st.integers(0, 2)] * 6).filter(any)
    fixed = st.dictionaries(row.map(lambda e: e + e), st.integers(-5, 5).filter(bool),
                            min_size=1, max_size=2)
    return st.tuples(_sparse_polys(12), fixed).map(lambda parts: {**parts[0], **parts[1]})


@settings(max_examples=50, deadline=None)
@given(poly=_swap_fixed_polys(), seed=st.integers(0, 3))
def test_odd_swap_sign_on_a_fixed_monomial(poly, seed):
    # at E(2,3), k^m = 9 is odd, so the row swap law reads p(gX) = -p(X); a
    # monomial the swap fixes fails it by itself, c_e != -c_e.  The table's
    # mask equals a reference that builds p(gX) for every check
    table = _efun_table(2, 3, VerifyConfig(mode="exhaustive", seed=seed))
    want = 0
    for i, (_, _, vmap, factor) in enumerate(table.suite):
        if acted(poly, vmap) != poly_scaled(poly, factor):
            want |= 1 << i
    assert table.failures(poly) == want
    [swap] = [i for i, (_, _, vmap, f) in enumerate(table.suite) if vmap[0] and f == -1]
    assert want >> swap & 1


SUITE_GUARDS = {
    "embed": (lambda: embed_principal([[1, 2], [3, 4]], 1), "cannot embed 2x2 into 1x1"),
    "det-mode": (lambda: gen_queries_efun(2, 2, seed=0, det_factor_mode="magic"),
                 "unknown det_factor_mode 'magic'"),
    "relation": (lambda: query_verdict("bogus", (), [1]),
                 "unknown relation 'bogus'"),
    "ring": (lambda: run_queries(perm_circuit(2), (), ring="p-adic"),
             "unknown ring mode 'p-adic'"),
}


@pytest.mark.parametrize("call, message", SUITE_GUARDS.values(), ids=SUITE_GUARDS.keys())
def test_suite_guards(call, message):
    with pytest.raises(UsageError, match=message):
        call()


def _widths():
    """1, 2^k - 1, 2^k and 2^k + 1, where the redraw rule's edges are, and any."""
    near_powers = st.integers(0, 70).flatmap(
        lambda k: st.sampled_from((max(1, (1 << k) - 1), 1 << k, (1 << k) + 1))
    )
    return st.one_of(near_powers, st.integers(1, 1 << 80))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    box=st.one_of(
        st.just((1, 1 << 62)),  # the suites' default box
        st.builds(lambda lo, w: (lo, lo + w - 1), st.integers(-(1 << 70), 1 << 70), _widths()),
    ),
    size=st.integers(0, 20),
)
def test_rand_point_is_randrange_draw_for_draw(seed, box, size):
    ours, ref = random.Random(seed), random.Random(seed)
    want = tuple(ref.randrange(box[0], box[1] + 1) for _ in range(size))
    assert rand_point(ours, size, box) == want
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("parts", [(0,), (2**64 - 1,), ("queryprimes",), ("P", 3, 2**63 - 1, 1),
                                   ("pool", 7, "n2-b5-a-1,0,1", 1, 1 << 16)])
def test_seeded_is_the_random_stream_of_the_derived_seed(parts):
    ours, ref = seeded(*parts), random.Random(derive_seed(*parts))
    assert ours.getstate() == ref.getstate()
    assert ours.getrandbits(63) == ref.getrandbits(63) and ours.random() == ref.random()


@pytest.mark.parametrize("prefix", [(), ("queryprimes",), ("P", 3, 2**63 - 1), ("Enz", 2, 2, 0),
                                    ("pool", 7, "n2-b5-a-1,0,1", 1, 1 << 16)])
def test_streams_are_the_seeded_streams_of_their_index(prefix):
    # the prefix is hashed once and each copy finished with str(i), as if
    # derive_seed had hashed (*prefix, i) whole
    got = streams(12, *prefix)
    assert [rng.getstate() for rng in got] == [seeded(*prefix, i).getstate() for i in range(12)]
    assert streams(0, *prefix) == []


@pytest.mark.parametrize("target, dims, mode", [("perm", (n,), "det-corrected") for n in (2, 3, 4)]
                         + [("efun", dims, "det-corrected") for dims in ((1, 2), (2, 2), (1, 3))]
                         + [("efun", (2, 2), "literal")])
def test_suite_streams_are_the_derived_seeds(monkeypatch, target, dims, mode):
    # each shape the sampled-verify benchmark runs, and literal mode: a
    # verification seeds its round streams and its nonzero streams each at
    # derive_seed(label, *dims, seed, i)
    seen = []

    def recorded(count, *prefix):
        out = streams(count, *prefix)
        seen.append((prefix, [rng.getstate() for rng in out]))
        return out

    monkeypatch.setattr(symtests, "streams", recorded)
    cfg = VerifyConfig(seed=2**63 - 25, rounds=3, nonzero_count=2, det_factor_mode=mode)
    if target == "perm":
        assert verify_claims_perm(perm_circuit(*dims), *dims, cfg).accept
    else:
        assert verify_claims_efun(efun_circuit(*dims), *dims, cfg).accept
    label = "P" if target == "perm" else "E"
    assert [prefix for prefix, _ in seen] == [(label, *dims, cfg.seed), (label + "nz", *dims, cfg.seed)]
    assert [len(states) for _, states in seen] == [3, 2]
    for prefix, states in seen:
        want = [random.Random(derive_seed(*prefix, i)).getstate() for i in range(len(states))]
        assert states == want


def test_rand_point_refuses_an_empty_box():
    with pytest.raises(UsageError):
        rand_point(random.Random(0), 3, (5, 4))


def _exhaustive_digest(cls, verify, cfg) -> tuple[int, int, str]:
    """(accepted members, passing verdicts, digest of every verdict and note)."""
    h = hashlib.sha256()
    accepted = passed = 0
    for c in cls.members():
        res = verify(c, cfg)
        accepted += res.accept
        passed += sum(v.passed for v in res.verdicts)
        for v in res.verdicts:
            h.update(f"{v.index} {v.kind} {v.passed} {' '.join(v.witness)}\n".encode())
        h.update(("notes " + "|".join(res.notes) + "\n").encode())
    return accepted, passed, h.hexdigest()[:16]


def _perm2(c, cfg):
    return verify_claims_perm(c, 2, cfg)


def _efun22(c, cfg):
    return verify_claims_efun(c, 2, 2, cfg)


# Frozen from the implementation that spelled each check's variable moves
# out by hand; the classes are the bound-3 ones over 4 and 8 inputs.
@pytest.mark.parametrize(
    "ninputs, verify, cfg, frozen",
    [
        (4, _perm2, VerifyConfig(mode="exhaustive", normalize=False),
         (0, 914, "bb627cd4d75b425e")),
        (4, _perm2, VerifyConfig(mode="exhaustive"), (0, 963, "e35ff14682768113")),
        (8, _efun22, VerifyConfig(mode="exhaustive"), (0, 2906, "63548ca3b6374957")),
        (8, _efun22, VerifyConfig(mode="exhaustive", det_factor_mode="literal"),
         (0, 2639, "3c8873bb10035de5")),
    ],
)
def test_exhaustive_verdicts_frozen(ninputs, verify, cfg, frozen):
    cls = EnumeratedClass(ninputs, 3, (-1, 0, 1))
    assert _exhaustive_digest(cls, verify, cfg) == frozen


def test_exhaustive_tables_do_not_leak_between_suites():
    # each exhaustive VerifyResult equals the same call made with a fresh
    # table, over the bound-4 perm(2) class and the bound-3 E(2,2) class
    # interleaved member by member, with normalize off and on and both det
    # modes; the two seeds run one after the other, so each holds the 8
    # suites the lru_cache keeps and every table serves many calls
    cached = (symtests._perm_table, symtests._efun_table)
    fresh = tuple(table.__wrapped__ for table in cached)
    perm_class = EnumeratedClass(4, 4, (-1, 0, 1, 2))
    efun_class = EnumeratedClass(8, 3, (-1, 0, 1))
    calls = 0
    try:
        for seed in (0, 1):
            cfgs = [VerifyConfig(mode="exhaustive", seed=seed, normalize=normalize,
                                 det_factor_mode=mode)
                    for normalize in (False, True) for mode in ("det-corrected", "literal")]
            for pc, ec in itertools.zip_longest(perm_class.members(), efun_class.members()):
                for cfg in cfgs:
                    for verify, c in ((_perm2, pc), (_efun22, ec)):
                        if c is None:
                            continue
                        symtests._perm_table, symtests._efun_table = cached
                        got = verify(c, cfg)
                        symtests._perm_table, symtests._efun_table = fresh
                        assert got == verify(c, cfg), (serialize_circuit(c), cfg)
                        calls += 1
    finally:
        symtests._perm_table, symtests._efun_table = cached
    assert calls == 2 * 4 * (4160 + 495)


def test_the_law_rows_are_built_only_under_the_cached_callers(monkeypatch):
    # _laws and the per-shape parts carry no cache of their own: after one
    # warm-up call per suite, sampled verifies at any seed and exhaustive
    # verifies at a fixed config reach them only through _template,
    # _perm_table and _efun_table, which hold what they build
    calls = []
    for module, name in ((symtests, "_laws"), (symtests, "mover"), (symtests, "scale_reader"),
                         (symtests, "add_pairs"), (oracles, "mover"),
                         (oracles, "scale_reader"), (oracles, "add_pairs")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
    perm3, efun22 = perm_circuit(3), efun_circuit(2, 2)

    def verify(i, mode, ring="exact"):
        cfg = VerifyConfig(mode=mode, ring=ring, seed=i)
        if i % 2:
            return verify_claims_efun(efun22, 2, 2, cfg)
        return verify_claims_perm(perm3, 3, cfg)

    for i in range(2):
        verify(i, "sampled")
        verify(i, "exhaustive")
    calls.clear()
    for i in range(50):
        assert verify(i, "sampled", ("exact", "modular")[i // 2 % 2]).accept
    for i in range(50):  # one config per target, as a class sweep holds
        assert verify(i % 2, "exhaustive").accept
    assert calls == []
    symtests._template.cache_clear()  # the counters see a rebuilt template
    verify(0, "sampled")
    assert {"_laws", "mover", "scale_reader"} <= set(calls)


# (checks, digest of every check's kind, note, factor and var map), frozen
# from the implementation that spelled the exhaustive suites apart from the
# sampled ones; literal mode at m = 1 has only the column generators.
@pytest.mark.parametrize(
    "target, dims, mode, frozen",
    [
        ("perm", (1,), "det-corrected", (6, "19325d96a0863509")),
        ("perm", (2,), "det-corrected", (8, "348a47253e626ee6")),
        ("perm", (3,), "det-corrected", (10, "a6ea788b6bc714c4")),
        ("perm", (4,), "det-corrected", (12, "2cfe97c8b144e18d")),
        ("efun", (1, 2), "det-corrected", (4, "302b29c1ba9cad22")),
        ("efun", (1, 2), "literal", (1, "4ddd1dc940593ea2")),
        ("efun", (2, 2), "det-corrected", (10, "1d941c68ea0a99d8")),
        ("efun", (2, 2), "literal", (7, "f8c7af4582923498")),
        ("efun", (1, 3), "det-corrected", (5, "5f8db1bc87388801")),
        ("efun", (1, 3), "literal", (2, "9c159e65dd4cf80d")),
        ("efun", (3, 2), "det-corrected", (21, "260253a7a61404b1")),
        ("efun", (3, 2), "literal", (18, "99ba8d3e7fbd8e2e")),
    ],
)
def test_exhaustive_suites_frozen(target, dims, mode, frozen):
    cfg = VerifyConfig(mode="exhaustive", det_factor_mode=mode)
    suite = _suite(target, dims, cfg)
    text = "".join(f"{kind}|{'|'.join(note)}|{factor}|{vmap}\n"
                   for kind, note, vmap, factor in suite)
    assert (len(suite), hashlib.sha256(text.encode()).hexdigest()[:16]) == frozen
    if mode == "literal" and dims[0] == 1:
        assert {kind for kind, _, _, _ in suite} == {"EKGen"}


# Brute-force soundness of the exhaustive E-function verifier: over whole
# enumerated classes, det-corrected mode accepts a member iff its expansion
# is a nonzero multiple of E (normalize off), or E itself (normalize on).
# (members, nonzero multiples, exact copies) pins what each sweep covered;
# E(1,2)'s class holds E once and 2E three times.
@pytest.mark.parametrize(
    "dims, ninputs, alphabet, frozen",
    [
        ((1, 2), 2, (-1, 0, 1, 2), (2688, 4, 1)),
        ((1, 3), 3, (-1, 0, 1, 2), (3388, 0, 0)),
        ((2, 2), 8, (-1, 0, 1), (6908, 0, 0)),
    ],
    ids=["E(1,2)", "E(1,3)", "E(2,2)"],
)
def test_efun_exhaustive_sound_vs_brute_force(dims, ninputs, alphabet, frozen):
    target = expand_to_polynomial(efun_circuit(*dims))
    cfg_scale = VerifyConfig(mode="exhaustive", normalize=False)
    cfg_norm = VerifyConfig(mode="exhaustive")
    members = multiples = exact = 0
    for c in EnumeratedClass(ninputs, 4, alphabet).members():
        ratio = poly_constant_ratio(expand_to_polynomial(c), target)
        is_multiple, is_target = ratio not in (None, 0), ratio == 1
        assert verify_claims_efun(c, *dims, cfg_scale).accept == is_multiple
        assert verify_claims_efun(c, *dims, cfg_norm).accept == is_target
        members += 1
        multiples += is_multiple
        exact += is_target
    assert (members, multiples, exact) == frozen


def test_sampled_verdicts_match_exhaustive_on_the_efun_class():
    # over the bound-4 E(1,2) class, sampled exact and sampled modular
    # verify_claims_efun agree with exhaustive mode on every member, with
    # normalize off (E and 2E three times accept) and on (E alone)
    members = accepts_off = accepts_on = 0
    for c in EnumeratedClass(2, 4, (-1, 0, 1, 2)).members():
        members += 1
        for normalize in (False, True):
            want = verify_claims_efun(
                c, 1, 2, VerifyConfig(mode="exhaustive", normalize=normalize)).accept
            for ring in ("exact", "modular"):
                cfg = VerifyConfig(ring=ring, normalize=normalize)
                assert verify_claims_efun(c, 1, 2, cfg).accept == want, (
                    serialize_circuit(c), ring, normalize)
            accepts_on += want and normalize
            accepts_off += want and not normalize
    assert (members, accepts_off, accepts_on) == (2688, 4, 1)


@pytest.mark.parametrize(
    "n, frozen",
    [
        (2, (1, 13, 15, "692f1e64ee63e7ea")),
        (3, (1, 214, 220, "bea82d648aaf470b")),
        (4, (1, 4821, 4845, "038e89df760c4756")),
    ],
)
def test_nullspace_frozen(n, frozen):
    res = perm_symmetry_nullspace(n)
    basis = hashlib.sha256(repr(sorted(res.basis[0].items())).encode()).hexdigest()[:16]
    assert (res.dim, res.forced_zero, len(res.monomials), basis) == frozen


@pytest.mark.parametrize(
    "n, frozen",
    [(2, (1, 13, 15, "a82ee3aafce33990")), (3, (1, 214, 220, "64f762d07286f879"))],
)
def test_nullspace_frozen_at_seed_1(n, frozen):
    # every basis vector's items in order, not only the first vector's set
    res = perm_symmetry_nullspace(n, seed=1)
    items = repr([list(vec.items()) for vec in res.basis])
    basis = hashlib.sha256(items.encode()).hexdigest()[:16]
    assert (res.dim, res.forced_zero, len(res.monomials), basis) == frozen


# ---------------------------------------------------------------------------
# sampled suites from their per-shape plan, against the generation path they
# replace, with each law spelled from its group element: the queries at a
# round's X and g X through var_map and act, then canonicalize_queries' sort


def _law_query(kind, params, X, g, shape, side, factor=None) -> Query:
    rel, coeffs = (REL_EQUAL, ()) if factor is None else (REL_SCALED, (factor,))
    return Query(kind, params, rel, coeffs, (X, act(var_map(g, shape, side), X)))


def _reference_perm(n, seed, rounds, box, nonzero_count, normalize):
    shape, queries = (SQUARE, n), []
    for r in range(rounds):
        rng = random.Random(derive_seed("P", n, seed, r))
        X = rand_point(rng, n * n, box)
        left, right = rand_point(rng, n, box), rand_point(rng, n, box)
        for i in range(1, n):
            queries.append(_law_query("PPermLeft", (i, r), X, PermSwap(i), shape, "left"))
            queries.append(_law_query("PPermRight", (i, r), X, PermSwap(i), shape, "right"))
        for kind, side, mu in (("PDiagLeft", "left", left), ("PDiagRight", "right", right)):
            factor = math.prod(mu)
            queries.append(_law_query(kind, (r,) + mu, X, Diagonal(mu), shape, side, factor))
    for t in range(nonzero_count):
        rng = random.Random(derive_seed("Pnz", n, seed, t))
        queries.append(Query(P_NONZERO, (t,), REL_NONZERO, (), (rand_point(rng, n * n, box),)))
    if normalize:
        queries.append(Query(NORMALIZE, (), REL_CONST, (1,), (symtests.identity_point(n),)))
    return canonicalize_queries(queries)


def _reference_efun(m, k, seed, rounds, box, nonzero_count, normalize, det_factor_mode):
    corrected = det_factor_mode == "det-corrected"
    shape, size, queries = (BLOCK, m, k), k * m * m, []
    for r in range(rounds):
        rng = random.Random(derive_seed("E", m, k, seed, r))
        X = rand_point(rng, size, box)
        for i, j in itertools.permutations(range(1, m + 1), 2):
            y = rand_point(rng, 1, box)[0]
            queries.append(_law_query("EElem", ("add", i, j, y, r), X, ElementaryAdd(i, j, y),
                                      shape, "left"))
        if corrected:
            mu = rand_point(rng, m, box)
            queries.append(_law_query("EElem", ("diag", r) + mu, X, Diagonal(mu), shape, "left",
                                      math.prod(mu) ** k**m))
            for i in range(1, m):
                queries.append(_law_query("EElem", ("swap", i, r), X, PermSwap(i), shape, "left",
                                          (-1) ** k**m))
        else:
            mu = symtests._literal_diag_entries(rng, m)
            queries.append(_law_query("EElem", ("diag1", r) + mu, X, Diagonal(mu), shape, "left"))
            for j in range(3, m + 1):
                queries.append(_law_query("EElem", ("cycle", 1, 2, j, r), X, RowCycle(1, 2, j),
                                          shape, "left"))
        for g in k_generators(m, k):
            params = (type(g).__name__,) + tuple(g) + (r,)
            queries.append(_law_query("EKGen", params, X, g, shape, "right"))
        vanish = symtests._primary_vanish_point(rng, m, k, box)
        queries.append(Query(E_PRIMARY_VANISH, (r,), REL_CONST, (0,), (vanish,)))
    for t in range(nonzero_count):
        rng = random.Random(derive_seed("Enz", m, k, seed, t))
        queries.append(Query(E_NONZERO, (t,), REL_NONZERO, (), (rand_point(rng, size, box),)))
    if normalize:
        point = symtests.unit_columns_point(m, k)
        queries.append(Query(NORMALIZE, (), REL_CONST, (1,), (point,)))
    return canonicalize_queries(queries)


# (target, dims, det mode) of the parity grid; at 10 rounds and more the
# round's text sorts "10" before "2", and a 1- or 2-bit box makes drawn y
# values collide, so a row addition's order falls back to its round; a
# suite of 0 rounds holds only its one-point queries
PLAN_CASES = [("perm", (n,), "det-corrected") for n in (1, 2, 3, 4)] + [
    ("efun", dims, mode)
    for dims in ((1, 2), (2, 2), (1, 3), (3, 2), (2, 3))
    for mode in ("det-corrected", "literal")
]


@pytest.mark.parametrize("target, dims, mode", PLAN_CASES)
def test_planned_suites_match_the_sorted_reference(target, dims, mode):
    # 20 seeds per (rounds, box); the seed walks nonzero counts 0, 1, 3
    # and normalize on and off through all six pairs.  The boxes are 1, 2,
    # 62 and 1024 bits wide, and band 1 of the 62-bit box, as certificates draw.
    boxes = [sample_box(width) for width in (1, 2, 62, 1024)] + [sample_box(62, 1)]
    for rounds, box, seed in itertools.product((0, 1, 2, 3, 10, 11), boxes, range(20)):
        args = (seed, rounds, box, (0, 1, 3)[seed % 3], seed % 2 == 0)
        if target == "perm":
            got, want = gen_queries_perm(*dims, *args), _reference_perm(*dims, *args)
        else:
            got = gen_queries_efun(*dims, *args, mode)
            want = _reference_efun(*dims, *args, mode)
        assert got == want, (target, dims, mode, args)
        # the suite's columns are its distinct points; each row's slots, and
        # its params and coeffs, are its query's
        t = symtests._template(target, dims, mode, rounds, *args[3:])
        columns, params, coeffs, rows = symtests._suite(t, seed, box)
        assert set(columns) == {P for q in want for P in q.points}
        assert [(kind, params[at], rel, coeffs[at], tuple(columns[i] for i in s))
                for kind, rel, at, _, s in rows] == list(want)


REFERENCE_TARGETS = (
    ("perm", (2,), perm_circuit(2)),
    ("perm", (3,), perm_circuit(3)),
    ("perm", (4,), perm_circuit(4)),
    ("efun", (1, 2), efun_circuit(1, 2)),
    ("efun", (2, 2), efun_circuit(2, 2)),
    ("efun", (1, 3), efun_circuit(1, 3)),
    ("perm", (2,), det_circuit(2)),
    ("perm", (3,), det_circuit(3)),
    ("perm", (2,), scale_circuit(perm_circuit(2), 2)),
)


@pytest.mark.parametrize("ring", ("exact", "modular"))
def test_run_queries_matches_the_verifier_path(ring):
    # a verifier decides its suite's rows as run_queries decides the queries
    # gen_queries_* makes of them; the 3-bit box adds failing rows on
    # accepted targets, whose values (residues, modular) are the witnesses
    failed = dict.fromkeys((62, 3), 0)
    for (target, dims, c), seed, width in itertools.product(REFERENCE_TARGETS, range(50),
                                                            failed):
        cfg = VerifyConfig(seed=seed, ring=ring, sample_width=width)
        gen = gen_queries_perm if target == "perm" else gen_queries_efun
        report = symtests.run_queries(c, gen(*dims, seed, box=cfg.box()), ring=ring, seed=seed)
        verify = verify_claims_perm if target == "perm" else verify_claims_efun
        res = verify(c, *dims, cfg)
        notes = ("sub-threshold k (characterization converse needs k >= 3)",) * (
            target == "efun" and dims[1] < 3) + (f"ring={ring}",)
        bound = sampled_error_bound(formal_degree(lower(c)), cfg.box(), cfg.rounds)
        assert (res.accept, res.verdicts, res.error_bound, res.notes) == (
            report.accept, report.verdicts, bound, notes), (target, dims, seed, width)
        failed[width] += sum(not v.passed for v in res.verdicts)
    assert failed[62] and failed[3] > failed[62]


def test_a_passing_verify_builds_no_query(monkeypatch):
    # every Query a call builds is counted when it is freed, however it was built
    built = []

    class Counted(Query):
        __slots__ = ()

        def __del__(self):
            built.append(self.kind)

    monkeypatch.setattr(symtests, "Query", Counted)
    for ring in ("exact", "modular"):
        res = verify_claims_perm(perm_circuit(3), 3, VerifyConfig(seed=2, ring=ring))
        assert res.accept
        del res
        gc.collect()
    assert built == []
    # the counter sees what gen_queries_perm builds, and a rejected modular
    # verify builds none either: its failed rows settle from their coeffs
    assert len(gen_queries_perm(3, 2)) == 16
    gc.collect()
    assert len(built) == 16
    res = verify_claims_perm(det_circuit(3), 3, VerifyConfig(seed=2, ring="modular"))
    gc.collect()
    assert not res.accept and len(built) == 16


def test_act_on_one_variable_returns_a_tuple():
    # itemgetter over one index returns the entry itself
    assert act(((0,), None, None), (7,)) == (7,)
    assert act(var_map(Diagonal((3,)), (SQUARE, 1), "left"), (7,)) == (21,)


def _reference_var_map(g, shape: tuple, side: str) -> tuple:
    """Every element's map, spelled out per variable."""
    nrows = shape[1]
    k = shape[2] if shape[0] == BLOCK else 1
    ncols = nrows * k
    if isinstance(g, Diagonal):
        line = (lambda v: v // ncols) if side == "left" else (lambda v: v % ncols)
        return None, tuple(g.entries[line(v)] for v in range(nrows * ncols)), None
    if isinstance(g, ElementaryAdd):
        i, j = g.i - 1, g.j - 1
        if side == "left":
            pairs = tuple((i * ncols + c, j * ncols + c) for c in range(ncols))
        else:
            pairs = tuple((r * ncols + j, r * ncols + i) for r in range(nrows))
        return None, None, (pairs, g.y)
    # moves[old] = new index of a moved row (left) or column (right)
    if isinstance(g, PermSwap):
        moves = {g.i - 1: g.i, g.i: g.i - 1}
    elif isinstance(g, RowCycle):
        moves = {g.a - 1: g.b - 1, g.b - 1: g.c - 1, g.c - 1: g.a - 1}
    elif isinstance(g, ColSwap):  # choices 1 and 2 at position i
        moves = {(g.i - 1) * k: (g.i - 1) * k + 1, (g.i - 1) * k + 1: (g.i - 1) * k}
    elif isinstance(g, ColCycle):
        moves = {(g.i - 1) * k + j: (g.i - 1) * k + (j + 1) % k for j in range(k)}
    else:  # PosThreeCycle moves whole k-column groups a -> b -> c -> a
        to = {g.a: g.b, g.b: g.c, g.c: g.a}
        moves = {(p - 1) * k + j: (to[p] - 1) * k + j for p in to for j in range(k)}
    dest = []
    for v in range(nrows * ncols):
        r, c = divmod(v, ncols)
        if side == "left":
            r = moves.get(r, r)
        else:
            c = moves.get(c, c)
        dest.append(r * ncols + c)
    return tuple(dest), None, None


def test_var_maps_match_the_spelled_out_maps():
    for shape, g, side in ACTIONS:
        assert var_map(g, shape, side) == _reference_var_map(g, shape, side), (shape, g, side)


# ---------------------------------------------------------------------------
# result records


def test_result_records_keep_their_fields_defaults_and_repr():
    assert symtests.RunReport._fields == ("accept", "verdicts", "mode", "primes")
    assert symtests.RunReport._field_defaults == {"primes": ()}
    assert symtests.VerifyResult._fields == ("accept", "mode", "verdicts", "error_bound", "notes")
    assert symtests.VerifyResult._field_defaults == {"notes": ()}
    verdicts = (symtests.Verdict(0, P_NONZERO, True), symtests.Verdict(1, "k", False, (3, -4)))
    report = symtests.RunReport(False, verdicts, "modular", (7,))
    assert repr(report) == (
        "RunReport(accept=False, verdicts=(Verdict(index=0, kind='PNonZero', passed=True,"
        " witness=()), Verdict(index=1, kind='k', passed=False, witness=(3, -4))),"
        " mode='modular', primes=(7,))")
    assert report == symtests.RunReport(False, verdicts, "modular", (7,))
    assert report != symtests.RunReport(False, verdicts, "modular")
    result = symtests.VerifyResult(False, "sampled", verdicts, 0.5)
    assert repr(result) == (
        "VerifyResult(accept=False, mode='sampled', verdicts=" + repr(verdicts)
        + ", error_bound=0.5, notes=())")
    assert result.transcript() == "QUERY 0 PNonZero pass\nQUERY 1 k fail 3 -4\nREJECT\n"
    assert result == symtests.VerifyResult(False, "sampled", verdicts, 0.5, ())
    assert hash(result) == hash(symtests.VerifyResult(False, "sampled", verdicts, 0.5))


def test_verifier_results_equal_a_rebuilt_record():
    c = perm_circuit(3)
    for cfg in (VerifyConfig(seed=2), VerifyConfig(seed=2, ring="modular"),
                VerifyConfig(seed=2, mode="exhaustive")):
        res = verify_claims_perm(c, 3, cfg)
        assert res.accept and res == symtests.VerifyResult(*res)
        assert res.transcript().endswith("ACCEPT\n")
        assert all(type(v) is symtests.Verdict for v in res.verdicts)
