"""The acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single summary line on success so a verbose run reads
as a checklist.  Criteria with runtime budgets assert the measured wall
time; randomized criteria fix their seeds, so reruns are byte-stable.
"""
from __future__ import annotations

import random
import time
from math import comb, sqrt

from flipcert.builders import det_circuit, efun_circuit, perm_circuit, scale_circuit
from flipcert.circuits import (
    expand_to_polynomial,
    parse_circuit,
    poly_constant_ratio,
    poly_total_degree,
)
from flipcert.designs import (
    DesignParams,
    build_design_greedy,
    count_designs_exhaustive,
    decode_design,
    encode_design,
    verify_design,
)
from flipcert.fields import (
    ExtField,
    dual_basis,
    extract_coeffs,
    find_irreducible,
    frobenius_trace,
    trace_form_gram,
)
from flipcert.obstruction import (
    CertConfig,
    derive_certificate,
    harness_F,
    random_truth_table,
)
from flipcert.pit import (
    EnumeratedClass,
    ExplicitClass,
    HittingSet,
    build_hitting_set_greedy,
    disjoint_hitting_families,
    pit_random,
    verify_hitting_set,
)
from flipcert.util import derive_seed
from flipcert.symtests import (
    VerifyConfig,
    gen_queries_efun,
    gen_queries_perm,
    gen_queries_selfreduce,
    perm_symmetry_nullspace,
    verify_claims_efun,
    verify_claims_perm,
)

PERM_TARGETS = (2, 3, 4)
EFUN_TARGETS = ((1, 2), (2, 2), (1, 3))


def test_criterion_01_symmetry_completeness():
    t0 = time.monotonic()
    rejections = 0
    runs = 0
    for seed in range(1000):
        for n in PERM_TARGETS:
            res = verify_claims_perm(perm_circuit(n), n, VerifyConfig(seed=seed))
            rejections += not res.accept
            runs += 1
        for m, k in EFUN_TARGETS:
            res = verify_claims_efun(
                efun_circuit(m, k), m, k, VerifyConfig(seed=seed)
            )
            rejections += not res.accept
            runs += 1
    elapsed = time.monotonic() - t0
    assert rejections == 0
    assert elapsed < 60.0
    print(
        f"criterion 1 (symmetry completeness): pass - {runs} verifications, "
        f"0 rejections, {elapsed:.1f}s"
    )


def test_criterion_02_soundness_vs_brute_force():
    t0 = time.monotonic()
    cls = EnumeratedClass(4, 5, (-1, 0, 1, 2))
    perm_poly = expand_to_polynomial(perm_circuit(2))
    cfg_scale = VerifyConfig(mode="exhaustive", normalize=False)
    cfg_norm = VerifyConfig(mode="exhaustive")
    members = 0
    disagreements = 0
    accepted_scale = accepted_norm = multiples = 0
    for c in cls.members():
        members += 1
        poly = expand_to_polynomial(c)
        ratio = poly_constant_ratio(poly, perm_poly)
        is_multiple = ratio is not None and ratio != 0
        acc_scale = verify_claims_perm(c, 2, cfg_scale).accept
        acc_norm = verify_claims_perm(c, 2, cfg_norm).accept
        multiples += is_multiple
        accepted_scale += acc_scale
        accepted_norm += acc_norm
        disagreements += acc_scale != is_multiple
        disagreements += acc_norm != (poly == perm_poly)
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert accepted_scale == multiples
    assert elapsed < 600.0
    # the class bound keeps the target itself out (it needs 7 nodes), so
    # also pin the two accept behaviors on explicit circuits
    assert verify_claims_perm(perm_circuit(2), 2, cfg_norm).accept
    doubled = scale_circuit(perm_circuit(2), 2)
    assert verify_claims_perm(doubled, 2, cfg_scale).accept
    assert not verify_claims_perm(doubled, 2, cfg_norm).accept
    print(
        f"criterion 2 (soundness vs brute force): pass - {members} circuits, "
        f"{accepted_scale} scale-accepts, {accepted_norm} exact-accepts, "
        f"0 disagreements, {elapsed:.1f}s"
    )


def test_criterion_03_nullspace_uniqueness():
    t0 = time.monotonic()
    for n in (2, 3):
        res = perm_symmetry_nullspace(n)
        assert res.dim == 1
        perm_poly = expand_to_polynomial(perm_circuit(n))
        ratio = poly_constant_ratio(res.basis[0], perm_poly)
        assert ratio is not None and ratio != 0
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"criterion 3 (nullspace uniqueness): pass - dim 1 spanned by the "
        f"permanent for n=2,3, {elapsed:.1f}s"
    )


def test_criterion_04_degree_law():
    for m, k in EFUN_TARGETS:
        poly = expand_to_polynomial(efun_circuit(m, k))
        assert poly_total_degree(poly) == m * k**m
    print(
        "criterion 4 (degree law): pass - total degree m*k^m exact for "
        "(1,2), (2,2), (1,3)"
    )


def test_criterion_05_query_size_contrast():
    violations = 0
    checked = 0
    for seed in range(50):
        for n in PERM_TARGETS:
            for q in gen_queries_perm(n, seed=seed, rounds=2, nonzero_count=3):
                checked += 1
                violations += len(q.points) > 2
        for m, k in EFUN_TARGETS:
            for mode in ("det-corrected", "literal"):
                for q in gen_queries_efun(
                    m, k, seed=seed, rounds=2, nonzero_count=3,
                    det_factor_mode=mode,
                ):
                    checked += 1
                    violations += len(q.points) > 2
    for seed in range(10):
        for n in PERM_TARGETS:
            for q in gen_queries_selfreduce(n, seed=seed, rounds=2):
                checked += 1
                if q.kind == "SelfReduce":
                    violations += len(q.points) != q.params[0] + 1
                else:
                    violations += len(q.points) != 1
    assert violations == 0
    assert checked > 3000
    print(
        f"criterion 5 (query size contrast): pass - {checked} queries, "
        f"0 size violations"
    )


def _planted_circuit(roots):
    lines = ["ninputs 1", "g1 = input 0"]
    g = 1
    factors = []
    for r in roots:
        g += 1
        lines.append(f"g{g} = const {r}")
        g += 1
        lines.append(f"g{g} = sub g1 g{g - 1}")
        factors.append(g)
    acc = factors[0]
    for fid in factors[1:]:
        g += 1
        lines.append(f"g{g} = mul g{acc} g{fid}")
        acc = g
    lines.append(f"output g{acc}")
    return parse_circuit("\n".join(lines) + "\n")


def test_criterion_06_schwartz_zippel_empirics():
    trials = 10_000
    cells = []
    for d in (2, 4, 8):
        for width in (4, 8):
            box_size = 1 << width
            rng = random.Random(derive_seed("sz-roots", d, width))
            roots = rng.sample(range(1, box_size + 1), d)
            c = _planted_circuit(roots)
            zeros = 0
            for t in range(trials):
                res = pit_random(
                    c,
                    trials=1,
                    seed=derive_seed("sz-trial", d, width, t),
                    box=(1, box_size),
                )
                zeros += res.verdict == "zero"
            rate = zeros / trials
            bound = d / box_size
            limit = bound + 3 * sqrt(bound * (1 - bound) / trials)
            assert rate <= limit, f"d={d} |S|={box_size}: {rate} > {limit}"
            cells.append(f"d={d}/|S|={box_size}: {rate:.4f}<={limit:.4f}")
    print("criterion 6 (SZ empirics): pass - " + "; ".join(cells))


def test_criterion_07_hitting_set_axioms():
    grid = [
        (1, 2, (-1, 1)),
        (1, 3, (-1, 1)),
        (1, 3, (-1, 0, 1)),
        (2, 2, (0, 1)),
        (2, 2, (-1, 0, 1)),
        (2, 3, (-1, 1)),
    ]
    for ninputs, bound, alphabet in grid:
        cls = EnumeratedClass(ninputs, bound, alphabet)
        hs = build_hitting_set_greedy(cls, seed=0, pool_size=64, box=(1, 1 << 16))
        assert verify_hitting_set(hs).valid

    families = disjoint_hitting_families(EnumeratedClass(1, 3, (-1, 1)), count=10)
    assert len(families) == 10
    for i in range(10):
        assert verify_hitting_set(families[i]).valid
        for j in range(i + 1, 10):
            assert not set(families[i].points) & set(families[j].points)

    # linear growth: same point set against member prefixes of one class
    big = EnumeratedClass(2, 3, (-1, 0, 1))
    members = list(big.members())
    hs_full = build_hitting_set_greedy(big, seed=0, pool_size=64, box=(1, 1 << 16))
    quarter = len(members) // 4
    sizes = [quarter, 2 * quarter, 4 * quarter]
    seconds = []
    per_member_evals = []
    for n in sizes:
        sub = HittingSet(points=hs_full.points, cls=ExplicitClass(tuple(members[:n])))
        best = float("inf")
        for _ in range(3):
            t0 = time.monotonic()
            rep = verify_hitting_set(sub)
            best = min(best, time.monotonic() - t0)
        assert rep.valid and rep.members_checked == n
        seconds.append(best)
        per_member_evals.append(rep.evaluations / n)
    assert max(per_member_evals) <= 2.0 * min(per_member_evals)
    assert seconds[2] <= seconds[0] * (sizes[2] / sizes[0]) * 3 + 0.05
    print(
        f"criterion 7 (hitting sets): pass - 6-cell grid valid, 10 disjoint "
        f"families, verify seconds {['%.4f' % s for s in seconds]} for "
        f"sizes {sizes}"
    )


def test_criterion_08_design_machinery():
    t0 = time.monotonic()
    big = build_design_greedy(DesignParams.from_provenance(16, 1, 2, 6))
    build_s = time.monotonic() - t0
    assert verify_design(big) is None
    assert build_s < 10.0

    assert count_designs_exhaustive(DesignParams(2, 2, 1, 0)) == 2
    assert count_designs_exhaustive(DesignParams(2, 2, 1, 1)) == 4
    assert count_designs_exhaustive(DesignParams(1, 6, 3, 3)) == comb(6, 3)

    roundtrips = 0
    for l, r, k_cap in [(6, 3, 2), (8, 3, 1), (9, 4, 2), (7, 2, 1), (10, 5, 3)]:
        for m_prime in (1, 2, 3, 4):
            for seed in range(5):
                d = build_design_greedy(DesignParams(m_prime, l, r, k_cap), seed=seed)
                assert decode_design(encode_design(d)) == d
                roundtrips += 1
    assert roundtrips == 100
    print(
        f"criterion 8 (design machinery): pass - m'=16 l=24 build "
        f"{build_s:.3f}s, 3 hand counts exact, 100 byte-exact roundtrips"
    )


def test_criterion_09_end_to_end_harness():
    t0 = time.monotonic()
    design = build_design_greedy(DesignParams(4, 6, 3, 1))
    config = CertConfig(
        target="perm", n=2, bound=3, seed_bits=4,
        truth_table=random_truth_table(3, 0),
    )
    cert = derive_certificate(design, config)
    cls = EnumeratedClass(4, 3, (-1, 0, 1))
    rep = harness_F(cert, cls, f2_samples=8)
    elapsed = time.monotonic() - t0

    by_name = {p.name: p for p in rep.properties}
    for name in ("F0", "F1a", "F1b", "F3", "F4"):
        assert by_name[name].passed, name
    assert f"decoded {rep.class_size}/{rep.class_size} members" in by_name["F1b"].detail
    assert "max counterexample set 2" in by_name["F1b"].detail
    assert rep.point_count < rep.trivial_rows
    assert "compression contrast" in rep.text()
    assert elapsed < 300.0
    print(
        f"criterion 9 (end-to-end harness): pass - F0,F1a,F1b,F3,F4 on "
        f"{rep.class_size} circuits, |S|={rep.point_count} vs "
        f"{rep.trivial_rows} trivial rows, {elapsed:.1f}s"
    )


def _det_mod(mat, q):
    n = len(mat)
    if n == 2:
        d = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    else:
        d = (
            mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
        )
    return d % q


def test_criterion_10_trace_machinery():
    failures = 0
    for q, l in ((2, 2), (2, 3), (3, 2), (5, 2)):
        F = ExtField(q, l, find_irreducible(q, l))
        gram = trace_form_gram(F)
        failures += _det_mod(gram, q) == 0
        dual = dual_basis(F, gram)
        for i, bi in enumerate(dual):
            for j, bj in enumerate(F.basis):
                want = 1 if i == j else 0
                failures += frobenius_trace(F, F.mul(bi, bj)) != want
        for x in F.elements():
            failures += extract_coeffs(F, x, dual) != x
    assert failures == 0
    print(
        "criterion 10 (trace machinery): pass - gram invertible, dual basis "
        "delta, coefficient roundtrip for (2,2),(2,3),(3,2),(5,2)"
    )
