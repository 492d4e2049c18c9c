"""The evaluation kernel (lower/run_many) against independent oracles.

The oracle evaluators walk every node one point at a time, dispatching on
the op code, exact and reducing mod q at every step; they are kept here as
the reference together with a query runner built on them.  run_many is
checked against the exact oracle point by point, and mod q against the
modular one.  sympy, when installed, is an independent oracle for the
sparse expansion.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import lru_cache
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_ops import circuit_from_ops, step_bits, walk_bits
from flipcert.builders import det_circuit, efun_circuit, perm_circuit, scale_circuit
from flipcert.circuits import (
    EXACT_BITS,
    OP_ADD,
    OP_CONST,
    OP_INPUT,
    OP_MUL,
    OP_SUB,
    Circuit,
    bound_fits,
    evaluate,
    expand_to_polynomial,
    formal_degree,
    lower,
    parse_circuit,
    poly_eval,
    run_many,
    _fits_exactly,
    _walk,
    _walks,
    serialize_circuit,
)
from flipcert.errors import ArityMismatch, TermBudgetExceeded, UsageError
from flipcert.fields import random_prime
from flipcert.pit import EnumeratedClass, pit_error_bound
from flipcert.symtests import (
    P_NONZERO,
    Query,
    REL_CONST,
    REL_EQUAL,
    REL_LINEAR,
    REL_NONZERO,
    REL_SCALED,
    RunReport,
    Verdict,
    _failures,
    gen_queries_efun,
    gen_queries_perm,
    query_verdict,
    run_queries,
)
from flipcert.util import derive_seed, sample_box

REFERENCE_FILES = sorted((Path(__file__).resolve().parents[1] / "circuits").glob("*.ac"))
PRIMES = (2, 3, 7, 65537, 2**31 - 1, 2**61 - 1)
P31 = (2147483029, 2147483249, 2147483647)  # three 31-bit primes


# ---------------------------------------------------------------------------
# oracles


def oracle_evaluate(c: Circuit, point) -> int:
    if len(point) != c.num_inputs:
        raise ArityMismatch(
            f"circuit takes {c.num_inputs} inputs, point has {len(point)}"
        )
    out = [0] * len(c.nodes)
    for t, (op, a, b) in enumerate(c.nodes):
        if op == OP_INPUT:
            out[t] = point[a]
        elif op == OP_CONST:
            out[t] = a
        elif op == OP_ADD:
            out[t] = out[a] + out[b]
        elif op == OP_SUB:
            out[t] = out[a] - out[b]
        else:
            out[t] = out[a] * out[b]
    return out[c.output]


def oracle_evaluate_mod(c: Circuit, point, q: int) -> int:
    out = [0] * len(c.nodes)
    for t, (op, a, b) in enumerate(c.nodes):
        if op == OP_INPUT:
            out[t] = point[a] % q
        elif op == OP_CONST:
            out[t] = a % q
        elif op == OP_ADD:
            out[t] = (out[a] + out[b]) % q
        elif op == OP_SUB:
            out[t] = (out[a] - out[b]) % q
        else:
            out[t] = out[a] * out[b] % q
    return out[c.output]


def _oracle_relation_holds(q, vals) -> bool:
    if q.relation == REL_NONZERO:
        return bool(vals[0])
    if q.relation == REL_EQUAL:
        return vals[1] == vals[0]
    if q.relation == REL_SCALED:
        return vals[1] == q.coeffs[0] * vals[0]
    if q.relation == REL_LINEAR:
        acc = 0
        for c, v in zip(q.coeffs, vals[1:]):
            acc += c * v
        return vals[0] == acc
    if q.relation == REL_CONST:
        return vals[0] == q.coeffs[0]
    raise UsageError(f"unknown relation {q.relation!r}")


def _oracle_relation_holds_mod(q, vals, p: int) -> bool:
    if q.relation == REL_NONZERO:
        return vals[0] % p != 0
    if q.relation == REL_EQUAL:
        return (vals[1] - vals[0]) % p == 0
    if q.relation == REL_SCALED:
        return (vals[1] - q.coeffs[0] * vals[0]) % p == 0
    if q.relation == REL_LINEAR:
        acc = 0
        for c, v in zip(q.coeffs, vals[1:]):
            acc += c * v
        return (vals[0] - acc) % p == 0
    if q.relation == REL_CONST:
        return (vals[0] - q.coeffs[0]) % p == 0
    raise UsageError(f"unknown relation {q.relation!r}")


def oracle_run_queries(c, queries, ring="exact", prime_bits=31, prime_count=3, seed=0):
    primes: tuple[int, ...] = ()
    if ring == "modular":
        rng = random.Random(derive_seed("queryprimes", seed, prime_bits))
        primes = tuple(random_prime(rng, prime_bits) for _ in range(prime_count))
    verdicts = []
    accept = True
    for idx, q in enumerate(queries):
        vals: list = []  # stays empty when there is no prime to try
        if ring == "exact":
            vals = [oracle_evaluate(c, f) for f in q.points]
            ok = _oracle_relation_holds(q, vals)
        elif q.relation == REL_NONZERO:
            ok = False
            for p in primes:
                vals = [oracle_evaluate_mod(c, f, p) for f in q.points]
                if _oracle_relation_holds_mod(q, vals, p):
                    ok = True
                    break
        else:
            ok = True
            for p in primes:
                vals = [oracle_evaluate_mod(c, f, p) for f in q.points]
                if not _oracle_relation_holds_mod(q, vals, p):
                    ok = False
                    break
        witness: tuple = ()
        if not ok:
            witness = tuple(vals)
            accept = False
        verdicts.append(Verdict(idx, q.kind, ok, witness))
    return RunReport(accept, tuple(verdicts), ring, primes)


# ---------------------------------------------------------------------------
# circuit sources


@st.composite
def random_dags(draw) -> Circuit:
    """Arbitrary DAGs: repeated inputs and nodes, big constants, dead code,
    and an output anywhere in the node list."""
    num_inputs = draw(st.integers(1, 4))
    ops = []
    for t in range(draw(st.integers(1, 9))):
        kinds = ("input", "const", "add", "sub", "mul") if t else ("input", "const")
        op = draw(st.sampled_from(kinds))
        if op == "input":
            ops.append((op, draw(st.integers(0, num_inputs - 1))))
        elif op == "const":
            ops.append((op, draw(st.integers(-(2**70), 2**70))))
        else:
            ops.append((op, draw(st.integers(0, t - 1)), draw(st.integers(0, t - 1))))
    return circuit_from_ops(num_inputs, ops, draw(st.integers(0, len(ops) - 1)))


@lru_cache(maxsize=None)
def _class_members() -> tuple[Circuit, ...]:
    return tuple(EnumeratedClass(2, 4, (-1, 0, 1)).members())


@st.composite
def class_members(draw) -> Circuit:
    members = _class_members()
    return members[draw(st.integers(0, len(members) - 1))]


@lru_cache(maxsize=None)
def _reference_circuit(path: Path) -> Circuit:
    return parse_circuit(path.read_text())


def points(n: int, bound: int = 2**64):
    return st.lists(st.integers(-bound, bound), min_size=n, max_size=n).map(tuple)


def _check_against_oracles(c: Circuit, pt: tuple) -> None:
    prog = lower(c)
    exact = oracle_evaluate(c, pt)
    assert run_many(prog, [pt]) == [exact] == [evaluate(c, pt)]
    try:
        poly = expand_to_polynomial(c, max_terms=2000)
    except TermBudgetExceeded:
        poly = None
    if poly is not None:
        assert exact == poly_eval(poly, pt)
    for q in PRIMES:
        assert run_many(prog, [pt], q) == [oracle_evaluate_mod(c, pt, q)] == [exact % q]


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_oracles_on_random_dags(data):
    c = data.draw(random_dags())
    _check_against_oracles(c, data.draw(points(c.num_inputs)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_oracles_on_class_members(data):
    c = data.draw(class_members())
    _check_against_oracles(c, data.draw(points(c.num_inputs)))


@pytest.mark.parametrize("path", REFERENCE_FILES, ids=lambda p: p.name)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_kernel_matches_oracles_on_reference_files(path, data):
    c = _reference_circuit(path)
    _check_against_oracles(c, data.draw(points(c.num_inputs)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_many_matches_oracle_pointwise(data):
    c = data.draw(st.one_of(random_dags(), class_members()))
    pts = data.draw(st.lists(points(c.num_inputs), min_size=0, max_size=6))
    prog = lower(c)
    assert run_many(prog, pts) == [oracle_evaluate(c, p) for p in pts]
    for q in (P31[0], prod(P31)):
        assert run_many(prog, pts, q) == [oracle_evaluate_mod(c, p, q) for p in pts]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_mod_a_product_reduces_to_each_prime(data):
    c = data.draw(st.one_of(random_dags(), class_members()))
    pt = data.draw(points(c.num_inputs))
    prog = lower(c)
    [big] = run_many(prog, [pt], prod(P31))
    for p in P31:
        assert [big % p] == run_many(prog, [pt], p) == [oracle_evaluate_mod(c, pt, p)]


# run_many mod q runs exactly and reduces once when the program's bit bound
# stays within EXACT_BITS, and reduces every step otherwise.  Each case names
# the side of that crossover it sits on, and both sides must give the
# residues of oracle_evaluate_mod, which reduces every step.  The squaring
# chain and the 2000-bit points take the per-step loop; they are expected to
# run no slower than before the crossover existed (not asserted: timing).
SQUARING_CHAIN = circuit_from_ops(1, [("input", 0)] + [("mul", t, t) for t in range(60)])


def _sub_chain(big: int) -> Circuit:
    """x0 - c0, then 40 alternating subtractions of negative constants and
    of the inputs, with a product every eighth step; c0 = -big."""
    ops = [("input", 0), ("input", 1), ("const", -big), ("const", -7), ("sub", 0, 2)]
    for t in range(5, 45):
        if t % 8 == 0:
            ops.append(("mul", t - 1, 1))
        elif t % 2:
            ops.append(("sub", 3, t - 1))
        else:
            ops.append(("sub", t - 1, t % 3))
    return circuit_from_ops(2, ops)


def _kernel_cases():
    rng = random.Random(16)
    wide = lambda n, bits: [tuple(rng.getrandbits(bits) for _ in range(n)) for _ in range(4)]
    negative = lambda bits: [(-rng.getrandbits(bits), rng.getrandbits(bits)) for _ in range(6)]
    return {
        "squaring-chain": (SQUARING_CHAIN, wide(1, 62), False),
        "perm4-62-bit": (perm_circuit(4), wide(16, 62), True),
        "perm4-2000-bit": (perm_circuit(4), wide(16, 2000), False),
        "negative-subs": (_sub_chain(2**40 + 3), negative(62), True),
        "negative-subs-wide": (_sub_chain(2**1100 + 3), negative(62), False),
    }


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("q", (P31[0], prod(P31)), ids=("one-prime", "three-primes"))
@pytest.mark.parametrize("label", KERNEL_CASES)
def test_run_many_mod_q_on_both_sides_of_the_crossover(label, q):
    c, pts, exact = KERNEL_CASES[label]
    prog = lower(c)
    assert _fits_exactly(prog, list(zip(*pts))) is exact
    got = run_many(prog, pts, q)
    assert got == [oracle_evaluate_mod(c, p, q) for p in pts]
    assert all(0 <= v < q for v in got)
    if exact:
        assert got == [v % q for v in run_many(prog, pts)]


def test_bit_bound_crossover_is_exact_bits():
    # x0 * x0 at w-bit entries bounds at 2w bits
    square = lower(circuit_from_ops(1, [("input", 0), ("mul", 0, 0)]))
    half = EXACT_BITS // 2
    assert _fits_exactly(square, [(2**half - 1, -1)])
    assert not _fits_exactly(square, [(1, -(2**half))])
    # the width read from the columns is the widest entry's bit length, as
    # map(int.bit_length) over every entry gives it, on negative, zero and
    # mixed-sign columns: c * x0 with c of b bits bounds at width + b bits,
    # so it fits at b = EXACT_BITS - width and not at one bit more
    for columns in (
        [(-1, -(2**40), -7), (-(2**39), -2, -3)],
        [(0, 0, 0), (0, 0, 0)],
        [(5, -(2**70), 0), (2**69, -1, 3)],
        [(2**80, -3, 0), (-(2**79), 1, 0)],
        [(-(2**50),), (2**50 - 1,)],
        [(-(2**50) + 1,), (2**50,)],
    ):
        width = max(map(int.bit_length, itertools.chain.from_iterable(columns)))
        for bits, fits in ((EXACT_BITS - width, True), (EXACT_BITS - width + 1, False)):
            prog = lower(circuit_from_ops(2, [("const", 2 ** (bits - 1)), ("input", 0),
                                              ("mul", 0, 1)]))
            assert _fits_exactly(prog, columns) is fits, (columns, bits)


# The one cached walk bounds every step at w-bit inputs by D * w + H, which
# is never below the per-step walk it replaced (step_bits).
WIDTHS = (0, 1, 2, 62, 63, 124, 125, 126, 1024, 2050)


@settings(max_examples=300, deadline=None)
@given(random_dags())
def test_walk_bound_is_at_least_the_per_step_bound(c):
    prog = lower(c)
    for w in WIDTHS:
        assert walk_bits(prog, w) >= step_bits(prog, w)


# every class the tier-1 tests enumerate; criterion 2 checks its own
# (n=4, bound 5, {-1,0,1,2}) member by member, and test_pit's formal-degree
# test (n=2, bound 4, {-1,0,1}) and (n=1, bound 5, {-1,1})
TIER1_CLASSES = (
    (1, 1, (1,)), (1, 2, (-1, 1)), (1, 3, (-1, 1)), (1, 3, (-1, 0, 1)), (1, 3, (2,)),
    (1, 4, (-2, -1, 1, 2)), (2, 2, (1,)), (2, 2, (0, 1)), (2, 2, (-1, 0, 1)), (2, 3, (0, 1)),
    (2, 3, (-1, 1)), (2, 3, (-1, 0, 1)), (2, 4, (-1, 0, 1, 2)), (3, 4, (-1, 0, 1, 2)),
    (4, 2, (1,)), (4, 3, (-1, 0, 1)), (4, 4, (-1, 0, 1)), (4, 4, (-1, 0, 1, 2)),
    (8, 3, (-1, 0, 1)), (8, 4, (-1, 0, 1)),
)


def test_walk_bound_is_at_least_the_per_step_bound_on_every_tier1_class():
    classes = [EnumeratedClass(*spec) for spec in TIER1_CLASSES]
    classes.append(EnumeratedClass(1, 2, (3,), regime="bitsize"))
    for cls in classes:
        for c in cls.members():
            prog = lower(c)
            for w in (1, 62, 124, 126):
                assert walk_bits(prog, w) >= step_bits(prog, w), (serialize_circuit(c), w)


# the reference circuits: perm 2-4, det 3, E(1,2), E(2,2), E(1,3), E(2,3), 2 perm(2)
REFERENCE_CIRCUITS = {
    "perm2": perm_circuit(2), "perm3": perm_circuit(3), "perm4": perm_circuit(4),
    "det3": det_circuit(3), "E(1,2)": efun_circuit(1, 2), "E(2,2)": efun_circuit(2, 2),
    "E(1,3)": efun_circuit(1, 3), "E(2,3)": efun_circuit(2, 3),
    "2perm2": scale_circuit(perm_circuit(2), 2),
}


@pytest.mark.parametrize("label", REFERENCE_CIRCUITS)
def test_walk_bound_equals_the_per_step_bound_on_the_reference_circuits(label):
    prog = lower(REFERENCE_CIRCUITS[label])
    for w in (62, 124, 125, 126):
        assert walk_bits(prog, w) == step_bits(prog, w)


def test_walk_of_a_long_squaring_chain_is_linear():
    # the degree doubles at each step; saturation keeps every step's
    # numbers small, so 100,000 steps walk in well under a second
    prog = ((OP_INPUT, 0, 0),) + tuple((OP_MUL, t, t) for t in range(100_000))
    start = time.perf_counter()
    degree, top, offset = _walk(prog)
    assert time.perf_counter() - start < 1
    assert degree == top > 1 << 1024 and offset == 0
    assert not bound_fits(prog, 1, 1 << 30)
    assert pit_error_bound(degree, sample_box(1024), 1) == 1.0


def test_walk_is_kept_once_per_program():
    # one entry per program, whatever the widths and limits asked of it
    prog = lower(perm_circuit(3))
    first = _walk(prog)
    for w, limit in ((1, EXACT_BITS), (62, EXACT_BITS), (62, 100), (500, 1 << 22)):
        bound_fits(prog, w, limit)
    assert formal_degree(prog) == 3 and _walk(prog) is first
    assert [entry[0] is prog for entry in _walks.values()].count(True) == 1


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_dags(), class_members()))
def test_expansion_matches_sympy(c):
    sympy = pytest.importorskip("sympy")
    try:
        poly = expand_to_polynomial(c, max_terms=500)
    except TermBudgetExceeded:
        return
    xs = sympy.symbols(f"x:{c.num_inputs}")
    vals = []
    for op, a, b in c.nodes[: c.output + 1]:
        if op == OP_INPUT:
            vals.append(xs[a])
        elif op == OP_CONST:
            vals.append(sympy.Integer(a))
        elif op == OP_ADD:
            vals.append(vals[a] + vals[b])
        elif op == OP_SUB:
            vals.append(vals[a] - vals[b])
        else:
            vals.append(vals[a] * vals[b])
    expected = sympy.Poly(sympy.expand(vals[-1]), *xs).as_dict()
    assert poly == {e: int(v) for e, v in expected.items()}


def test_lower_drops_nodes_after_the_output():
    ops = [("input", 0), ("const", 3), ("mul", 0, 1), ("add", 2, 2)]
    c = circuit_from_ops(1, ops, output=2)
    assert lower(c) == ((0, 0, 0), (1, 3, 0), (4, 0, 1)) == c.nodes[:3]
    assert evaluate(c, (5,)) == 15


def test_evaluate_checks_arity():
    with pytest.raises(ArityMismatch):
        evaluate(perm_circuit(2), (1, 2, 3))


# ---------------------------------------------------------------------------
# golden: the query runner against the oracle-based one

SAMPLED_TARGETS = (
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
@pytest.mark.parametrize("seed", (0, 1, 977))
def test_run_queries_matches_oracle_run(ring, seed):
    rejects = 0
    for kind, dims, c in SAMPLED_TARGETS:
        gen = gen_queries_perm if kind == "perm" else gen_queries_efun
        queries = gen(*dims, seed)
        got = run_queries(c, queries, ring=ring, seed=seed)
        assert got == oracle_run_queries(c, queries, ring=ring, seed=seed)
        rejects += not got.accept
    assert rejects == 3  # det(2), det(3) and 2*perm(2)


def test_run_queries_shares_a_point_between_queries():
    X = (3, 5, 7, 11)
    same_X = tuple([3, 5, 7, 11])
    Y = (5, 3, 11, 7)  # X, columns swapped
    queries = (
        Query(P_NONZERO, (), REL_NONZERO, (), (X,)),
        Query("swap", (), REL_EQUAL, (), (X, Y)),
        Query("const", (), REL_CONST, (68,), (same_X,)),
        Query("twice", (), REL_SCALED, (2,), (X, same_X)),
    )
    c = perm_circuit(2)  # perm(X) = 3*11 + 5*7 = 68 = perm(Y)
    for ring in ("exact", "modular"):
        got = run_queries(c, queries, ring=ring, seed=5)
        assert got == oracle_run_queries(c, queries, ring=ring, seed=5)
        assert [v.passed for v in got.verdicts] == [True, True, True, False]
    # the failing scaled query reports both values of the one shared point
    assert got.verdicts[3].witness == (68 % got.primes[0],) * 2


def test_run_queries_with_one_prime():
    for kind, dims, c in SAMPLED_TARGETS:
        gen = gen_queries_perm if kind == "perm" else gen_queries_efun
        queries = gen(*dims, 3)
        got = run_queries(c, queries, ring="modular", prime_count=1, seed=3)
        assert len(got.primes) == 1
        assert got == oracle_run_queries(c, queries, ring="modular", prime_count=1, seed=3)


def test_run_queries_with_no_primes():
    # no prime can settle a nonzero query, and no prime can refute the rest
    queries = gen_queries_perm(2, 0)
    got = run_queries(det_circuit(2), queries, ring="modular", prime_count=0)
    assert got == oracle_run_queries(det_circuit(2), queries, ring="modular", prime_count=0)
    assert got.primes == ()
    for q, v in zip(queries, got.verdicts):
        assert v.passed == (q.relation != REL_NONZERO)
        assert v.witness == ()


def _radical_queries(p: int, rad: int) -> tuple[Query, ...]:
    """Queries on the identity circuit whose differences are multiples of
    rad, not of p^2, with two that fail at r and one at every prime."""
    return (
        Query(P_NONZERO, (0,), REL_NONZERO, (), ((rad,),)),
        Query(P_NONZERO, (1,), REL_NONZERO, (), ((p,),)),
        Query("const", (0,), REL_CONST, (0,), ((3 * rad,),)),
        Query("equal", (0,), REL_EQUAL, (), ((5,), (5 + rad,))),
        Query("scaled", (), REL_SCALED, (2,), ((7,), (14 + rad,))),
        Query("linear", (), REL_LINEAR, (2, 3), ((2 * 11 + 3 * 13 + rad,), (11,), (13,))),
        Query("const", (1,), REL_CONST, (0,), ((p,),)),
        Query("equal", (1,), REL_EQUAL, (), ((5,), (6,))),
    )


@pytest.mark.parametrize("primes", ((2**31 - 1, 2**31 - 1, 2**31 - 19), (2**31 - 1,) * 3))
def test_run_queries_with_repeated_primes(monkeypatch, primes):
    # a relation holds modulo each drawn prime iff it holds modulo the product
    # of the distinct ones; the product of all three would refute it at p^2
    import flipcert.symtests as symtests

    draws = itertools.cycle(primes)  # three per run, the same three each time

    def fake_random_prime(rng, bits):
        return next(draws)

    monkeypatch.setattr(symtests, "random_prime", fake_random_prime)
    monkeypatch.setitem(globals(), "random_prime", fake_random_prime)
    p, r = primes[0], primes[-1]
    rad = prod(set(primes))
    queries = _radical_queries(p, rad)
    c = circuit_from_ops(1, [("input", 0)])
    got = run_queries(c, queries, ring="modular", seed=1)
    assert got == oracle_run_queries(c, queries, ring="modular", seed=1)
    assert got.primes == primes
    # the nonzero query at p and the constant query at p differ only at r
    settled_at_r = p != r
    assert [v.passed for v in got.verdicts] == [
        False, settled_at_r, True, True, True, True, not settled_at_r, False
    ]
    assert got.verdicts[0].witness == (0,)
    assert got.verdicts[7].witness == (5, 6)
    if settled_at_r:
        assert got.verdicts[6].witness == (p % r,)


def _oracle_verdict(q: Query, vals: list, primes: tuple) -> tuple[bool, list]:
    """(passed, values at the settling prime) by the oracle relations."""
    if not primes:
        return _oracle_relation_holds(q, vals), vals
    settles = q.relation == REL_NONZERO
    res: list = []
    for p in primes:
        res = [v % p for v in vals]
        if _oracle_relation_holds_mod(q, vals, p) == settles:
            return settles, res
    return not settles, res


RELATION_CASES = (
    (REL_EQUAL, ()), (REL_SCALED, (3,)), (REL_NONZERO, ()), (REL_CONST, (4,)),
    (REL_LINEAR, (2, -1, 5)),
)


@settings(max_examples=400, deadline=None)
@given(
    case=st.sampled_from(RELATION_CASES),
    vals=st.lists(st.integers(-40, 40), min_size=4, max_size=4),
    primes=st.sampled_from(((), (2, 3, 5), (5, 5, 7), (7,), (3, 2))),
    spread=st.permutations(range(6)),
)
def test_relation_rule_agrees_with_query_verdict(case, vals, primes, spread):
    # the rule reads a row (kind, relation, at, pick, slots): its coeffs at
    # `at` in a coeffs list, its values in one value list at its slots, as a
    # run keeps them, and decides modulo the product of the distinct primes;
    # small values make every relation hold sometimes
    rel, coeffs = case
    n = len(coeffs) + 1 if rel == REL_LINEAR else 1 + (rel in (REL_EQUAL, REL_SCALED))
    vals = vals[:n]
    q = Query("k", (), rel, coeffs, tuple((v,) for v in vals))
    slots = spread[:n]
    values = [1000 + i for i in range(6)]
    for slot, v in zip(slots, vals):
        values[slot] = v
    moduli = primes or (0,)  # no prime: the exact ring
    rad = prod(set(moduli))
    want = _oracle_verdict(q, vals, primes)
    row = ("k", rel, 1, None, slots)
    assert _failures([row], [(), coeffs], values, rad) == ([] if want[0] else [0])
    assert query_verdict(q, vals, moduli) == want
    if not primes:  # in the exact ring a failed query reports its values
        got = run_queries(circuit_from_ops(1, [("input", 0)]), [q])
        assert got.verdicts == (Verdict(0, "k", want[0], () if want[0] else tuple(vals)),)


def test_failed_modular_queries_report_the_settling_residues():
    # each relation fails modulo the second drawn prime only, or for the
    # nonzero relation vanishes modulo every prime
    c = circuit_from_ops(1, [("input", 0)])
    p, r, s = run_queries(c, [], ring="modular", prime_bits=16, seed=4).primes
    rad = p * r * s
    queries = (
        Query("equal", (), REL_EQUAL, (), ((5,), (5 + p * s,))),
        Query("scaled", (), REL_SCALED, (3,), ((7,), (21 + 2 * p * s,))),
        Query("nonzero", (), REL_NONZERO, (), ((2 * rad,),)),
        Query("const", (), REL_CONST, (4,), ((4 + p * s,),)),
        Query("linear", (), REL_LINEAR, (2, 3), ((2 * 9 + 3 * 11 + p * s,), (9,), (11,))),
    )
    got = run_queries(c, queries, ring="modular", prime_bits=16, seed=4)
    assert got == oracle_run_queries(c, queries, ring="modular", prime_bits=16, seed=4)
    assert not any(v.passed for v in got.verdicts)
    for q, v in zip(queries, got.verdicts):
        vals = [P[0] for P in q.points]
        settle = s if q.relation == REL_NONZERO else r
        assert v.witness == tuple(x % settle for x in vals)
        assert (False, list(v.witness)) == query_verdict(q, vals, (p, r, s))


def test_run_queries_checks_arity_before_evaluating(monkeypatch):
    import flipcert.symtests as symtests

    def unreachable(*args):
        raise AssertionError("evaluated before the arity check")

    monkeypatch.setattr(symtests, "run_many", unreachable)
    queries = gen_queries_perm(3, 0)
    with pytest.raises(ArityMismatch, match="query point has 9 entries, circuit takes 4"):
        run_queries(perm_circuit(2), queries)
