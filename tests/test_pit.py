"""Circuit-class enumeration, randomized identity testing, hitting sets.

The count 12 for one input, two nodes, alphabet {-1,1} is a hand
enumeration: [In], [C-1], [C1], and the nine two-node circuits
[In,Add(0,0)], [In,Sub(0,0)], [In,Mul(0,0)], [C-1,Mul(0,0)], [C1,Mul(0,0)],
[C-1,Add(0,0)] dedup rules included -- re-derived below by an independent
brute-force recount.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from circuit_ops import circuit_from_ops, step_bits, walk_bits
from flipcert import pit
from flipcert.builders import perm_circuit
from flipcert.circuits import (
    OP_ADD,
    OP_CONST,
    OP_INPUT,
    OP_MUL,
    Circuit,
    evaluate,
    expand_to_polynomial,
    formal_degree,
    lower,
    parse_circuit,
    poly_total_degree,
    serialize_circuit,
)
from flipcert.errors import ArityMismatch, ParseError, PoolExhausted, UsageError
from flipcert.pit import (
    EnumeratedClass,
    ExplicitClass,
    build_hitting_set_greedy,
    class_size,
    disjoint_hitting_families,
    hitting_set_axioms_report,
    parse_hitting_set,
    pit_error_bound,
    pit_random,
    serialize_hitting_set,
    verify_hitting_set,
)


def _dag_key(c: Circuit):
    """Ordering-independent identity: the recursive structure of the output,
    read off lower(c)'s (op, a, b) triples.

    Dead-code-free circuits with node dedup are determined by it; commutative
    operands are sorted so add(a,b) and add(b,a) agree."""
    prog = lower(c)
    memo: dict[int, tuple] = {}

    def rec(t: int) -> tuple:
        if t in memo:
            return memo[t]
        op, a, b = prog[t]
        if op in (OP_INPUT, OP_CONST):
            s = (op, a)
        else:
            x, y = rec(a), rec(b)
            if op in (OP_ADD, OP_MUL) and repr(y) < repr(x):
                x, y = y, x
            s = (op, x, y)
        memo[t] = s
        return s

    return rec(c.output)


def _brute_force_count(num_inputs: int, bound: int, alphabet: tuple[int, ...]) -> int:
    """Independent recount: every op sequence, deduplicated by DAG

    structure rather than by the enumerator's canonical ordering rule."""
    seen = set()

    def all_ops(prefix_len: int):
        for i in range(num_inputs):
            yield ("input", i)
        for v in alphabet:
            yield ("const", v)
        for a, b in itertools.product(range(prefix_len), repeat=2):
            yield ("add", a, b)
            yield ("sub", a, b)
            yield ("mul", a, b)

    def extend(ops: list):
        if ops:
            used = {t for op in ops if len(op) == 3 for t in op[1:]}
            unused = [t for t in range(len(ops)) if t not in used]
            if len(unused) == 1 and unused[0] == len(ops) - 1:
                seen.add(_dag_key(circuit_from_ops(num_inputs, ops)))
        if len(ops) == bound:
            return
        for op in all_ops(len(ops)):
            if op in ops:
                continue  # node dedup
            ops.append(op)
            extend(ops)
            ops.pop()

    extend([])
    return len(seen)


def test_enumeration_counts_frozen():
    assert class_size(EnumeratedClass(1, 1, (1,))) == 2
    assert class_size(EnumeratedClass(1, 2, (-1, 1))) == 12
    assert class_size(EnumeratedClass(4, 3, (-1, 0, 1))) == 259


# SHA-256 of the concatenated circuit text of the members, in stream order:
# the whole 259-member class above, and the first 2,000 members of the
# class-sweep class (n=4, bound 5, {-1,0,1,2}).  Any change to the
# enumeration order or to a member moves them.
STREAM_DIGESTS = {
    (4, 3, (-1, 0, 1), None):
        "c5eb9c995db38c37de74cd7566421a88289b3e8fb20c6b65452827aaa651f4e4",
    (4, 5, (-1, 0, 1, 2), 2000):
        "dd34e1fe6bd1eb45c5c26c0f9858a2a5a6c0453ecbf9580097e9c68b0aeaa666",
}


@pytest.mark.parametrize("key", STREAM_DIGESTS, ids=("n4-b3", "n4-b5-first-2000"))
def test_enumeration_stream_digests_frozen(key):
    ninputs, bound, alphabet, head = key
    digest = hashlib.sha256()
    for c in itertools.islice(EnumeratedClass(ninputs, bound, alphabet).members(), head):
        digest.update(serialize_circuit(c).encode())
    assert digest.hexdigest() == STREAM_DIGESTS[key]


@pytest.mark.parametrize(
    "ninputs,bound,alphabet",
    [(1, 1, (1,)), (1, 2, (-1, 1)), (1, 3, (2,)), (2, 3, (0, 1))],
)
def test_enumeration_matches_brute_force(ninputs, bound, alphabet):
    assert class_size(EnumeratedClass(ninputs, bound, alphabet)) == _brute_force_count(
        ninputs, bound, alphabet
    )


def test_enumeration_members_are_valid_and_distinct():
    cls = EnumeratedClass(2, 3, (-1, 1))
    texts = set()
    for c in cls.members():
        assert c.size <= 3
        assert c.output == len(c.nodes) - 1
        texts.add(serialize_circuit(c))
    assert len(texts) == class_size(cls)


def test_bitsize_regime_counts_constant_bits():
    # Const(3) costs 3 in bitsize but 1 in size
    assert class_size(EnumeratedClass(1, 2, (3,), regime="bitsize")) == 4
    assert class_size(EnumeratedClass(1, 2, (3,), regime="size")) == 8


def test_alphabet_must_be_sorted():
    with pytest.raises(UsageError):
        EnumeratedClass(1, 2, (1, -1))


def test_pit_nonzero_with_witness():
    res = pit_random(perm_circuit(2), trials=4, seed=0)
    assert res.verdict == "nonzero"
    assert evaluate(perm_circuit(2), res.witness_point) == res.witness_value != 0


def test_pit_zero_circuit():
    # x - x has formal degree 1, so each trial misses with chance 1/2^62
    c = parse_circuit("ninputs 1\ng1 = input 0\ng2 = sub g1 g1\noutput g2\n")
    res = pit_random(c, trials=6, seed=0)
    assert res.verdict == "zero"
    assert res.error_bound == pit_error_bound(1, (1, 1 << 62), 6) == 2.0 ** -372


def test_pit_error_bound_formula():
    assert pit_error_bound(2, (1, 16), 3) == (2 / 16) ** 3
    assert pit_error_bound(15, (1, 16), 2) == (15 / 16) ** 2
    assert pit_error_bound(0, (1, 16), 2) == 0.0  # a constant is never missed
    assert pit_error_bound(16, (1, 16), 2) == 1.0  # capped at 1 per trial
    # a degree far past the float range caps before any division
    assert pit_error_bound(10**401, (1, 1 << 62), 8) == 1.0


@pytest.mark.parametrize("ninputs,bound,alphabet", [(2, 4, (-1, 0, 1)), (1, 5, (-1, 1))])
def test_formal_degree_bounds_the_expanded_degree(ninputs, bound, alphabet):
    # cancellation can only lower the degree the expansion reaches; the same
    # walk's bit bound is never below the per-step one (test_kernel)
    for c in EnumeratedClass(ninputs, bound, alphabet).members():
        prog = lower(c)
        assert formal_degree(prog) >= poly_total_degree(expand_to_polynomial(c))
        assert all(walk_bits(prog, w) >= step_bits(prog, w) for w in (1, 62, 124, 126))


def test_a_pool_of_one_point_is_accepted():
    hs = build_hitting_set_greedy(EnumeratedClass(1, 2, (-1, 1)), seed=0, pool_size=1)
    assert len(hs.points) == 1


def test_univariate_hitting_set_frozen():
    cls = EnumeratedClass(1, 4, (-2, -1, 1, 2))
    assert class_size(cls) == 2060
    hs = build_hitting_set_greedy(cls, seed=0, pool_size=64, box=(1, 1 << 16))
    assert hs.points == ((44033,),)
    report = verify_hitting_set(hs)
    assert report.nonzero_members == 1537
    assert report.valid
    assert report.evaluations == 1537


def test_hitting_set_deterministic():
    cls = EnumeratedClass(1, 3, (-1, 1))
    a = build_hitting_set_greedy(cls, seed=5, pool_size=32, box=(1, 256))
    b = build_hitting_set_greedy(cls, seed=5, pool_size=32, box=(1, 256))
    assert a.points == b.points


def test_planted_explicit_class():
    x1 = parse_circuit("ninputs 1\ng1 = input 0\ng2 = const 1\ng3 = sub g1 g2\noutput g3\n")
    x2 = parse_circuit("ninputs 1\ng1 = input 0\ng2 = const 2\ng3 = sub g1 g2\noutput g3\n")
    hs = build_hitting_set_greedy(ExplicitClass((x1, x2)), seed=0, pool_size=16, box=(1, 8))
    assert hs.points == ((6,),)
    assert verify_hitting_set(hs).valid


def test_verify_returns_first_violator():
    x1 = parse_circuit("ninputs 1\ng1 = input 0\ng2 = const 1\ng3 = sub g1 g2\noutput g3\n")
    x2 = parse_circuit("ninputs 1\ng1 = input 0\ng2 = const 2\ng3 = sub g1 g2\noutput g3\n")
    from flipcert.pit import HittingSet

    hs = HittingSet(points=((1,),), cls=ExplicitClass((x1, x2)))
    report = verify_hitting_set(hs)
    assert not report.valid
    assert report.violator == x1  # x - 1 vanishes at the only point


# zero members are skipped, so member indices and counts are of nonzero ones
ZERO = "ninputs 1\ng1 = input 0\ng2 = sub g1 g1\noutput g2\n"


def test_hitting_set_arity_mismatch_counts_nonzero_members():
    x1 = parse_circuit("ninputs 1\ng1 = input 0\noutput g1\n")
    y = parse_circuit("ninputs 2\ng1 = input 0\ng2 = input 1\ng3 = mul g1 g2\noutput g3\n")
    cls = ExplicitClass((parse_circuit(ZERO), x1, y))
    with pytest.raises(ArityMismatch, match="^member 1 takes 2 inputs, class has 1$"):
        build_hitting_set_greedy(cls, seed=0, pool_size=4, box=(1, 8))


def test_pool_exhausted_on_tiny_box():
    x1 = parse_circuit("ninputs 1\ng1 = input 0\ng2 = const 1\ng3 = sub g1 g2\noutput g3\n")
    # every candidate point in (1,1) is the root of x-1
    cls = ExplicitClass((parse_circuit(ZERO), x1))
    with pytest.raises(PoolExhausted, match="^pool of 4 cannot cover 1 members$"):
        build_hitting_set_greedy(cls, seed=0, pool_size=4, box=(1, 1))


def test_hitting_set_rejects_a_zero_input_class_before_enumerating():
    class NoInputs(ExplicitClass):
        def members(self):
            raise AssertionError("members enumerated before the usage check")

    with pytest.raises(UsageError, match="at least one variable"):
        build_hitting_set_greedy(NoInputs(()), seed=0, pool_size=4, box=(1, 8))


def test_hitting_set_serialization_roundtrip():
    cls = EnumeratedClass(1, 3, (-1, 1))
    hs = build_hitting_set_greedy(cls, seed=0, pool_size=16, box=(1, 64))
    text = serialize_hitting_set(hs)
    back = parse_hitting_set(text)
    assert back.points == hs.points
    assert back.cls == cls
    assert serialize_hitting_set(back) == text


def test_hitting_set_file_rejects_garbage():
    with pytest.raises(ParseError):
        parse_hitting_set("not a hitting set\n")


def test_explicit_class_not_serializable():
    x1 = parse_circuit("ninputs 1\ng1 = input 0\noutput g1\n")
    hs = build_hitting_set_greedy(ExplicitClass((x1,)), seed=0, pool_size=4, box=(1, 8))
    with pytest.raises(UsageError):
        serialize_hitting_set(hs)


def test_disjoint_families():
    cls = EnumeratedClass(1, 4, (-2, -1, 1, 2))
    fams = disjoint_hitting_families(cls, count=10, seed=0)
    assert len(fams) == 10
    flat = [hs.points for hs in fams]
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            assert not (set(flat[i]) & set(flat[j]))
    for hs in fams[:3]:
        assert verify_hitting_set(hs).valid


def test_disjoint_families_stop_at_a_band_whose_pool_fails(monkeypatch):
    # the first band whose pool cannot cover the class ends the list
    real = pit.build_hitting_set_greedy

    def weak_from_band_2(cls, seed, box):
        if box[0] > 2 << 16:
            raise PoolExhausted("weak band")
        return real(cls, seed=seed, box=box)

    monkeypatch.setattr(pit, "build_hitting_set_greedy", weak_from_band_2)
    fams = disjoint_hitting_families(EnumeratedClass(1, 3, (-1, 1)), count=5, seed=0)
    assert [{(v - 1) >> 16 for pt in hs.points for v in pt} for hs in fams] == [{0}, {1}]


def test_class_and_file_checks():
    with pytest.raises(UsageError, match="unknown regime 'depth'"):
        EnumeratedClass(1, 3, (-1, 1), regime="depth")
    text = "hitting-set v1\nclass enumerated n=1 bound=3 regime=size alphabet=-1,1\n"
    with pytest.raises(ParseError, match="point arity 2 mismatches class 1"):
        parse_hitting_set(text + "points 1\n1 2\n")


def test_axioms_report_fields():
    cls = EnumeratedClass(1, 3, (-1, 1))
    hs = build_hitting_set_greedy(cls, seed=0, pool_size=16, box=(1, 64))
    report = hitting_set_axioms_report(hs)
    assert report["rich"] is True
    assert report["points"] == len(hs.points)
    assert report["members"] == class_size(cls)
    assert report["total_bits"] == hs.total_bits
