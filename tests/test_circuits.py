"""Circuit DAGs: parsing, evaluation, expansion, and polynomial helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_ops import circuit_from_ops
from flipcert import circuits
from flipcert.circuits import (
    OP_ADD,
    OP_CONST,
    OP_INPUT,
    Circuit,
    evaluate,
    expand_to_polynomial,
    parse_circuit,
    poly_constant_ratio,
    poly_eval,
    poly_max_var_degree,
    poly_remap_vars,
    poly_row_add_subst,
    poly_scale_vars,
    poly_sub,
    poly_subst_consts,
    poly_total_degree,
    serialize_circuit,
)
from flipcert.errors import (
    BadArity,
    DagViolation,
    IndexOutOfRange,
    ParseError,
    TermBudgetExceeded,
    UsageError,
)

XY_TEXT = """ninputs 2
g1 = input 0
g2 = input 1
g3 = mul g1 g2
g4 = const 3
g5 = add g3 g4
output g5
"""


def test_parse_and_evaluate():
    c = parse_circuit(XY_TEXT)
    assert c.num_inputs == 2
    assert c.size == 5
    assert evaluate(c, (4, 5)) == 23


@pytest.mark.parametrize("bad", (True, 4.0, "4"), ids=("bool", "float", "str"))
def test_evaluate_rejects_non_integer_coordinates(bad):
    c = parse_circuit(XY_TEXT)
    with pytest.raises(UsageError, match="expected an integer"):
        evaluate(c, (bad, 5))
    with pytest.raises(UsageError, match="expected an integer"):
        evaluate(c, (4, bad))


def test_serialize_roundtrip_is_canonical():
    c = parse_circuit(XY_TEXT)
    text = serialize_circuit(c)
    assert parse_circuit(text) == c
    assert serialize_circuit(parse_circuit(text)) == text


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_circuit("g1 = input 0\noutput g1\n")  # missing ninputs
    with pytest.raises(DagViolation):
        parse_circuit("ninputs 1\ng1 = add g2 g2\noutput g1\n")  # forward ref
    with pytest.raises(BadArity):
        parse_circuit("ninputs 1\ng1 = input 0\ng2 = add g1\noutput g2\n")


# each malformed text with its error type and the message it must carry
PARSE_ERRORS = {
    "negative ninputs": ("ninputs -1\ng1 = const 1\noutput g1\n", ParseError,
                         "line 1: negative input count"),
    "after output": ("ninputs 1\ng1 = input 0\noutput g1\ng2 = input 0\n", ParseError,
                     "line 4: content after the output line"),
    "output arity": ("ninputs 1\ng1 = input 0\noutput g1 g1\n", BadArity,
                     "line 3: output takes one node id"),
    "bad node id": ("ninputs 1\ngx = input 0\noutput gx\n", ParseError,
                    "line 2: bad node id 'gx'"),
    "ids not increasing": ("ninputs 1\ng2 = input 0\ng1 = const 1\noutput g1\n",
                           ParseError, "line 3: node ids must strictly increase"),
    "const arity": ("ninputs 1\ng1 = const 1 2\noutput g1\n", BadArity,
                    "line 2: const takes one integer"),
    "input arity": ("ninputs 1\ng1 = input\noutput g1\n", BadArity,
                    "line 2: input takes one index"),
    "unknown op": ("ninputs 1\ng1 = pow 0\noutput g1\n", ParseError,
                   "line 2: unknown op 'pow'"),
    "no output": ("ninputs 1\ng1 = input 0\n", ParseError, "missing output line"),
    "empty": ("# nothing\n\n", ParseError, "missing ninputs line"),
    # Python's int() refuses a 5,000-digit literal; the circuit text must too
    "huge const": (f"ninputs 0\ng1 = const {'7' * 5000}\noutput g1\n", ParseError,
                   "line 2: expected an integer"),
}


@pytest.mark.parametrize("text, error, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
def test_parse_error_table(text, error, message):
    with pytest.raises(error) as info:
        parse_circuit(text)
    assert str(info.value).startswith(message)


def test_parse_skips_comments_and_blank_lines():
    text = "# x squared\nninputs 1\n\ng1 = input 0  # x\ng2 = mul g1 g1\noutput g2\n"
    assert serialize_circuit(parse_circuit(text)) == (
        "ninputs 1\ng0 = input 0\ng1 = mul g0 g0\noutput g1\n")


def test_circuit_needs_a_node():
    with pytest.raises(UsageError, match="at least one node"):
        Circuit(0, (), 0)


def test_dag_violation_direct_construction():
    x0, one = (OP_INPUT, 0, 0), (OP_CONST, 1, 0)
    bad = (
        ("unknown op", (x0, (5, 0, 0)), 1, UsageError),
        ("input index out of range", (x0, (OP_INPUT, 1, 0)), 1, IndexOutOfRange),
        ("negative input index", ((OP_INPUT, -1, 0),), 0, IndexOutOfRange),
        ("forward reference", (x0, (OP_ADD, 0, 2), one), 2, DagViolation),
        ("self-reference", (x0, (OP_ADD, 1, 1)), 1, DagViolation),
        ("negative reference", (x0, (OP_ADD, -1, 0)), 1, DagViolation),
        ("output out of range", (x0, one), 2, UsageError),
        ("negative output", (x0,), -1, UsageError),
    )
    for label, nodes, output, error in bad:
        with pytest.raises(error) as info:
            Circuit(1, nodes, output)
        assert type(info.value) is error, label
    assert Circuit(1, (x0, one, (OP_ADD, 0, 1)), 2).size == 3


def test_bitsize_counts_constant_bits():
    small = parse_circuit("ninputs 1\ng1 = input 0\ng2 = const 1\ng3 = mul g1 g2\noutput g3\n")
    big = parse_circuit("ninputs 1\ng1 = input 0\ng2 = const 255\ng3 = mul g1 g2\noutput g3\n")
    assert small.size == big.size
    assert big.bitsize > small.bitsize


def test_expand_matches_evaluate():
    c = parse_circuit(XY_TEXT)
    poly = expand_to_polynomial(c)
    assert poly == {(1, 1): 1, (0, 0): 3}
    rng = random.Random(0)
    for _ in range(20):
        pt = tuple(rng.randrange(-9, 10) for _ in range(2))
        assert poly_eval(poly, pt) == evaluate(c, pt)


def test_expand_zero_polynomial_is_empty():
    c = parse_circuit("ninputs 1\ng1 = input 0\ng2 = sub g1 g1\noutput g2\n")
    assert expand_to_polynomial(c) == {}
    assert poly_total_degree({}) == -1


def test_expand_term_budget(monkeypatch):
    # (x+1)^32 has 33 terms
    lines = ["ninputs 1", "g1 = input 0", "g2 = const 1", "g3 = add g1 g2"]
    prev = 3
    for i in range(5):
        lines.append(f"g{prev + 1} = mul g{prev} g{prev}")
        prev += 1
    lines.append(f"output g{prev}")
    c = parse_circuit("\n".join(lines) + "\n")
    monkeypatch.setattr(circuits, "MAX_TERMS", 10)
    with pytest.raises(TermBudgetExceeded):
        expand_to_polynomial(c)
    monkeypatch.setattr(circuits, "MAX_TERMS", 100)
    assert len(expand_to_polynomial(c)) == 33


def test_term_budget_checked_after_a_sum(monkeypatch):
    # x0 + x1 has two terms: the budget check after an ADD node fires
    c = parse_circuit("ninputs 2\ng1 = input 0\ng2 = input 1\ng3 = add g1 g2\noutput g3\n")
    monkeypatch.setattr(circuits, "MAX_TERMS", 1)
    with pytest.raises(TermBudgetExceeded, match="node 2 expansion passed 1 terms"):
        expand_to_polynomial(c)


def _binomial_power_circuit() -> Circuit:
    """(x + 1)^32: 33 terms, first past 10 terms at node 6."""
    lines = ["ninputs 1", "g1 = input 0", "g2 = const 1", "g3 = add g1 g2"]
    lines += [f"g{t + 1} = mul g{t} g{t}" for t in range(3, 8)]
    return parse_circuit("\n".join(lines + ["output g8"]) + "\n")


def _budget_message(c: Circuit) -> str:
    with pytest.raises(TermBudgetExceeded) as ei:
        expand_to_polynomial(c)
    return str(ei.value)


def test_a_failed_expansion_fails_again_at_the_same_node(monkeypatch):
    # only a success is remembered, so the same circuit object raises at
    # the same node with the same message as a fresh one
    monkeypatch.setattr(circuits, "MAX_TERMS", 10)
    c = _binomial_power_circuit()
    fresh = _budget_message(_binomial_power_circuit())
    assert _budget_message(c) == _budget_message(c) == fresh == "node 6 expansion passed 10 terms"
    monkeypatch.setattr(circuits, "MAX_TERMS", 32)
    assert _budget_message(c) == "node 7 expansion passed 32 terms"


def test_product_budget_is_checked_before_each_product(monkeypatch):
    # the squarings of (x + 1)^32 form 4, 9, 25, 81 and 289 term products,
    # 408 in all; the check before node 7's squaring sees 119 + 289
    monkeypatch.setattr(circuits, "MAX_TERM_PRODUCTS", 407)
    with pytest.raises(TermBudgetExceeded,
                       match="^node 7 expansion would pass 407 term products$"):
        expand_to_polynomial(_binomial_power_circuit())
    monkeypatch.setattr(circuits, "MAX_TERM_PRODUCTS", 408)
    assert len(expand_to_polynomial(_binomial_power_circuit())) == 33


def test_expansion_memo_hands_out_copies():
    c = _binomial_power_circuit()
    first = expand_to_polynomial(c)
    want = dict(first)
    first.clear()
    second = expand_to_polynomial(c)
    assert second == want
    second[(99,)] = 1
    del second[(0,)]
    assert expand_to_polynomial(c) == want


def test_expansion_memo_is_keyed_by_the_circuit_object():
    c = parse_circuit(XY_TEXT)
    twin = parse_circuit(XY_TEXT)
    other = parse_circuit(XY_TEXT.replace("const 3", "const 4"))
    assert twin == c and twin is not c
    want = {(1, 1): 1, (0, 0): 3}
    assert expand_to_polynomial(c) == want
    assert expand_to_polynomial(twin) == want
    assert expand_to_polynomial(other) == {(1, 1): 1, (0, 0): 4}
    assert expand_to_polynomial(c) == want
    assert expand_to_polynomial(twin) == want


def test_poly_helpers():
    poly = {(2, 0): 3, (0, 1): -1}
    assert poly_total_degree(poly) == 2
    assert poly_max_var_degree(poly) == 2
    assert poly_remap_vars(poly, (1, 0)) == {(0, 2): 3, (1, 0): -1}
    assert poly_scale_vars(poly, (2, 1)) == {(2, 0): 12, (0, 1): -1}
    assert poly_subst_consts(poly, {1: 5}) == {(2, 0): 3, (0, 0): -5}


def test_poly_row_add_subst_binomial():
    # x0^2 with x0 -> x0 + y*x1
    poly = {(2, 0): 1}
    out = poly_row_add_subst(poly, [(0, 1)], 3)
    assert out == {(2, 0): 1, (1, 1): 6, (0, 2): 9}
    # y = 0 is the identity substitution (it used to raise KeyError)
    assert poly_row_add_subst(poly, [(0, 1)], 0) == poly


def test_poly_constant_ratio():
    p = {(1, 0): 2, (0, 1): 4}
    q = {(1, 0): 1, (0, 1): 2}
    assert poly_constant_ratio(p, q) == Fraction(2)
    assert poly_constant_ratio(q, p) == Fraction(1, 2)
    assert poly_constant_ratio(p, {(1, 0): 1}) is None
    assert poly_constant_ratio(p, {(1, 0): 1, (0, 1): 1}) is None  # same support
    assert poly_constant_ratio({}, {}) == 1
    assert poly_constant_ratio({}, q) == 0


def test_poly_sub():
    p = {(1,): 1}
    assert poly_sub(p, p) == {}
    assert poly_sub(p, {(1,): 3}) == {(1,): -2}


def _random_circuit(rng: random.Random, num_inputs: int, extra: int) -> Circuit:
    ops: list[tuple] = [("input", i) for i in range(num_inputs)]
    for _ in range(extra):
        kind = rng.randrange(4)
        if kind == 0:
            ops.append(("const", rng.randrange(-4, 5)))
        else:
            a = rng.randrange(len(ops))
            b = rng.randrange(len(ops))
            ops.append((("add", "sub", "mul")[kind - 1], a, b))
    return circuit_from_ops(num_inputs, ops)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 6))
def test_expansion_agrees_with_evaluation_on_random_circuits(seed, ninp, extra):
    rng = random.Random(seed)
    c = _random_circuit(rng, ninp, extra)
    poly = expand_to_polynomial(c)
    for _ in range(5):
        pt = tuple(rng.randrange(-5, 6) for _ in range(ninp))
        assert poly_eval(poly, pt) == evaluate(c, pt)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_serialize_parse_identity_on_random_circuits(seed):
    rng = random.Random(seed)
    c = _random_circuit(rng, rng.randrange(1, 4), rng.randrange(1, 7))
    # serializer renumbers to consecutive ids; reparse must preserve meaning
    text = serialize_circuit(c)
    c2 = parse_circuit(text)
    pt = tuple(rng.randrange(-3, 4) for _ in range(c.num_inputs))
    assert evaluate(c, pt) == evaluate(c2, pt)
    assert serialize_circuit(c2) == text
