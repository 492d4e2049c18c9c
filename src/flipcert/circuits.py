"""Arithmetic circuits: parsing, evaluation, expansion.

A circuit is a DAG of nodes with one designated output, held as a
straight-line program: node t is an (op, a, b) int triple, (OP_INPUT, i, 0)
reading input i, (OP_CONST, v, 0) the integer v, or (OP_ADD | OP_SUB |
OP_MUL, a, b) combining the values of earlier nodes a and b.  Size is the
node count; bitsize additionally charges each constant its bit length.

lower(c) is the program up to the output, so the output is its last value,
and one interpreter reads it over Python integers: run_many(prog, points)
walks it once for every point, each step one column of values, by
map(operator.mul, ...) and the like.  evaluate() runs it on one point; the
sampled suites, the decoder and the hitting-set code run a query's or a
set's points together.  Programs are not kept per circuit: a class sweep
holds tens of thousands of circuits at once.

One static walk per program, kept for the last 64 programs, bounds each
step's bits at w-bit inputs by D * w + H and gives the output's formal
degree.  bound_fits compares that bound with a limit in O(1), and
check_eval_budget refuses a run that may pass MAX_EVAL_BITS = 2^22 bits
before it starts, at the width of the widest entry the run can meet.

With a modulus q, for the modular query runs, run_many reads the bound at
the widest point entry.  When it stays within EXACT_BITS = 1024, the exact
loop runs and each output is reduced mod q once; otherwise every step is
reduced mod q.  Each call still scans its entries for the width.  Z -> Z/q
is a ring map, so both give the same residues; the rule only picks the faster
kernel.  Exact-then-reduce time over reduce-every-step time, with q the
product of three 31-bit primes and 22 points (Python 3.11 on a 2-core Xeon
VM, minimum of 7 runs):

  perm(4)   bound  519: 0.46   1023: 0.82   1523: 1.35   8023: 17.5
  E(2,2)    bound  996: 0.59   1524: 0.84   2004: 1.07   4004: 2.19
  perm(3)   bound  377: 0.54    755: 0.64   1130: 0.90   1505: 1.26
  x^(2^k)   bound  496: 0.96    992: 1.14   1984: 1.81  63488: 171

Wide sums cross over later than a squaring chain, whose every step is a
product at the full width.  The sampled suites draw entries of at most
about 124 bits (a 62-bit box entry times a drawn factor), where perm(4)
bounds at 519 bits and E(2,2) at 996, so every reference target runs
exactly: run_many over modular perm(4)'s 22 points takes 0.22 ms, against
0.53 ms reducing every step (min of 9 timeit runs, at this commit).

The text format, one node per line:

    ninputs 2
    g0 = input 0
    g1 = input 1
    g2 = mul g0 g1
    output g2

Node ids must strictly increase, every reference must point backwards, and
exactly one output line closes the file.  '#' starts a comment.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    ArityMismatch,
    BadArity,
    BudgetExceeded,
    DagViolation,
    IndexOutOfRange,
    ParseError,
    TermBudgetExceeded,
    UsageError,
)
from .fields import int_bitlength
from .util import int_token, quoted

OP_INPUT, OP_CONST, OP_ADD, OP_SUB, OP_MUL = range(5)
OP_NAMES = ("input", "const", "add", "sub", "mul")  # the text form's op names

Program = tuple  # tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Circuit:
    num_inputs: int
    nodes: Program
    output: int

    def __post_init__(self):
        if self.num_inputs < 0:
            raise UsageError("negative input count")
        if not self.nodes:
            raise UsageError("a circuit needs at least one node")
        for t, (op, a, b) in enumerate(self.nodes):
            if op == OP_INPUT:
                if not 0 <= a < self.num_inputs:
                    raise IndexOutOfRange(
                        f"node {t} reads input {a} of {self.num_inputs}"
                    )
            elif op in (OP_ADD, OP_SUB, OP_MUL):
                if not (0 <= a < t and 0 <= b < t):
                    raise DagViolation(f"node {t} references a non-earlier node")
            elif op != OP_CONST:
                raise UsageError(f"node {t} has unknown op {op!r}")
        if not 0 <= self.output < len(self.nodes):
            raise UsageError(f"output index {self.output} out of range")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def bitsize(self) -> int:
        extra = sum(int_bitlength(a) for op, a, _ in self.nodes if op == OP_CONST)
        return self.size + extra


def parse_circuit(text: str) -> Circuit:
    num_inputs = None
    ids: dict[str, int] = {}
    nodes: list[tuple[int, int, int]] = []
    output: int | None = None
    last_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if num_inputs is None:
            if toks[0] != "ninputs" or len(toks) != 2:
                raise ParseError(f"line {lineno}: expected 'ninputs <n>' first")
            num_inputs = int_token(toks[1], f"line {lineno}")
            if num_inputs < 0:
                raise ParseError(f"line {lineno}: negative input count")
            continue
        if output is not None:
            raise ParseError(f"line {lineno}: content after the output line")
        if toks[0] == "output":
            if len(toks) != 2:
                raise BadArity(f"line {lineno}: output takes one node id")
            output = _ref(toks[1], ids, lineno)
            continue
        if len(toks) < 3 or toks[1] != "=" or not toks[0].startswith("g"):
            raise ParseError(f"line {lineno}: expected 'g<i> = <op> ...'")
        gid = toks[0]
        try:
            id_num = int(gid[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: bad node id {quoted(gid)}") from None
        if id_num <= last_id:
            raise ParseError(f"line {lineno}: node ids must strictly increase")
        last_id = id_num
        op, args = toks[2], toks[3:]
        if op == "input":
            if len(args) != 1:
                raise BadArity(f"line {lineno}: input takes one index")
            node = (OP_INPUT, int_token(args[0], f"line {lineno}"), 0)
        elif op == "const":
            if len(args) != 1:
                raise BadArity(f"line {lineno}: const takes one integer")
            node = (OP_CONST, int_token(args[0], f"line {lineno}"), 0)
        elif op in ("add", "sub", "mul"):
            if len(args) != 2:
                raise BadArity(f"line {lineno}: {op} takes two node ids")
            a, b = (_ref(t, ids, lineno) for t in args)
            node = (OP_NAMES.index(op), a, b)
        else:
            raise ParseError(f"line {lineno}: unknown op {quoted(op)}")
        ids[gid] = len(nodes)
        nodes.append(node)
    if num_inputs is None:
        raise ParseError("missing ninputs line")
    if output is None:
        raise ParseError("missing output line")
    return Circuit(num_inputs, tuple(nodes), output)


def _ref(tok: str, ids: Mapping[str, int], lineno: int) -> int:
    if tok in ids:
        return ids[tok]
    raise DagViolation(f"line {lineno}: reference to undeclared node {quoted(tok)}")


def serialize_circuit(c: Circuit) -> str:
    """Canonical text: consecutive ids, single spaces, LF endings."""
    lines = [f"ninputs {c.num_inputs}"]
    for t, (op, a, b) in enumerate(c.nodes):
        if op < OP_ADD:
            lines.append(f"g{t} = {OP_NAMES[op]} {a}")
        else:
            lines.append(f"g{t} = {OP_NAMES[op]} g{a} g{b}")
    lines.append(f"output g{c.output}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The evaluation kernel.  Step t of a program computes node t: (op, a, b)
# reads point[a] (INPUT), pushes the integer a (CONST), or combines the
# values of steps a and b (ADD, SUB, MUL).


def lower(c: Circuit) -> Program:
    """The program computing c's output; nodes after the output are dead
    and dropped."""
    return c.nodes[: c.output + 1]


# The bit bound up to which run_many mod q runs exactly; see the module
# docstring for the crossover it was set from.
EXACT_BITS = 1024
# the widest step a budgeted run computes: squaring a 2^21-bit value took
# 0.27 s, and each further doubling of the width about 3 times as long
MAX_EVAL_BITS = 1 << 22
# where a walk's d and h stop growing: past the widest sample box, 2^1024,
# so a saturated bound passes every limit and its degree every box's size
_SATURATED = 1 << 1025


def _fits_exactly(prog: Program, inputs: Sequence[Sequence[int]]) -> bool:
    """Whether every step of prog stays within EXACT_BITS bits at these
    input columns, by the static bound from the widest entry (bound_fits).
    The widest entry is the largest or the smallest, since bit_length
    grows with the absolute value, so the columns' max and min give it."""
    return bound_fits(prog, max(max(map(max, inputs), default=0).bit_length(),
                                min(map(min, inputs), default=0).bit_length()))


_walks: dict[int, tuple] = {}  # the last 64 programs' walks, each with its program


def _walk(prog: Program) -> tuple[int, int, int]:
    """(the output's d, D, H), D and H the largest d_t and h_t: an input has
    d 1 and h 0, a constant d 0 and h its bit length, a product the sums of
    its operands' and a sum or difference the larger d and the larger h
    plus one, each saturating at _SATURATED.  By induction step t's value
    at w-bit inputs has at most d_t * w + h_t bits.  A program is known by
    its identity: hashing its steps cost 1.9 us per lookup for perm(4)'s
    111 steps, against 0.2 us.  An entry holds its program, so no other
    program can take its id while the entry lasts."""
    hit = _walks.get(id(prog))
    if hit is not None and hit[0] is prog:
        return hit[1]
    # no min() or max() call per step: a class sweep walks every member, and
    # its 5 steps take about 1.7 us this way, 2.5 us with them (Python 3.11)
    degs, offs = [], []
    for op, a, b in prog:
        if op == OP_MUL:
            d, h = degs[a] + degs[b], offs[a] + offs[b]
        elif op == OP_INPUT:
            d, h = 1, 0
        elif op == OP_CONST:
            d, h = 0, a.bit_length()
        else:
            d = degs[a] if degs[a] > degs[b] else degs[b]
            h = (offs[a] if offs[a] > offs[b] else offs[b]) + 1
        if h > _SATURATED or d > _SATURATED:
            d, h = min(d, _SATURATED), min(h, _SATURATED)
        degs.append(d)
        offs.append(h)
    out = (degs[-1], max(degs), max(offs))
    if len(_walks) >= 64:
        _walks.pop(next(iter(_walks)))
    _walks[id(prog)] = (prog, out)
    return out


def formal_degree(prog: Program) -> int:
    """A bound on the total degree of prog's output (a sum may cancel), as
    the Schwartz-Zippel error bounds take it (_walk)."""
    return _walk(prog)[0]


def bound_fits(prog: Program, width: int, limit: int = EXACT_BITS) -> bool:
    """Whether every step of prog stays within `limit` bits when each
    input has `width` bits, by _walk's bound D * width + H."""
    _, top, offset = _walk(prog)
    return top * width + offset <= limit


def check_eval_budget(prog: Program, width: int) -> None:
    """Refuses prog unrun if a step may pass MAX_EVAL_BITS at `width`-bit inputs."""
    if not bound_fits(prog, width, MAX_EVAL_BITS):
        raise BudgetExceeded(f"a step may pass the {MAX_EVAL_BITS}-bit evaluation "
                             f"budget at {width}-bit inputs")


def run_many(prog: Program, points: Sequence[Sequence[int]], q: int = 0) -> list[int]:
    """The program's value at each point, in one walk of the program; with
    q > 0 each value is the residue in [0, q).

    Step t's values at every point form one column.  Mod q, the program
    runs exactly and each output is reduced once, unless its bit bound
    passes EXACT_BITS: then every step is reduced mod q.  Both give the
    same residues, since Z -> Z/q is a ring map.  Lengths are not checked
    (see check_arity)."""
    if not points:
        return []
    inputs = list(zip(*points))  # input i's value at every point
    cols: list[Sequence[int]] = []
    push = cols.append
    if q and not _fits_exactly(prog, inputs):
        for op, a, b in prog:
            if op == OP_MUL:
                push([x * y % q for x, y in zip(cols[a], cols[b])])
            elif op == OP_ADD:
                push([(x + y) % q for x, y in zip(cols[a], cols[b])])
            elif op == OP_SUB:
                push([(x - y) % q for x, y in zip(cols[a], cols[b])])
            elif op == OP_INPUT:
                push([x % q for x in inputs[a]])
            else:
                push([a % q] * len(points))
        return cols[-1]
    for op, a, b in prog:
        if op == OP_MUL:
            push(list(map(operator.mul, cols[a], cols[b])))
        elif op == OP_ADD:
            push(list(map(operator.add, cols[a], cols[b])))
        elif op == OP_SUB:
            push(list(map(operator.sub, cols[a], cols[b])))
        elif op == OP_INPUT:
            push(inputs[a])
        else:
            push([a] * len(points))
    if q:
        return [v % q for v in cols[-1]]
    return list(cols[-1])  # an input column is a tuple


def check_arity(c: Circuit, point: Sequence) -> None:
    if len(point) != c.num_inputs:
        raise ArityMismatch(
            f"circuit takes {c.num_inputs} inputs, point has {len(point)}"
        )


def evaluate(c: Circuit, point: Sequence[int]) -> int:
    """Exact value at an integer point.

    A bool or non-int coordinate is a UsageError.  To evaluate one circuit
    at many points, call run_many(lower(c), points) once."""
    check_arity(c, point)
    for x in point:
        if isinstance(x, bool) or not isinstance(x, int):
            raise UsageError(f"expected an integer, got {type(x).__name__}")
    return run_many(lower(c), [point])[0]


# ---------------------------------------------------------------------------
# Sparse polynomial expansion.  A polynomial in n variables is a dict mapping
# exponent tuples (length n) to nonzero integer coefficients; {} is zero.

Poly = dict

# expand_to_polynomial's last success: (circuit, expansion).  One slot, not
# one per circuit: a class sweep holds tens of thousands of circuits, and a
# member is expanded again right after its first expansion.
_last_expansion: tuple = (None, {})
MAX_TERMS = 200_000  # monomials one node's expansion may hold, for every caller
# term products one expansion may form, about 1.5 us each: exhaustive E(3,2)
# forms 407,598; (x0 + x1) squared 16 times stops after 351,581, in 0.5 s
MAX_TERM_PRODUCTS = 1_000_000


def expand_to_polynomial(c: Circuit) -> Poly:
    """Exact expansion of the output as a sparse integer polynomial.

    Raises TermBudgetExceeded as soon as any intermediate node's expansion
    holds more than MAX_TERMS monomials, or before a product would take the
    products formed past MAX_TERM_PRODUCTS, nodes after the output included.
    Every coefficient is nonzero, so a sum that cancels was stored before
    and is deleted; the exhaustive checks in symtests rely on it.

    The last successful expansion is remembered with its circuit object; a
    call on that same object returns a copy of it.  Every call returns a
    dict the caller owns.
    """
    global _last_expansion
    last, poly = _last_expansion
    if last is c:
        return dict(poly)
    max_terms = MAX_TERMS
    zero_exp = (0,) * c.num_inputs
    add = operator.add
    polys: list[Poly] = []
    push, products = polys.append, 0
    for t, (op, a, b) in enumerate(c.nodes):
        if op == OP_MUL:
            products += len(polys[a]) * len(polys[b])
            if products > MAX_TERM_PRODUCTS:
                raise TermBudgetExceeded(
                    f"node {t} expansion would pass {MAX_TERM_PRODUCTS} term products")
            p: Poly = {}
            get = p.get
            pb = polys[b].items()
            for ea, ca in polys[a].items():
                for eb, cb in pb:
                    exp = tuple(map(add, ea, eb))
                    nv = get(exp, 0) + ca * cb
                    if nv:
                        p[exp] = nv
                    else:
                        del p[exp]
                if len(p) > max_terms:
                    raise TermBudgetExceeded(
                        f"node {t} expansion passed {max_terms} terms"
                    )
        elif op == OP_ADD:
            p = dict(polys[a])
            get = p.get
            for exp, coeff in polys[b].items():
                nv = get(exp, 0) + coeff
                if nv:
                    p[exp] = nv
                else:
                    del p[exp]
        elif op == OP_SUB:
            p = poly_sub(polys[a], polys[b])
        elif op == OP_INPUT:
            p = {zero_exp[:a] + (1,) + zero_exp[a + 1 :]: 1}
        else:
            p = {zero_exp: a} if a else {}
        if len(p) > max_terms:
            raise TermBudgetExceeded(f"node {t} expansion passed {max_terms} terms")
        push(p)
    poly = polys[c.output]
    _last_expansion = (c, poly)
    return dict(poly)


def poly_eval(p: Poly, point: Sequence[int]) -> int:
    acc = 0
    for exps, coeff in p.items():
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term *= x**e
        acc += term
    return acc


def poly_total_degree(p: Poly) -> int:
    """Total degree; the zero polynomial reports -1."""
    return max((sum(e) for e in p), default=-1)


def poly_max_var_degree(p: Poly) -> int:
    """Largest exponent of any single variable; -1 for the zero polynomial."""
    return max((max(e, default=0) for e in p), default=-1)


def poly_constant_ratio(p: Poly, q: Poly) -> Fraction | None:
    """Fraction lam with p = lam * q, or None if no such constant exists.

    Zero p against nonzero q yields Fraction(0); both zero yields Fraction(1).
    """
    if not q:
        return Fraction(1) if not p else None
    if not p:
        return Fraction(0)
    if set(p) != set(q):
        return None
    items = iter(p.items())
    exp0, c0 = next(items)
    lam = Fraction(c0, q[exp0])
    for exp, c in items:
        if Fraction(c, q[exp]) != lam:
            return None
    return lam


# -- symbolic variable transforms (used by the exact identity checkers) ----


def poly_remap_vars(p: Poly, perm: Sequence[int]) -> Poly:
    """Substitute x_v -> x_{perm[v]}; perm must be a permutation."""
    out: Poly = {}
    for exps, coeff in p.items():
        ne = [0] * len(exps)
        for v, e in enumerate(exps):
            ne[perm[v]] = e
        out[tuple(ne)] = coeff
    return out


def poly_scale_vars(p: Poly, factors: Sequence[int]) -> Poly:
    """Substitute x_v -> factors[v] * x_v."""
    out: Poly = {}
    for exps, coeff in p.items():
        c = coeff
        for v, e in enumerate(exps):
            if e:
                c *= factors[v] ** e
        if c:  # every key is kept, so no two terms meet
            out[exps] = c
    return out


def poly_subst_consts(p: Poly, bindings: Mapping[int, int]) -> Poly:
    """Substitute x_v -> bindings[v] for the bound variables."""
    out: Poly = {}
    for exps, coeff in p.items():
        c = coeff
        ne = list(exps)
        for v, val in bindings.items():
            e = exps[v]
            if e:
                c *= val**e
            ne[v] = 0
        if c:
            key = tuple(ne)
            nv = out.get(key, 0) + c
            if nv:
                out[key] = nv
            else:
                del out[key]
    return out


def poly_row_add_subst(p: Poly, pairs: Sequence[tuple[int, int]], y: int) -> Poly:
    """Simultaneous substitution x_d -> x_d + y * x_s for each (d, s) pair.

    The pairs must have distinct d's, and no s may appear as a d (true for
    row operations on distinct rows, which is the only use)."""
    sub = dict(pairs)
    out: Poly = {}
    for exps, coeff in p.items():
        terms = [(list(exps), coeff)]
        for d, s in sub.items():
            e = exps[d]
            if not e:
                continue
            new_terms = []
            for te, tc in terms:
                for a in range(e + 1):
                    ne = list(te)
                    ne[d] = a
                    ne[s] += e - a
                    new_terms.append((ne, tc * math.comb(e, a) * y ** (e - a)))
            terms = new_terms
        for te, tc in terms:
            key = tuple(te)
            nv = out.get(key, 0) + tc
            if nv:
                out[key] = nv
            else:  # tc may be 0 (y = 0), with no term at key yet
                out.pop(key, None)
    return out


def poly_scaled(p: Poly, factor: int) -> Poly:
    if factor == 0:
        return {}
    return {e: c * factor for e, c in p.items()}


def poly_sub(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        nv = out.get(e, 0) - c
        if nv:
            out[e] = nv
        else:
            out.pop(e, None)
    return out
