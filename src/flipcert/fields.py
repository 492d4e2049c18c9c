"""Primality, prime and small extension fields, and the Frobenius trace.

is_prime and random_prime serve the modular query runs, which reduce plain
integers mod the product of the distinct drawn primes in circuits.run_many:
once per output after an exact run, or at every step when the program's bit
bound passes circuits.EXACT_BITS.  With the run exact and each query
decided once modulo that product, modular perm(4) costs about 0.42 ms a
suite against 0.34 ms in the exact ring (BENCH_34.json: scripts/bench.py
--section sampled minima, Python 3.11 on a 2-core x86-64 VM), and most of
the difference is drawing the three 31-bit primes, about 25 us each: the
gcd with the odd primes below 256 keeps four odd candidates in five from
Miller-Rabin, and the three pow() calls that certify a 31-bit prime (bases
2, 7, 61) cost about 4.5 us apiece at that width, with the host's speed.
No circuit is evaluated over a field.

The trace machinery (the trace-tools command) works in an extension
F_{q^l} = F_q[t]/(f) for a monic irreducible f, and its elements are plain
tuples: the l residues of an element over the power basis 1, t, ...,
t^(l-1), the only basis a field has.  ExtField adds, multiplies and
raises them to powers; PrimeField only checks q.  On these tuples the
module provides the Frobenius trace, the trace form's Gram matrix, the dual
basis as the rows of its inverse, and coefficient extraction via trace
products, plus the one-line field spec the CLI prints.

Everything is exact; there are no floats anywhere in this module.
"""

from __future__ import annotations

import math
import random
from itertools import islice
from typing import Iterator, Sequence

from .errors import BudgetError, SingularTraceForm, UsageError

# Miller-Rabin is deterministic below the smallest strong pseudoprime to all
# of its bases: 4,759,123,141 for 2, 7, 61 (Jaeschke 1993; every 31-bit
# number), psi_13 = 3,317,044,064,679,887,385,961,981 for the first 13
# primes 2..41.  VerifyConfig caps --prime-bits at 81 and 2^81 < psi_13, so
# every query prime is certainly prime; above psi_13 the test is
# probabilistic.  Base 61 reads 0 at n = 61, so every n below 256 is
# answered by membership in the primes below 256, and any larger n sharing
# a factor with them is rejected by one gcd with their product.
_MR_SMALL_BOUND = 4_759_123_141
_MR_SMALL = (2, 7, 61)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = frozenset(
    p for p in range(2, 256) if all(p % d for d in range(2, math.isqrt(p) + 1))
)
_ODD_PRODUCT = math.prod(_SMALL_PRIMES - {2})


def is_prime(n: int) -> bool:
    """Deterministic below psi_13 (see _MR_WITNESSES)."""
    if n < 256:
        return n in _SMALL_PRIMES
    return n % 2 == 1 and math.gcd(n, _ODD_PRODUCT) == 1 and _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin for odd n >= 256, with the bases _MR_SMALL below
    _MR_SMALL_BOUND and _MR_WITNESSES above it."""
    m = n - 1
    s = (m & -m).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = m >> s
    for a in _MR_SMALL if n < _MR_SMALL_BOUND else _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, bits: int) -> int:
    """Uniform-ish prime with exactly `bits` bits; bits must be >= 16.

    A candidate is odd and at least 2^15, so the gcd with the odd primes
    below 256 and Miller-Rabin decide it as is_prime would."""
    if bits < 16:
        raise UsageError(f"prime width {bits} below the 16-bit floor")
    draw, k, top, gcd = rng.getrandbits, bits - 1, 1 << (bits - 1) | 1, math.gcd
    while True:
        cand = draw(k) | top
        if gcd(cand, _ODD_PRODUCT) == 1 and _miller_rabin(cand):
            return cand


def int_bitlength(n: int) -> int:
    # Accounting convention: 0 costs one bit, a sign costs one bit.
    return max(1, abs(n).bit_length()) + (1 if n < 0 else 0)


class PrimeField:
    """F_q for prime q: the one place a field's q is checked for primality.

    Its residues are plain ints; ExtField and find_irreducible build one to
    refuse a composite q."""

    def __init__(self, q: int):
        if not is_prime(q):
            raise UsageError(f"{q} is not prime")
        self.q = q


# ---------------------------------------------------------------------------
# Polynomial helpers over F_q.  Polynomials are tuples of residues, ascending
# degree, normalized so the last entry is nonzero (the zero poly is ()).


def _poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(a, b, q):
    n = max(len(a), len(b))
    return _poly_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % q for i in range(n)])


def _poly_mul(a, b, q):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


def _poly_mod(a, f, q):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i in range(df + 1):
                a[shift + i] = (a[shift + i] - lead * f[i]) % q
        a.pop()
    return _poly_trim(a)


def _poly_powmod(a, e, f, q):
    result = (1,)
    base = _poly_mod(a, f, q)
    while e > 0:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, q), f, q)
        base = _poly_mod(_poly_mul(base, base, q), f, q)
        e >>= 1
    return result


def _poly_gcd(a, b, q):
    # the monic gcd; b is nonzero (a monic modulus)
    while b:
        lead_inv = pow(b[-1], -1, q)
        bm = tuple(c * lead_inv % q for c in b)
        a, b = b, _poly_mod(a, bm, q)
    lead_inv = pow(a[-1], -1, q)
    return tuple(c * lead_inv % q for c in a)


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def poly_is_irreducible(f: Sequence[int], q: int) -> bool:
    """Rabin's test for a monic polynomial over F_q."""
    f = tuple(v % q for v in f)
    l = len(f) - 1
    if l < 1 or f[-1] != 1:
        return False
    x = (0, 1)
    # x^(q^l) == x mod f
    if _poly_powmod(x, q**l, f, q) != _poly_mod(x, f, q):
        return False
    for p in _prime_factors(l):
        h = _poly_powmod(x, q ** (l // p), f, q)
        diff = _poly_add(h, tuple(-c % q for c in x), q)
        if _poly_gcd(diff, f, q) != (1,):
            return False
    return True


def _digit_vectors(q: int, l: int) -> Iterator[tuple[int, ...]]:
    """Each code 0 .. q^l - 1 as its l base-q digits, least significant first,

    made one code at a time: no pool of q entries is ever built."""
    return (tuple(code // q**i % q for i in range(l)) for code in range(q**l))


# find_irreducible's scan length.  Every prime q < 200 at 2 <= l <= 6 needs
# at most 210 candidates (q = 197, l = 6), but every t^l + c is reducible at
# (2^31 - 1, 4) and (65519, 3), so the first irreducible there lies past
# 2^31 and 65519 candidates; 10,000 Rabin tests take 3.6 to 10 s there
# (2-core Xeon VM, Python 3.11.7).
MAX_IRREDUCIBLE_SCAN = 10_000
# the largest extension degree; `trace-tools --q 2`, whose Gram matrix is
# 2l - 1 traces of l - 1 Frobenius powers, took 0.2 s at l = 24, 0.7 s at 32
# and 7.9 s at 64 (2-core Xeon VM, Python 3.11.7)
MAX_EXT_DEGREE = 32


def _check_degree(l: int) -> None:
    if l < 1:
        raise UsageError(f"extension degree must be >= 1, got {l}")
    if l > MAX_EXT_DEGREE:
        raise UsageError(f"extension degree must be at most {MAX_EXT_DEGREE}, got {l}")


def find_irreducible(q: int, l: int) -> tuple[int, ...]:
    """First monic irreducible of degree l, scanning the non-leading
    coefficients (f_0, ..., f_{l-1}) in little-endian numeric order; a
    BudgetError after MAX_IRREDUCIBLE_SCAN candidates."""
    _check_degree(l)
    PrimeField(q)  # refuses a composite q
    if l == 1:
        return (0, 1)
    for coeffs in islice(_digit_vectors(q, l), MAX_IRREDUCIBLE_SCAN):
        f = coeffs + (1,)
        if poly_is_irreducible(f, q):
            return f
    raise BudgetError(
        f"no irreducible of degree {l} over F_{q} among the first "
        f"{MAX_IRREDUCIBLE_SCAN} candidates; give one with --modulus"
    )


# ---------------------------------------------------------------------------


class ExtField:
    """F_{q^l} presented as F_q[t] modulo a monic irreducible of degree l.

    An element is the l-tuple of its residues over the power basis 1, t,
    ..., t^(l-1), whose unit tuples are held in `basis`; add, mul and pow
    take and return such tuples.
    """

    def __init__(self, q: int, l: int, modulus: Sequence[int] | None = None):
        _check_degree(l)
        self.q = PrimeField(q).q
        self.l = l
        if modulus is None:
            modulus = find_irreducible(q, l)
        modulus = tuple(v % q for v in modulus)
        if len(modulus) != l + 1 or modulus[-1] != 1:
            raise UsageError("modulus must be monic of degree l")
        if not poly_is_irreducible(modulus, q):
            raise UsageError(f"modulus {modulus} is reducible over F_{q}")
        self.modulus = modulus
        self.basis = tuple(self._pad((0,) * i + (1,)) for i in range(l))

    def _pad(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        return tuple(coeffs) + (0,) * (self.l - len(coeffs))

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return tuple((a + b) % self.q for a, b in zip(x, y))

    def mul(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return self._pad(_poly_mod(_poly_mul(x, y, self.q), self.modulus, self.q))

    def pow(self, x: Sequence[int], e: int) -> tuple[int, ...]:
        """x^e for e >= 0."""
        return self._pad(_poly_powmod(x, e, self.modulus, self.q))

    def gen(self) -> tuple[int, ...]:
        """The residue class of t: t itself, or -f_0 when l = 1."""
        return self._pad(_poly_mod((0, 1), self.modulus, self.q))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return _digit_vectors(self.q, self.l)


def frobenius_trace(F: ExtField, x: Sequence[int]) -> int:
    """Trace of x to the prime field, x + x^q + ... + x^(q^(l-1)), as a residue."""
    acc = y = x
    for _ in range(F.l - 1):
        y = F.pow(y, F.q)
        acc = F.add(acc, y)
    if any(acc[1:]):
        raise SingularTraceForm("trace landed outside the prime field")  # unreachable: Frobenius fixes a trace
    return acc[0]


def trace_form_gram(F: ExtField) -> list[list[int]]:
    """Gram matrix G[i][j] = trace(b_i * b_j) = trace(t^(i+j)) as residues,
    over F's power basis: the 2l - 1 traces of t^0, ..., t^(2l-2) fill it."""
    traces, x, t = [], F.basis[0], F.gen()
    for _ in range(2 * F.l - 1):
        traces.append(frobenius_trace(F, x))
        x = F.mul(x, t)
    return [traces[i : i + F.l] for i in range(F.l)]


def _matrix_inverse_mod(rows: Sequence[Sequence[int]], q: int):
    """Inverse of a square matrix over F_q; SingularTraceForm if singular."""
    n = len(rows)
    a = [[rows[i][j] % q for j in range(n)] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c] % q), None)
        if piv is None:
            raise SingularTraceForm(f"the trace form's Gram matrix is singular mod {q}")
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, q)
        a[r] = [v * inv % q for v in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(a[i][j] - f * a[r][j]) % q for j in range(2 * n)]
        r += 1
    return [row[n:] for row in a]


def dual_basis(F: ExtField, gram: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis (b_i*) with trace(b_i* b_j) = delta_ij, as power-basis
    coordinates: b_i* = sum_j G^-1[i][j] t^j, so these are the rows of the
    inverse of gram = trace_form_gram(F).

    Raises SingularTraceForm when the Gram matrix is not invertible (cannot
    happen for a separable extension with a genuine basis, but the check is
    what makes the construction trustworthy).
    """
    return _matrix_inverse_mod(gram, F.q)


def extract_coeffs(F: ExtField, x: Sequence[int], dual: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coordinates of x over F's basis, via trace against dual = dual_basis(F, gram)."""
    return tuple(frobenius_trace(F, F.mul(d, x)) for d in dual)


def format_field_spec(F: ExtField) -> str:
    """One line: q l f_0 ... f_l (modulus coefficients, ascending)."""
    return " ".join(str(v) for v in (F.q, F.l, *F.modulus))
