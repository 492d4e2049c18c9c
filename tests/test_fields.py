"""Prime fields, extensions, and the trace machinery.

Frozen values below were computed by hand or by an independent scan before
the implementation existed: the F_4 modulus search order forces t^2+t+1,
F_9 forces t^2+1, F_8 forces t^3+t+1.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcert import fields
from flipcert.errors import BudgetError, SingularTraceForm, UsageError
from flipcert.fields import (
    ExtField,
    PrimeField,
    dual_basis,
    extract_coeffs,
    find_irreducible,
    format_field_spec,
    frobenius_trace,
    int_bitlength,
    is_prime,
    poly_is_irreducible,
    random_prime,
    trace_form_gram,
)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_carmichael():
    # 561 = 3*11*17 fools the Fermat test, not Miller-Rabin
    assert not is_prime(561)
    assert not is_prime(1729)
    assert is_prime((1 << 31) - 1)


PSI_3 = 25_326_001  # = 2251 * 11251, strong pseudoprime to 2, 3, 5
PSI_4 = 3_215_031_751  # = 151 * 751 * 28351, strong pseudoprime to 2, 3, 5, 7
PSI_12 = 318_665_857_834_031_151_167_461  # = 399165290221 * 798330580441


def test_is_prime_rejects_the_smallest_strong_pseudoprimes():
    # PSI_12 passes every base 2..37; only base 41 exposes it
    assert PSI_3 == 2251 * 11251
    assert PSI_4 == 151 * 751 * 28351
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_3)
    assert not is_prime(PSI_4)
    assert not is_prime(PSI_12)
    assert is_prime(41) and is_prime(43)


# the smallest strong pseudoprime to 2, 7 and 61 (Jaeschke 1993): below it
# those three bases decide primality, and every 31-bit number is below it
PSI_2_7_61 = 4_759_123_141  # = 48781 * 97561

# the next strong pseudoprime to 2, 3, 5, 7 after PSI_4: past _MR_SMALL_BOUND
# only the wider base set refutes it
SPSP_2357 = 118_670_087_467  # = 172243 * 688969

MR_13_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_rejects_the_smallest_strong_pseudoprime_to_2_7_61():
    assert PSI_2_7_61 == 48781 * 97561
    assert all(_strong_probable_prime(PSI_2_7_61, a) for a in (2, 7, 61))
    assert not is_prime(PSI_2_7_61)
    assert (1 << 31) < PSI_2_7_61


def test_is_prime_past_the_small_bound():
    assert fields._MR_SMALL_BOUND == PSI_2_7_61
    # the first composite past the bound with no factor below 256 reaches
    # Miller-Rabin with the 13 bases
    assert 4_759_123_147 == 383 * 12425909
    assert not is_prime(4_759_123_147)
    assert SPSP_2357 == 172243 * 688969
    assert all(_strong_probable_prime(SPSP_2357, a) for a in (2, 3, 5, 7))
    assert not is_prime(SPSP_2357)


def test_is_prime_matches_the_13_base_test():
    # random odd n across both base sets: the 13 bases are deterministic
    # below psi_13, far above 2^40
    rng = random.Random(2761)
    for _ in range(20_000):
        n = rng.randrange(1 << 15, 1 << 40) | 1
        want = all(_strong_probable_prime(n, a) for a in MR_13_BASES)
        assert is_prime(n) == want, n


def test_is_prime_matches_a_sieve():
    n = 10**6
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    assert [v for v in range(-3, n + 1) if is_prime(v)] == [v for v in range(n + 1) if sieve[v]]


# sha256 prefix of the primes random_prime draws, 63 each from Random(0) ..
# Random(9), per width: frozen, so no faster primality test may change a draw
PRIME_STREAMS = {
    16: "be5aa3bdd5905c5c",
    31: "06363805a031baf7",
    32: "48a437b593691973",
    48: "5ebd96d0a93f86dd",
    81: "4d39543af41a8ee6",
}


@pytest.mark.parametrize("bits", PRIME_STREAMS)
def test_random_prime_streams_frozen(bits):
    h = hashlib.sha256()
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(63):
            h.update(b"%d\n" % random_prime(rng, bits))
    assert h.hexdigest()[:16] == PRIME_STREAMS[bits]


def test_ext_field_rejects_a_strong_pseudoprime_modulus():
    with pytest.raises(UsageError, match="is not prime"):
        ExtField(PSI_12, 1, (0, 1))


@pytest.mark.parametrize("bits", (31, 64))
def test_is_prime_matches_sympy(bits):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(bits)
    for _ in range(2000):
        n = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        assert is_prime(n) == sympy.isprime(n), n


def test_random_prime_is_prime_and_sized():
    rng = random.Random(1)
    for _ in range(20):
        p = random_prime(rng, 20)
        assert is_prime(p)
        assert p.bit_length() == 20


def test_random_prime_floor():
    with pytest.raises(UsageError):
        random_prime(random.Random(0), 8)


def test_int_bitlength():
    assert int_bitlength(0) == 1
    assert int_bitlength(1) == 1
    assert int_bitlength(-1) == 2
    assert int_bitlength(255) == 8
    assert int_bitlength(-255) == 9


def test_prime_field_rejects_composite():
    with pytest.raises(UsageError):
        PrimeField(6)


def test_find_irreducible_frozen():
    # lowest monic irreducible in little-endian numeric order
    assert find_irreducible(2, 2) == (1, 1, 1)  # t^2 + t + 1
    assert find_irreducible(3, 2) == (1, 0, 1)  # t^2 + 1
    assert find_irreducible(2, 3) == (1, 1, 0, 1)  # t^3 + t + 1


def test_find_irreducible_large_prime():
    # q = 2^31 - 1 is 3 mod 4, so t^2 + 1 is the first irreducible; the scan
    # must not build a q-entry pool to reach it
    assert find_irreducible(2**31 - 1, 2) == (1, 0, 1)


@pytest.mark.parametrize("q,l", [(2, 1), (2, 3), (3, 2), (5, 3), (7, 1)])
def test_digit_vectors_little_endian_order(q, l):
    # the old itertools.product order, each tuple reversed
    want = [d[::-1] for d in itertools.product(range(q), repeat=l)]
    assert list(fields._digit_vectors(q, l)) == want


def test_find_irreducible_refuses_composite_q():
    with pytest.raises(UsageError, match="4 is not prime"):
        find_irreducible(4, 2)


def test_gen_is_the_residue_of_t():
    # at l = 1 the modulus is t + f_0, so t is -f_0; above, t itself
    assert ExtField(5, 1, (3, 1)).gen() == (2,)
    assert ExtField(2, 1).gen() == (0,)
    assert ExtField(3, 2).gen() == (0, 1)


def test_poly_is_irreducible_rejects_reducible():
    # t^2 + 1 = (t+1)^2 over F_2
    assert not poly_is_irreducible((1, 0, 1), 2)
    assert poly_is_irreducible((1, 1, 1), 2)
    # a constant, and a polynomial that is not monic
    assert not poly_is_irreducible((1,), 2)
    assert not poly_is_irreducible((1, 2), 3)


def _poly_times(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return tuple(out)


@pytest.mark.parametrize("q, l, first, factors", (
    # t^4 + t + 1; (t^2 + 1)(t^2 + t + 2) over F_3
    (2, 4, (1, 1, 0, 0, 1), None),
    (3, 4, None, ((1, 0, 1), (2, 1, 1))),
    # t^6 + t + 1; (t^3 + t + 1)(t^3 + t^2 + 1) over F_2
    (2, 6, (1, 1, 0, 0, 0, 0, 1), None),
    (2, 6, None, ((1, 1, 0, 1), (1, 0, 1, 1))),
))
def test_rabin_test_at_composite_degree(q, l, first, factors):
    # at composite l Rabin's test also takes gcd(x^(q^(l/p)) - x, f) for
    # each prime p | l: a product of irreducibles whose degrees divide l
    # passes x^(q^l) = x and fails only there
    if first is not None:
        assert find_irreducible(q, l) == first
        assert poly_is_irreducible(first, q)
    else:
        f = _poly_times(*factors, q)
        assert len(f) == l + 1 and fields._poly_powmod((0, 1), q**l, f, q) == (0, 1)
        assert not poly_is_irreducible(f, q)


def test_find_irreducible_stops_after_its_scan(monkeypatch):
    # t^4, t^4 + 1 and t^4 + t are reducible over F_2: t^4 + t + 1 is the
    # fourth candidate
    monkeypatch.setattr(fields, "MAX_IRREDUCIBLE_SCAN", 3)
    with pytest.raises(BudgetError, match="first 3 candidates; give one with --modulus"):
        find_irreducible(2, 4)
    monkeypatch.setattr(fields, "MAX_IRREDUCIBLE_SCAN", 4)
    assert find_irreducible(2, 4) == (1, 1, 0, 0, 1)


EXT_FIELD_ERRORS = {
    "degree-0": (lambda: ExtField(2, 0), "extension degree must be >= 1, got 0"),
    "modulus-degree": (lambda: ExtField(2, 2, (1, 1)), "monic of degree l"),
    "modulus-monic": (lambda: ExtField(3, 2, (1, 0, 2)), "monic of degree l"),
}


@pytest.mark.parametrize("call, message", EXT_FIELD_ERRORS.values(),
                         ids=EXT_FIELD_ERRORS.keys())
def test_ext_field_input_checks(call, message):
    with pytest.raises(UsageError, match=message):
        call()


def test_singular_gram_matrix_is_refused():
    with pytest.raises(SingularTraceForm, match="singular mod 7"):
        fields._matrix_inverse_mod([[1, 2], [3, 6]], 7)
    assert fields._matrix_inverse_mod([[2, 0], [0, 3]], 7) == [[4, 0], [0, 5]]


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(UsageError):
        ExtField(2, 2, (1, 0, 1))


def test_f4_structure():
    F = ExtField(2, 2, find_irreducible(2, 2))
    t = F.gen()
    assert F.mul(t, t) == (1, 1)  # t^2 = t + 1
    assert frobenius_trace(F, t) == 1
    assert frobenius_trace(F, (1, 0)) == 0  # char 2: 1 + 1
    assert trace_form_gram(F) == [[0, 1], [1, 1]]


def test_f4_dual_basis_frozen():
    F = ExtField(2, 2, find_irreducible(2, 2))
    assert dual_basis(F, trace_form_gram(F)) == [[1, 1], [1, 0]]


def test_f9_gram_frozen():
    F = ExtField(3, 2, find_irreducible(3, 2))
    assert trace_form_gram(F) == [[2, 0], [0, 1]]


@pytest.mark.parametrize("q,l", [(2, 3), (2, 16), (3, 4), (7, 5), (65519, 2)])
def test_one_pass_gram_is_the_pairwise_definition(q, l):
    # the 2l - 1 traces of t^k against all l^2 traces of b_i * b_j
    F = ExtField(q, l, find_irreducible(q, l))
    pairwise = [[frobenius_trace(F, F.mul(bi, bj)) for bj in F.basis] for bi in F.basis]
    assert trace_form_gram(F) == pairwise


@pytest.mark.parametrize("q,l", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_dual_basis_delta_property(q, l):
    F = ExtField(q, l, find_irreducible(q, l))
    dual = dual_basis(F, trace_form_gram(F))
    for i, b in enumerate(F.basis):
        for j, d in enumerate(dual):
            assert frobenius_trace(F, F.mul(b, d)) == (1 if i == j else 0)


@pytest.mark.parametrize("q,l", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_extract_roundtrip(q, l):
    F = ExtField(q, l, find_irreducible(q, l))
    dual = dual_basis(F, trace_form_gram(F))
    rng = random.Random(derive := q * 100 + l)
    for _ in range(25):
        x = tuple(rng.randrange(q) for _ in range(l))
        assert extract_coeffs(F, x, dual) == x


def test_trace_is_additive_and_frobenius_invariant():
    F = ExtField(5, 2, find_irreducible(5, 2))
    rng = random.Random(9)
    for _ in range(30):
        x = (rng.randrange(5), rng.randrange(5))
        y = (rng.randrange(5), rng.randrange(5))
        assert frobenius_trace(F, F.add(x, y)) == (frobenius_trace(F, x) + frobenius_trace(F, y)) % 5
        assert frobenius_trace(F, F.pow(x, 5)) == frobenius_trace(F, x)


def test_inverse_on_all_nonzero_f8():
    # x^6 is the inverse of a nonzero x of F_8: x^(q^l - 1) = x^7 = 1
    F = ExtField(2, 3, find_irreducible(2, 3))
    for x in itertools.islice(F.elements(), 1, None):  # every code but 0
        assert F.mul(x, F.pow(x, 6)) == F.pow(x, 7) == (1, 0, 0)


def test_field_spec_roundtrip():
    F = ExtField(2, 3, find_irreducible(2, 3))
    line = format_field_spec(F)
    assert line == "2 3 1 1 0 1"
    q, l, *modulus = map(int, line.split())
    assert format_field_spec(ExtField(q, l, modulus)) == line


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_f25_distributivity(a0, a1, b0, b1):
    F = ExtField(5, 2, find_irreducible(5, 2))
    x, y = (a0, a1), (b0, b1)
    z = F.add(F.gen(), (1, 0))
    assert F.mul(z, F.add(x, y)) == F.add(F.mul(z, x), F.mul(z, y))
    assert F.mul(F.add(x, y), F.add(x, y)) == F.add(F.add(F.mul(x, x), F.mul(y, y)),
                                                  F.mul((2, 0), F.mul(x, y)))

