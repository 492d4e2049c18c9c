"""Small shared helpers: seeds and seeded streams, input tokens and how errors
quote them, the sample box, box draws, long decimals and wall-clock timing."""

from __future__ import annotations

import _random
import hashlib
import random
import sys
import time
from contextlib import contextmanager

from .errors import ParseError, UsageError


def derive_seed(*parts) -> int:
    """Mix arbitrary labels/ints into a 64-bit RNG seed.

    sha256-based so results are stable across processes and platforms
    (unlike hash(), which is salted per process).
    """
    return _seed_of(_hashed(parts))


def _hashed(parts: tuple):
    """The SHA-256 of derive_seed's bytes for these parts: their str()s
    joined by the unit separator, chr(0x1f)."""
    return hashlib.sha256("\x1f".join(map(str, parts)).encode())


def _seed_of(h) -> int:
    return int.from_bytes(h.digest()[:8], "big")


_new_stream, _seed_stream = random.Random.__new__, _random.Random.seed


def _stream(seed: int) -> random.Random:
    """random.Random(seed), state and all, seeded past its Python __init__
    and seed."""
    rng = _new_stream(random.Random)
    _seed_stream(rng, seed)
    rng.gauss_next = None  # as random.Random.seed leaves it
    return rng


def seeded(*parts) -> random.Random:
    """random.Random(derive_seed(*parts)): 7.9 us on Python 3.11 (2-core
    x86-64 VM), 5.6 us of it MT19937's own seeding and 1.9 us the seed's
    hash; a sampled suite seeds five streams, through `streams`."""
    return _stream(derive_seed(*parts))


def streams(count: int, *prefix) -> list[random.Random]:
    """[seeded(*prefix, i) for i in range(count)], hashing the prefix once:
    derive_seed's bytes for (*prefix, i) are those for (*prefix, "")
    followed by str(i), so each seed finishes a copy of that one hash.  A
    sampled suite seeds its rounds' streams and its nonzero streams so: its
    five seeds take 7.5 us against 9.7 us by derive_seed (Python 3.11)."""
    head = _hashed((*prefix, ""))
    out = []
    for i in range(count):
        h = head.copy()
        h.update(b"%d" % i)
        out.append(_stream(_seed_of(h)))
    return out


def quoted(token: str) -> str:
    """A token as an error quotes it: its repr, cut to its first 32
    characters and its length when longer, so 5,000 digits make a short line."""
    return repr(token) if len(token) <= 32 else f"{token[:32]!r}... ({len(token)} characters)"


def int_token(token: str, where: str) -> int:
    """An input file's integer token, or a ParseError naming `where`."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{where}: expected an integer, got {quoted(token)}") from None


# The widest sample box, 2^1024 entries a side.  The widest default is 62
# bits; a box of 2^100000000000 died with MemoryError before any draw.
MAX_SAMPLE_WIDTH = 1024


def sample_box(width: int, band: int = 0) -> tuple[int, int]:
    """The box [1 + band * 2^width, (band + 1) * 2^width] of 2^width
    integers; band b >= 0's boxes are disjoint from every other band's (a
    certificate's band is declared >= 0).  The one rule for --width, a
    config's sample_width and the hitting-set bands."""
    if not 1 <= width <= MAX_SAMPLE_WIDTH:
        raise UsageError(f"sample width must be 1..{MAX_SAMPLE_WIDTH}, got {width}")
    span = 1 << width
    return (1 + band * span, (band + 1) * span)


def rand_point(rng, size: int, box: tuple[int, int]) -> tuple[int, ...]:
    """`size` entries drawn from the box [lo, hi] in order, as one tuple.

    CPython's own rule for `rng.randrange(lo, hi + 1)`, inlined: take a
    k-bit word, k = width.bit_length(), and redraw while it is >= width.
    So the entries, and the RNG state afterwards, are those of `size`
    randrange calls, without their call layers.  The rule is the same in
    CPython 3.10 through 3.13; the tests hold it to randrange itself.
    """
    lo = box[0]
    width = box[1] - lo + 1
    if width < 1:
        raise UsageError(f"empty box [{box[0]}, {box[1]}]")
    k, draw = width.bit_length(), rng.getrandbits
    out = []
    for _ in range(size):
        r = draw(k)
        while r >= width:
            r = draw(k)
        out.append(lo + r)
    return tuple(out)


@contextmanager
def any_digits():
    """A block in which str() writes an int of any length, past the digit
    limit that guards against slow conversion; the caller bounds the ints."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class Stopwatch:
    """Context manager recording elapsed wall time in .seconds."""

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0
