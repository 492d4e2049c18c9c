"""Reference circuit builders against the oracles."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from flipcert.builders import det_circuit, efun_circuit, perm_circuit, scale_circuit
from flipcert.circuits import (
    evaluate,
    expand_to_polynomial,
    formal_degree,
    lower,
    parse_circuit,
    poly_total_degree,
    serialize_circuit,
)
from flipcert.errors import UsageError
from flipcert.matrices import BLOCK
from flipcert.oracles import determinant, efun, permanent


def test_builder_sizes_frozen():
    assert perm_circuit(2).size == 7
    assert perm_circuit(3).size == 26
    assert perm_circuit(4).size == 111
    assert det_circuit(2).size == 7
    assert efun_circuit(1, 2).size == 3
    assert efun_circuit(2, 2).size == 23


CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"

# the builder call behind each shipped file, as scripts/make_reference_circuits.py
# writes it
REFERENCE_BUILDS = {
    "perm2.ac": lambda: perm_circuit(2),
    "perm3.ac": lambda: perm_circuit(3),
    "perm4.ac": lambda: perm_circuit(4),
    "det2.ac": lambda: det_circuit(2),
    "det3.ac": lambda: det_circuit(3),
    "efun_1_2.ac": lambda: efun_circuit(1, 2),
    "efun_2_2.ac": lambda: efun_circuit(2, 2),
    "efun_1_3.ac": lambda: efun_circuit(1, 3),
    "perm2_scaled2.ac": lambda: scale_circuit(perm_circuit(2), 2),
}


def test_every_shipped_circuit_has_its_builder():
    assert sorted(p.name for p in CIRCUITS.glob("*.ac")) == sorted(REFERENCE_BUILDS)


@pytest.mark.parametrize("name", sorted(REFERENCE_BUILDS))
def test_builder_layout_matches_shipped_file(name):
    # node for node: the frozen digests and stream hashes read these layouts
    assert serialize_circuit(REFERENCE_BUILDS[name]()) == (CIRCUITS / name).read_text()


def test_perm_circuit_matches_oracle():
    rng = random.Random(0)
    for n in (1, 2, 3, 4):
        c = perm_circuit(n)
        for _ in range(5):
            M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            flat = tuple(v for row in M for v in row)
            assert evaluate(c, flat) == permanent(M)


def test_det_circuit_matches_oracle():
    rng = random.Random(1)
    for n in (1, 2, 3):
        c = det_circuit(n)
        for _ in range(5):
            M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            flat = tuple(v for row in M for v in row)
            assert evaluate(c, flat) == determinant(M)


def test_efun_circuit_matches_oracle():
    rng = random.Random(2)
    for m, k in ((1, 2), (2, 2), (1, 3), (2, 3)):
        c = efun_circuit(m, k)
        for _ in range(4):
            X = tuple(rng.randrange(-5, 6) for _ in range(m * k * m))
            assert evaluate(c, X) == efun((BLOCK, m, k), X)


def test_efun_expansion_degree_law():
    for m, k in ((1, 2), (2, 2), (1, 3)):
        poly = expand_to_polynomial(efun_circuit(m, k))
        assert poly_total_degree(poly) == m * k**m


def test_formal_degree_is_the_builders_degree():
    for n in (1, 2, 3, 4):
        assert formal_degree(lower(perm_circuit(n))) == n
        assert formal_degree(lower(det_circuit(n))) == n
    for m, k in ((1, 2), (1, 3), (2, 2), (2, 3)):
        assert formal_degree(lower(efun_circuit(m, k))) == m * k**m


# n for perm(n) and det(n), m * k^m for E(m, k)
SHIPPED_DEGREES = {"perm2.ac": 2, "perm3.ac": 3, "perm4.ac": 4, "det2.ac": 2, "det3.ac": 3,
                   "efun_1_2.ac": 2, "efun_2_2.ac": 8, "efun_1_3.ac": 3,
                   "perm2_scaled2.ac": 2}


@pytest.mark.parametrize("name", sorted(REFERENCE_BUILDS))
def test_shipped_circuit_formal_degree(name):
    c = parse_circuit((CIRCUITS / name).read_text())
    degree = SHIPPED_DEGREES[name]
    assert formal_degree(lower(c)) == degree == poly_total_degree(expand_to_polynomial(c))


def test_efun_22_expansion_is_15_terms():
    poly = expand_to_polynomial(efun_circuit(2, 2))
    assert len(poly) == 15
    assert poly_total_degree(poly) == 8


def test_scale_circuit():
    c = scale_circuit(perm_circuit(2), 5)
    assert c.size == perm_circuit(2).size + 2
    assert evaluate(c, (1, 2, 3, 4)) == 5 * 10


@pytest.mark.parametrize("build", (lambda: perm_circuit(0), lambda: det_circuit(0),
                                   lambda: efun_circuit(0, 2), lambda: efun_circuit(2, 0)),
                         ids=("perm", "det", "efun-m", "efun-k"))
def test_builders_refuse_an_empty_matrix(build):
    with pytest.raises(UsageError, match=">= 1"):
        build()
