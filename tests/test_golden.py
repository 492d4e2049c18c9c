"""Frozen SHA-256 digests of the outputs a point-format change must not move.

Query text of every suite generator, the certificate file bytes of the toy
perm(2) and efun(1,2) certificates, the sampled transcripts of the nine
reference and known-reject targets (exact and modular), and the `decode`
stdout of the README certificate flow.  Each digest was taken once and is
compared byte for byte; no test here may be edited to follow a change in
output.
"""
from __future__ import annotations

import hashlib
import inspect

import pytest

from flipcert.builders import det_circuit, efun_circuit, perm_circuit, scale_circuit
from flipcert.circuits import serialize_circuit
from flipcert.cli import main
from flipcert.designs import DesignParams, build_design_greedy
from flipcert.matrices import BLOCK, SQUARE
from flipcert.obstruction import (
    CertConfig,
    derive_certificate,
    random_truth_table,
    serialize_certificate,
)
from flipcert.symtests import (
    VerifyConfig,
    gen_queries_efun,
    gen_queries_perm,
    gen_queries_selfreduce,
    serialize_query,
    verify_claims_efun,
    verify_claims_perm,
)

SEEDS = range(5)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suite_text(queries, shape) -> str:
    """One serialize_query line per query.  The point tags need the suite's
    shape: a two-argument serialize_query takes it alongside flat points, a
    one-argument one reads it off each point."""
    if len(inspect.signature(serialize_query).parameters) == 1:
        return "".join(serialize_query(q) + "\n" for q in queries)
    return "".join(serialize_query(q, shape) + "\n" for q in queries)


QUERY_DIGESTS = {
    "efun m=1 k=2 det-corrected": "c8d7f59136eee8c6f653327598fcb7a7fabb5e62951f4a2cf473c48bd921aa5e",
    "efun m=1 k=2 literal": "2a4a9013b8f657dd9234b7f979eab07dc30e5b2960853ff07ca51148a7e95537",
    "efun m=1 k=3 det-corrected": "ff0b055bd7913aaca7de02ac9818b449a2f2d1af0907f129116be323fc1bd202",
    "efun m=1 k=3 literal": "25a36e90b608a3d603e6e348dac60a772807e95dcdcab270d9a899ab373add17",
    "efun m=2 k=2 det-corrected": "a0562eac5a9f3563303e4f41cb6e50c5d98a83d2ac6eca4abf8ca41404460467",
    "efun m=2 k=2 literal": "43a6976b305dd65c1c416ebd1c4774088cc24dbf17e56234477f7034d59ff12f",
    "efun m=3 k=2 det-corrected": "0e4fe68b3b47e6e292685655bd1390e011de121caaf3dcb62c6f3e4a44f0445a",
    "efun m=3 k=2 literal": "50935d364112a12e2150309531c0f0f2f08a8c242b294bf1c4c9e6f91134e8ab",
    "perm n=1": "4db23613359449a3d54f32eaa1297b222915c26cdc82db69925b955993743298",
    "perm n=2": "9aaad1129561451220f6ea4c962249304d276ed0f0ec4385f0bda0cd1f37c5b8",
    "perm n=3": "b06d46f7bb90fc569fa70b925df871e2548691a30a9bad963a27cf463fa335e9",
    "perm n=4": "72659a887bd795fd4b97465daaca4088886f70ef78ab167466a4081145978958",
    "selfreduce n=2": "f4cce9c7c5a4cae7421d24909d8c2390911093c964d91ef0b557804297151cc9",
    "selfreduce n=3": "42aec7991f7c0e348a04339f48ffaf7d537794119f6c49c0137f7463aa6789c9",
    "selfreduce n=4": "d5d391f0e055f34c765b60090b00157afae476b4e28749fb5e8e00e6759c14e6",
}


def _suites():
    for n in (1, 2, 3, 4):
        yield f"perm n={n}", (SQUARE, n), lambda s, n=n: gen_queries_perm(n, s)
    for n in (2, 3, 4):
        yield f"selfreduce n={n}", (SQUARE, n), lambda s, n=n: gen_queries_selfreduce(n, s)
    for m, k in ((1, 2), (2, 2), (1, 3), (3, 2)):
        for mode in ("det-corrected", "literal"):
            yield (
                f"efun m={m} k={k} {mode}",
                (BLOCK, m, k),
                lambda s, m=m, k=k, mode=mode: gen_queries_efun(
                    m, k, s, det_factor_mode=mode
                ),
            )


SUITES = {name: (shape, gen) for name, shape, gen in _suites()}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_query_text_digest(name):
    shape, gen = SUITES[name]
    text = "".join(f"seed {s}\n" + suite_text(gen(s), shape) for s in SEEDS)
    assert sha(text) == QUERY_DIGESTS[name]


TOY_PARAMS = DesignParams(4, 6, 3, 1)
TOY_TABLE = random_truth_table(3, 0)
CERT_CONFIGS = {
    "perm2": CertConfig(target="perm", n=2, bound=3, seed_bits=4, truth_table=TOY_TABLE),
    "efun1x2": CertConfig(target="efun", m=1, k=2, bound=8, seed_bits=4,
                          truth_table=TOY_TABLE),
}
CERT_DIGESTS = {
    "efun1x2": "7e634ecff5d3f8410eb57309b4ce35890b859adf10808f26be670e621430007e",
    "perm2": "f0284ea95f558eff59ac4d1ade45bc74f62f804662b0580f9a0f19746538c55c",
}


@pytest.mark.parametrize("name", sorted(CERT_CONFIGS))
def test_certificate_bytes_digest(name):
    cert = derive_certificate(build_design_greedy(TOY_PARAMS), CERT_CONFIGS[name])
    assert sha(serialize_certificate(cert)) == CERT_DIGESTS[name]


TARGETS = {
    "perm2": ("perm", (2,), perm_circuit(2)),
    "perm3": ("perm", (3,), perm_circuit(3)),
    "perm4": ("perm", (4,), perm_circuit(4)),
    "efun1x2": ("efun", (1, 2), efun_circuit(1, 2)),
    "efun2x2": ("efun", (2, 2), efun_circuit(2, 2)),
    "efun1x3": ("efun", (1, 3), efun_circuit(1, 3)),
    "det2": ("perm", (2,), det_circuit(2)),
    "det3": ("perm", (3,), det_circuit(3)),
    "2perm2": ("perm", (2,), scale_circuit(perm_circuit(2), 2)),
}
TRANSCRIPT_DIGESTS = {
    "2perm2 exact": "1c98c543d7a2dccaba19a44324728c8c780e62dc38a6c40343c361a9cc27d7f8",
    "2perm2 modular": "1c98c543d7a2dccaba19a44324728c8c780e62dc38a6c40343c361a9cc27d7f8",
    "det2 exact": "98c5a56addeb0f366bdd555d8b4b2e8543e141e6c596e69d4683646a9305a67c",
    "det2 modular": "39824349f327edd4fbf2dc03c46e1701b62d2c5a3ebea2e29320b105482763cd",
    "det3 exact": "c2ebe18cd4e21b8085d97989922a38ef20f704360c9b9805412acc1d251f81c8",
    "det3 modular": "deea12589419be85ec6af741be70d255e920de34b53decdf0b53bc45ce640752",
    "efun1x2 exact": "aadc51c337319dfadb2044ed90057c9ffcaa71fd2f8d6e506a0f09f4bc68bc18",
    "efun1x2 modular": "aadc51c337319dfadb2044ed90057c9ffcaa71fd2f8d6e506a0f09f4bc68bc18",
    "efun1x3 exact": "d6137a01ba373ddec9019ef1aaedb9cbfe51e9824ae7f4a1365bbcc8f8e2efdd",
    "efun1x3 modular": "d6137a01ba373ddec9019ef1aaedb9cbfe51e9824ae7f4a1365bbcc8f8e2efdd",
    "efun2x2 exact": "cfc24700a934fe00504e760cc7ea831f9a014070d2795b27c3007221717e25b0",
    "efun2x2 modular": "cfc24700a934fe00504e760cc7ea831f9a014070d2795b27c3007221717e25b0",
    "perm2 exact": "6f6fb51ce770a1dc84f65eff28b19f36be394f7b2f4184bb8a7683148f65c0cf",
    "perm2 modular": "6f6fb51ce770a1dc84f65eff28b19f36be394f7b2f4184bb8a7683148f65c0cf",
    "perm3 exact": "df5394f2604c2677fd2fec249178b84ab2b9c7c0ba839cf8d6bdb3ff41a26e23",
    "perm3 modular": "df5394f2604c2677fd2fec249178b84ab2b9c7c0ba839cf8d6bdb3ff41a26e23",
    "perm4 exact": "e0cf5093a5e255ef98184a1b23ddc90bb51b36d41af5a75a38bd2c1609c0c7c5",
    "perm4 modular": "e0cf5093a5e255ef98184a1b23ddc90bb51b36d41af5a75a38bd2c1609c0c7c5",
}


@pytest.mark.parametrize("ring", ("exact", "modular"))
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_transcript_digest(name, ring):
    kind, dims, c = TARGETS[name]
    verify = verify_claims_perm if kind == "perm" else verify_claims_efun
    text = "".join(
        verify(c, *dims, VerifyConfig(seed=s, ring=ring)).transcript() for s in SEEDS
    )
    assert sha(text) == TRANSCRIPT_DIGESTS[f"{name} {ring}"]


DECODE_DET2_DIGEST = "dd7eabc16a19faf5399c2f37188860ad0cd39e2db3b8e618b92b83a26556fde4"


def test_decode_det2_stdout_digest(tmp_path, capsys):
    label, cert, circuit = (str(tmp_path / f) for f in ("design.hex", "cert.txt", "det2.ac"))
    (tmp_path / "det2.ac").write_text(serialize_circuit(det_circuit(2)))
    assert main(["gen-design", "--l", "6", "--r", "3", "--kcap", "1",
                 "--rows", "4", "--out", label]) == 0
    assert main(["derive-cert", "--design", label, "--bound", "8", "--out", cert]) == 0
    capsys.readouterr()
    assert main(["decode", "--cert", cert, "--circuit", circuit]) == 0
    assert sha(capsys.readouterr().out) == DECODE_DET2_DIGEST
