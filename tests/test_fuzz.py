"""Mutation fuzz over every file the command line reads.

Each test starts from a valid file (a toy bound-3 certificate, a circuit, a
square and a block matrix, a hitting set, a design label, a --config file),
applies a few random byte-level edits, and feeds the result both to the
module parser and to `cli.main`.  Only a FlipcertError may escape a parser,
and `main` must return (no traceback): 2 for a file it cannot use, or 0/1
when the mutant is still a valid file.  A mutant the parser rejects must
exit 2.
"""
from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from flipcert.circuits import parse_circuit
from flipcert.cli import main
from flipcert.config import format_config, parse_config
from flipcert.designs import DesignParams, build_design_greedy, decode_design, encode_design
from flipcert.errors import FlipcertError
from flipcert.matrices import matrix_from_text
from flipcert.obstruction import (
    CertConfig,
    derive_certificate,
    parse_certificate,
    random_truth_table,
    serialize_certificate,
)
from flipcert.pit import parse_hitting_set

TOY_PARAMS = DesignParams(4, 6, 3, 1)
TOY_CONFIG = CertConfig(target="perm", n=2, bound=3, seed_bits=4,
                        truth_table=random_truth_table(3, 0))
# x0 * x3: a member of the bound-3 class that the toy certificate obstructs
MEMBER = "ninputs 4\ng0 = input 0\ng1 = input 3\ng2 = mul g0 g1\noutput g2\n"
HITTING_SET = (
    "hitting-set v1\nclass enumerated n=1 bound=3 regime=size alphabet=-1,1\n"
    "points 1\n59417\n"
)
CONFIG = {"target": "perm", "n": 2, "bound": 3, "band": 0, "normalize": True}
# a valid file may still cost more than a test should spend: derivation is
# linear in 2^seed_bits and the suite sizes, enumeration exponential in the bound
COST_CAPS = {"seed_bits": 4, "rounds_per_tape": 2, "nonzero_count": 3,
             "n": 4, "m": 2, "k": 3, "bound": 3}

TOKENS = [b"0", b"1", b"-1", b"9", b" ", b"\n", b"=", b",", b":", b"x", b"}", b"#"]
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutants(draw, data: bytes) -> bytes:
    """`data` after one to three edits: insert, delete, overwrite, truncate,
    or duplicate / drop a whole line."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(("insert", "delete", "overwrite", "truncate", "line")))
        chunk = draw(st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=3)))
        if op == "insert":
            out[i:i] = chunk
        elif op == "delete":
            del out[i : i + draw(st.integers(1, 8))]
        elif op == "overwrite":
            out[i : i + len(chunk)] = chunk
        elif op == "truncate":
            del out[i:]
        else:
            lines = bytes(out).split(b"\n")
            j = draw(st.integers(0, len(lines) - 1))
            lines[j : j + 1] = [lines[j]] * draw(st.integers(0, 2))
            out = bytearray(b"\n".join(lines))
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    design = build_design_greedy(TOY_PARAMS)
    base = {
        "cert.txt": serialize_certificate(derive_certificate(design, TOY_CONFIG)),
        "member.ac": MEMBER,
        "square.mat": "square 2\n1 2\n3 4\n",
        "block.mat": "block 2 2\n1 2 3 4\n5 6 7 8\n",
        "design.hex": encode_design(design).hex() + "\n",
        "cert.cfg": format_config(CONFIG),
    }
    for name, text in base.items():
        (d / name).write_text(text)
    return d


def _check(files, data: bytes, parse, argv) -> None:
    """Parse `data` directly, then run `argv` with its MUTANT slot replaced by
    a file holding `data`; assert the error and exit-code contract."""
    path = files / "mutant"
    path.write_bytes(data)
    try:
        parse(data.decode("utf-8"))
        parsed = True
    except (FlipcertError, UnicodeDecodeError):
        parsed = False
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(path) if a == "MUTANT" else a for a in argv])
    event(f"exit {rc}")  # --hypothesis-show-statistics shows the spread
    assert rc in (0, 1, 2), (rc, err.getvalue())
    if not parsed:
        assert rc == 2, (rc, out.getvalue())


def _affordable(pairs: dict) -> bool:
    for key, cap in COST_CAPS.items():
        try:
            if int(pairs.get(key, 0)) > cap:
                return False
        except ValueError:
            pass
    return True


@given(data=st.data())
@SETTINGS
def test_certificate_mutants(files, data):
    text = data.draw(mutants((files / "cert.txt").read_bytes()))
    _check(files, text, parse_certificate,
           ["decode", "--cert", "MUTANT", "--circuit", str(files / "member.ac")])


@given(data=st.data())
@SETTINGS
def test_circuit_mutants(files, data):
    text = data.draw(mutants(MEMBER.encode()))
    _check(files, text, parse_circuit,
           ["decode", "--cert", str(files / "cert.txt"), "--circuit", "MUTANT"])


@pytest.mark.parametrize("name, command", [("square.mat", "perm-oracle"),
                                           ("block.mat", "efun-oracle")])
@given(data=st.data())
@SETTINGS
def test_matrix_mutants(files, name, command, data):
    text = data.draw(mutants((files / name).read_bytes()))
    _check(files, text, matrix_from_text, [command, "--matrix", "MUTANT"])


@given(data=st.data())
@SETTINGS
def test_hitting_set_mutants(files, data):
    text = data.draw(mutants(HITTING_SET.encode()))
    try:
        cls = parse_hitting_set(text.decode("utf-8")).cls
        assume(_affordable({"n": cls.num_inputs, "bound": cls.bound}))
    except (FlipcertError, UnicodeDecodeError):
        pass
    _check(files, text, parse_hitting_set, ["verify-hitting-set", "--file", "MUTANT"])


@given(data=st.data())
@SETTINGS
def test_design_label_mutants(files, data):
    text = data.draw(mutants((files / "design.hex").read_bytes()))

    def parse(label_text):
        try:
            label = bytes.fromhex(label_text.strip())
        except ValueError:
            raise FlipcertError("not hex") from None
        decode_design(label)

    _check(files, text, parse, ["verify-design", "--label", "MUTANT"])


@given(data=st.data())
@SETTINGS
def test_config_mutants(files, data):
    text = data.draw(mutants((files / "cert.cfg").read_bytes()))
    try:
        assume(_affordable(parse_config(text.decode("utf-8"))))
    except (FlipcertError, UnicodeDecodeError):
        pass
    # the file overrides the flags; what it leaves out comes from the defaults
    _check(files, text, parse_config,
           ["derive-cert", "--design", str(files / "design.hex"), "--config", "MUTANT"])
