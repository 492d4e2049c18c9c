"""End-to-end command tests through main(argv).

Exit code contract: 0 accept/valid, 1 reject/negative finding, 2 usage or
malformed input, 3 budget or infeasibility.  Identical argv must produce
byte-identical stdout; wall-clock diagnostics go to stderr (harness-f is
the exception, its gate budgets are timed by design).
"""
from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
import time
from pathlib import Path

import pytest

from flipcert import circuits, cli, fields, obstruction, pit
from flipcert.builders import det_circuit, efun_circuit, perm_circuit
from flipcert.circuits import serialize_circuit
from flipcert.cli import build_parser, main
from flipcert.config import config_hash, from_args, parse_config
from flipcert.designs import Design, DesignParams, build_design_greedy, encode_design
from flipcert.errors import BudgetExceeded, UsageError
from flipcert.obstruction import CertConfig
from flipcert.pit import EnumeratedClass
from flipcert.symtests import VerifyConfig
from flipcert.util import MAX_SAMPLE_WIDTH, sample_box

XY_TEXT = "ninputs 2\ng1 = input 0\ng2 = input 1\ng3 = mul g1 g2\noutput g3\n"
ZERO_TEXT = "ninputs 1\ng1 = input 0\ng2 = sub g1 g1\noutput g2\n"  # x - x
SQUARE2 = "square 2\n1 2\n3 4\n"
BLOCK22 = "block 2 2\n1 2 3 4\n5 6 7 8\n"
DESIGN_HEX = encode_design(build_design_greedy(DesignParams(4, 6, 3, 1))).hex() + "\n"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def perm2_path(tmp_path):
    p = tmp_path / "perm2.ac"
    p.write_text(serialize_circuit(perm_circuit(2)))
    return str(p)


@pytest.fixture
def det2_path(tmp_path):
    p = tmp_path / "det2.ac"
    p.write_text(serialize_circuit(det_circuit(2)))
    return str(p)


# ---------------------------------------------------------------------------
# evaluation and identity testing

def test_eval(tmp_path, capsys):
    path = tmp_path / "xy.ac"
    path.write_text(XY_TEXT)
    rc, out, _ = run(capsys, ["eval", "--circuit", str(path), "--point", "3,4"])
    assert rc == 0 and out == "12\n"


def test_eval_malformed_circuit_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ac"
    path.write_text("this is not a circuit\n")
    rc, out, err = run(capsys, ["eval", "--circuit", str(path), "--point", "1"])
    assert rc == 2 and err.startswith("error:")


def test_eval_missing_file_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, ["eval", "--circuit", str(tmp_path / "nope"),
                              "--point", "1"])
    assert rc == 2 and "cannot read" in err


def test_pit_nonzero_exits_1(tmp_path, capsys):
    path = tmp_path / "xy.ac"
    path.write_text(XY_TEXT)
    rc, out, _ = run(capsys, ["pit", "--circuit", str(path)])
    assert rc == 1 and out.startswith("nonzero at ")


def test_pit_zero_exits_0(tmp_path, capsys):
    path = tmp_path / "zero.ac"
    path.write_text(ZERO_TEXT)
    rc, out, _ = run(capsys, ["pit", "--circuit", str(path)])
    assert rc == 0 and out.startswith("zero (false-zero bound")


# x squared twelve times: x^4096, 13 nodes, whose value at a 62-bit point
# has about 76,000 digits
SQ12_TEXT = "ninputs 1\ng0 = input 0\n" + "".join(
    f"g{t} = mul g{t - 1} g{t - 1}\n" for t in range(1, 13)) + "output g12\n"


def test_pit_and_eval_print_values_past_the_digit_limit(tmp_path, capsys):
    # int-to-str conversion refused them (ValueError, exit 1); the limit is
    # lifted only while the report prints
    path = tmp_path / "sq12.ac"
    path.write_text(SQ12_TEXT)
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, ["pit", "--circuit", str(path)])
    assert rc == 1 and err == ""
    witness, value = re.fullmatch(r"nonzero at \((\d+),\) \(value (\d+)\)\n", out).groups()
    exact = int(witness) ** 4096  # compared without a string conversion
    assert 10 ** (len(value) - 1) <= exact < 10 ** len(value) and len(value) > 70_000
    assert int(value[-30:]) == exact % 10**30
    rc, out, err = run(capsys, ["eval", "--circuit", str(path), "--point", "100"])
    assert (rc, out, err) == (0, "1" + "0" * 8192 + "\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_pit_and_eval_refuse_a_value_past_the_print_budget(tmp_path, capsys):
    # x squared 14 times at a 62-bit point has about a million bits, whose
    # decimal form took 27.5 s; the bit length is checked before converting
    path = tmp_path / "sq14.ac"
    path.write_text("ninputs 1\ng0 = input 0\n" + "".join(
        f"g{t} = mul g{t - 1} g{t - 1}\n" for t in range(1, 15)) + "output g14\n")
    for argv in (["pit"], ["eval", "--point", str(1 << 40)]):
        rc, out, err = run(capsys, [*argv, "--circuit", str(path)])
        assert (rc, out) == (3, "") and err.startswith("budget: value of ")
    assert len(cli._decimal((1 << cli.MAX_PRINT_BITS) - 1)) == 157_827
    with pytest.raises(BudgetExceeded, match="-bit print budget"):
        cli._decimal(1 << cli.MAX_PRINT_BITS)


def test_pit_and_eval_refuse_a_step_past_the_evaluation_budget(tmp_path, capsys):
    # x squared 25 times at 3 was still computing after 20 s; its static bit
    # bound passes circuits.MAX_EVAL_BITS, so neither command evaluates
    path = tmp_path / "sq25.ac"
    path.write_text("ninputs 1\ng0 = input 0\n" + "".join(
        f"g{t} = mul g{t - 1} g{t - 1}\n" for t in range(1, 26)) + "output g25\n")
    for argv, width in ((["eval", "--point", "3"], 2), (["pit"], 63)):
        start = time.perf_counter()
        rc, out, err = run(capsys, [*argv, "--circuit", str(path)])
        assert time.perf_counter() - start < 1
        assert (rc, out) == (3, "")
        assert err == (f"budget: a step may pass the {circuits.MAX_EVAL_BITS}-bit evaluation "
                       f"budget at {width}-bit inputs\n")
    # the arity is checked first: a point of the wrong length is a usage error
    rc, _, err = run(capsys, ["eval", "--circuit", str(path), "--point", "3,3"])
    assert rc == 2 and "circuit takes 1 inputs, point has 2" in err


def _squaring_chain(ninputs: int, squarings: int, base: str = "input 0") -> str:
    """g0 = base squared `squarings` times, times x0 when base is a constant."""
    lines = [f"ninputs {ninputs}", f"g0 = {base}"]
    lines += [f"g{t} = mul g{t - 1} g{t - 1}" for t in range(1, squarings + 1)]
    out = squarings
    if base != "input 0":
        lines += [f"g{out + 1} = input 0", f"g{out + 2} = mul g{out} g{out + 1}"]
        out += 2
    return "\n".join(lines) + f"\noutput g{out}\n"


def test_exact_runs_refuse_a_step_past_the_evaluation_budget(tmp_path, capsys):
    # each ran until killed: x0 squared 40 times in the sampled exact ring
    # and in decode, and 2 squared 40 times, times x0, in exhaustive mode.
    # The sampled suites and decode check at twice the box's widest entry,
    # exhaustive mode at the box's
    sq40 = tmp_path / "sq40.ac"
    sq40.write_text(_squaring_chain(4, 40))
    const40 = tmp_path / "const40.ac"
    const40.write_text(_squaring_chain(4, 40, "const 2"))
    design, cert = tmp_path / "design.hex", tmp_path / "cert.txt"
    design.write_text(DESIGN_HEX)
    assert run(capsys, ["derive-cert", "--design", str(design), "--n", "2", "--bound", "41",
                        "--out", str(cert)])[0] == 0
    for argv, width in (
        (["verify-perm", "--n", "2", "--circuit", str(sq40)], 126),
        (["decode", "--cert", str(cert), "--circuit", str(sq40)], 126),
        (["verify-perm", "--n", "2", "--mode", "exhaustive", "--circuit", str(const40)], 63),
    ):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (3, "")
        assert err == (f"budget: a step may pass the {circuits.MAX_EVAL_BITS}-bit evaluation "
                       f"budget at {width}-bit inputs\n")
    # the modular ring reduces every step of this chain, so it runs
    rc, out, _ = run(capsys, ["verify-perm", "--n", "2", "--ring", "modular",
                              "--circuit", str(sq40)])
    assert rc == 1 and out.endswith("ring=modular\n")


def test_class_commands_stop_at_the_class_budget(tmp_path, capsys):
    # these ran until killed: a bound-40 class is refused before the first
    # member, whatever reads it
    design, cert, hs = tmp_path / "design.hex", tmp_path / "cert.txt", tmp_path / "hs.txt"
    design.write_text(DESIGN_HEX)
    assert run(capsys, ["derive-cert", "--design", str(design), "--n", "2", "--bound", "41",
                        "--out", str(cert)])[0] == 0
    hs.write_text("hitting-set v1\nclass enumerated n=1 bound=40 regime=size alphabet=1\n"
                  "points 1\n1\n")
    for argv, n in (
        (["trivial-table", "--ninputs", "4", "--bound", "40", "--alphabet=1", "--n", "2"], 4),
        (["harness-f", "--cert", str(cert), "--ninputs", "4", "--bound", "40",
          "--alphabet=1"], 4),
        (["verify-hitting-set", "--file", str(hs)], 1),
    ):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (3, "")
        assert err == (f"budget: class enumerated n={n} bound=40 regime=size alphabet=1 may "
                       f"hold more than {pit.MAX_CLASS_ESTIMATE} members, the enumeration "
                       "budget\n")


def test_exhaustive_mode_stops_an_expansion_past_its_term_products(tmp_path, capsys):
    # (x0 + x1) squared 16 times ran until killed: its bit bound is exactly
    # the evaluation budget, and no node passes the term budget until the
    # last squaring, but the squarings form about 1.4e9 term products
    path = tmp_path / "sum16.ac"
    path.write_text("ninputs 4\ng0 = input 0\ng1 = input 1\ng2 = add g0 g1\n" + "".join(
        f"g{t} = mul g{t - 1} g{t - 1}\n" for t in range(3, 19)) + "output g18\n")
    start = time.perf_counter()
    rc, out, err = run(capsys, ["verify-perm", "--n", "2", "--mode", "exhaustive",
                                "--circuit", str(path)])
    assert time.perf_counter() - start < 5
    assert (rc, out) == (3, "")
    assert err == (f"budget: node 13 expansion would pass {circuits.MAX_TERM_PRODUCTS} term "
                   "products\n")


def test_derive_cert_refuses_a_tape_scan_past_the_budget(tmp_path, capsys):
    # `gen-design --l 20 --r 3 --kcap 1 --rows 20` at 20 seed bits took 33 s
    # and 1.1 GB; the scan's 2^20 seeds x 20 rows are checked before it runs
    label = tmp_path / "design.hex"
    label.write_text(encode_design(build_design_greedy(DesignParams(20, 20, 3, 1))).hex())
    cfg = tmp_path / "seed20.cfg"
    cfg.write_text("seed_bits=20\n")
    start = time.perf_counter()
    rc, out, err = run(capsys, ["derive-cert", "--design", str(label), "--config", str(cfg),
                                "--n", "2"])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (3, "")
    assert err == ("budget: deriving scans 2^20 seeds x 20 rows = 20971520 steps, past the "
                   f"budget of {obstruction.MAX_TAPE_STEPS}\n")


def test_pit_degree_past_the_box_width_bounds_at_1(tmp_path, capsys):
    # x - x squared k times has formal degree 2^k; at the width-16 box's 2^16
    # points, k = 16 caps each trial's factor at 1 and k = 15 halves it
    path = tmp_path / "zero_sq.ac"
    for k, bound in ((16, "1"), (15, "0.00391")):
        path.write_text("ninputs 1\ng0 = input 0\ng1 = sub g0 g0\n" + "".join(
            f"g{t} = mul g{t - 1} g{t - 1}\n" for t in range(2, k + 2)) + f"output g{k + 1}\n")
        rc, out, err = run(capsys, ["pit", "--circuit", str(path), "--width", "16"])
        assert (rc, out, err) == (0, f"zero (false-zero bound {bound}, 8 trials)\n", "")


# each printed bound is (formal degree / box)^rounds, or ^trials, over the
# default 2^62-point box: perm(4) has degree 4 and E(2,2) degree 8, two
# rounds each; x - x has degree 1 and a constant degree 0, eight trials
PRINTED_BOUNDS = {
    "verify-perm-exact": (["verify-perm", "--n", "4", "--circuit", "{circuits}/perm4.ac"],
                          "false-accept bound 7.52e-37\n"),
    "verify-perm-modular": (["verify-perm", "--n", "4", "--circuit", "{circuits}/perm4.ac",
                             "--ring", "modular"], "false-accept bound 7.52e-37\n"),
    "verify-efun": (["verify-efun", "--m", "2", "--k", "2",
                     "--circuit", "{circuits}/efun_2_2.ac"], "false-accept bound 3.01e-36\n"),
    "pit-x-minus-x": (["pit", "--circuit", "{zero}"],
                      "zero (false-zero bound 4.89e-150, 8 trials)\n"),
    "pit-const-0": (["pit", "--circuit", "{const0}"], "zero (false-zero bound 0, 8 trials)\n"),
}


@pytest.mark.parametrize("label", PRINTED_BOUNDS)
def test_printed_bounds_come_from_the_formal_degree(tmp_path, capsys, label):
    argv, line = PRINTED_BOUNDS[label]
    paths = {"circuits": CIRCUITS, "zero": tmp_path / "zero.ac", "const0": tmp_path / "c0.ac"}
    paths["zero"].write_text(ZERO_TEXT)
    paths["const0"].write_text("ninputs 1\ng1 = const 0\noutput g1\n")
    rc, out, _ = run(capsys, [arg.format(**paths) for arg in argv])
    assert rc == 0 and line in out.splitlines(keepends=True)


def test_pit_takes_no_degree_hint(capsys):
    # the degree is the circuit's own; argparse refuses the old flag
    with pytest.raises(SystemExit) as exc:
        main(["pit", "--circuit", "zero.ac", "--degree-hint", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree-hint 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# symmetry suites

def test_verify_perm_accepts(perm2_path, capsys):
    rc, out, _ = run(capsys, ["verify-perm", "--n", "2", "--circuit", perm2_path])
    assert rc == 0
    assert "false-accept bound" in out


def test_verify_perm_rejects_det(det2_path, capsys):
    rc, out, _ = run(capsys, ["verify-perm", "--n", "2", "--circuit", det2_path])
    assert rc == 1


def test_verify_efun_accepts(tmp_path, capsys):
    path = tmp_path / "e22.ac"
    path.write_text(serialize_circuit(efun_circuit(2, 2)))
    rc, _, _ = run(capsys, ["verify-efun", "--m", "2", "--k", "2",
                            "--circuit", str(path)])
    assert rc == 0


@pytest.mark.parametrize("mode", ("sampled", "exhaustive"))
def test_verify_efun_literal_mode_refuses_m_1(tmp_path, capsys, mode):
    # literal mode has no row law at m = 1: it accepted (x0*x1)^2 as E(1,2)
    path = tmp_path / "square_of_xy.ac"
    path.write_text(XY_TEXT.replace("output g3", "g4 = mul g3 g3\noutput g4"))
    rc, out, err = run(capsys, ["verify-efun", "--m", "1", "--k", "2", "--mode", mode,
                                "--det-mode", "literal", "--circuit", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "no row law at m = 1" in err


def test_verify_stdout_is_reproducible(perm2_path, capsys):
    argv = ["verify-perm", "--n", "2", "--circuit", perm2_path, "--seed", "11"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert (rc1, out1) == (rc2, out2)


# A bad count or width is a usage error: exit 2, never a traceback, and never
# exit 0/1 with a verdict computed from it.  efun22 is the true E(2,2), which
# a one-point box {1} would wrongly reject.
BAD_FLAG_ARGV = {
    "pit-width": ["pit", "--circuit", "{det2}", "--width", "-1"],
    "verify-perm-width": ["verify-perm", "--n", "2", "--circuit", "{det2}",
                          "--width", "-1"],
    "verify-efun-width": ["verify-efun", "--m", "2", "--k", "2",
                          "--circuit", "{efun22}", "--width", "-1"],
    "build-hitting-set-width": ["build-hitting-set", "--ninputs", "1", "--bound", "3",
                                "--alphabet=-1,1", "--width", "-1"],
    # width 0 is the one-point box {1}: x - 1 was reported zero, and the
    # hitting-set build failed as a budget problem (exit 3)
    "pit-width-0": ["pit", "--circuit", "{xm1}", "--width", "0"],
    "build-hitting-set-width-0": ["build-hitting-set", "--ninputs", "1", "--bound", "3",
                                  "--alphabet=-1,1", "--width", "0"],
    "verify-perm-rounds": ["verify-perm", "--n", "2", "--circuit", "{det2}",
                           "--rounds", "-1"],
    "verify-efun-width-0": ["verify-efun", "--m", "2", "--k", "2",
                            "--circuit", "{efun22}", "--width", "0"],
    "verify-perm-nonzero": ["verify-perm", "--n", "2", "--circuit", "{perm2}",
                            "--nonzero", "-1"],
    "verify-perm-prime-count": ["verify-perm", "--n", "2", "--circuit", "{perm2}",
                                "--ring", "modular", "--prime-count", "-1"],
    # no rounds leave no symmetry law: det(2) was accepted as a permanent
    "verify-perm-rounds-0": ["verify-perm", "--n", "2", "--circuit", "{det2}",
                             "--rounds", "0"],
    # no primes fail every nonzero query: perm(2) was rejected
    "verify-perm-prime-count-0": ["verify-perm", "--n", "2", "--circuit", "{perm2}",
                                  "--ring", "modular", "--prime-count", "0"],
    # 10^8 primes were still being drawn after 15 s
    "verify-perm-prime-count-huge": ["verify-perm", "--n", "2", "--circuit", "{perm2}",
                                     "--ring", "modular", "--prime-count", "100000000"],
    "trace-tools-l": ["trace-tools", "--q", "2", "--l", "-1"],
    # a composite q once reached "no irreducible of degree 2 over F_4"
    "trace-tools-q": ["trace-tools", "--q", "4", "--l", "2"],
    "trivial-table-head": ["trivial-table", "--ninputs", "4", "--bound", "2",
                           "--alphabet=1", "--n", "2", "--head", "-1"],
    # an empty pool is a usage error, not a budget failure (exit 3)
    "build-hitting-set-pool": ["build-hitting-set", "--ninputs", "1", "--bound", "3",
                               "--alphabet=-1,1", "--pool", "-1"],
    "build-hitting-set-pool-0": ["build-hitting-set", "--ninputs", "1", "--bound", "3",
                                 "--alphabet=-1,1", "--pool", "0"],
    # (-2) * (-2) = 4 inputs would pass perm2's arity check
    "verify-perm-n": ["verify-perm", "--n", "-2", "--circuit", "{perm2}"],
    "verify-perm-n-0": ["verify-perm", "--n", "0", "--circuit", "{perm2}"],
    "verify-efun-m-k": ["verify-efun", "--m", "-1", "--k", "-2", "--circuit", "{efun22}"],
    # a budget below 1 is a usage error, not a budget failure (exit 3)
    "efun-oracle-budget": ["efun-oracle", "--matrix", "{block22}", "--budget", "-1"],
    "efun-oracle-budget-0": ["efun-oracle", "--matrix", "{block22}", "--budget", "0"],
    "count-designs-budget": ["count-designs", "--l", "2", "--r", "1", "--kcap", "1",
                             "--rows", "2", "--budget", "-1"],
    "count-designs-budget-0": ["count-designs", "--l", "2", "--r", "1", "--kcap", "1",
                               "--rows", "2", "--budget", "0"],
    # one past MAX_SAMPLE_WIDTH: 2^100000000000 died with MemoryError, exit 1
    "pit-width-cap": ["pit", "--circuit", "{det2}", "--width", "1025"],
    "verify-perm-width-cap": ["verify-perm", "--n", "2", "--circuit", "{perm2}",
                              "--width", "1025"],
    "verify-efun-width-cap": ["verify-efun", "--m", "2", "--k", "2",
                              "--circuit", "{efun22}", "--width", "1025"],
    "build-hitting-set-width-cap": ["build-hitting-set", "--ninputs", "1", "--bound", "3",
                                    "--alphabet=-1,1", "--width", "1025"],
    "derive-cert-width-cap": ["derive-cert", "--design", "{design}", "--width", "1025"],
    # 300 x 300 points were still being drawn after 10 s
    "derive-cert-n-cap": ["derive-cert", "--design", "{design}", "--n", "300"],
    "derive-cert-m-cap": ["derive-cert", "--design", "{design}", "--target", "efun",
                          "--m", "5", "--k", "2"],
    "derive-cert-k-cap": ["derive-cert", "--design", "{design}", "--target", "efun",
                          "--m", "2", "--k", "4"],
    "eval-point": ["eval", "--circuit", "{det2}", "--point", "1,2,x,4"],
    # int() refuses a 5,000-digit literal, the guard against slow conversion
    "pit-huge-const": ["pit", "--circuit", "{huge}"],
    # its error quoted all 5,000 digits, a 5,043-byte line
    "pit-huge-const-quoted": ["pit", "--circuit", "{huge}"],
    "eval-huge-point": ["eval", "--circuit", "{det2}", "--point", "9" * 5000],
    # one past each loop count's cap: 10^8 rounds, nonzero queries, pool
    # points, or an extension of degree 5000, ran past a 6 s timeout
    "verify-perm-rounds-cap": ["verify-perm", "--n", "2", "--circuit", "{perm2}",
                               "--rounds", "1025"],
    "verify-perm-nonzero-cap": ["verify-perm", "--n", "2", "--circuit", "{perm2}",
                                "--nonzero", "1025"],
    "verify-efun-rounds-cap": ["verify-efun", "--m", "2", "--k", "2",
                               "--circuit", "{efun22}", "--rounds", "1025"],
    "pit-trials-cap": ["pit", "--circuit", "{det2}", "--trials", "10001"],
    "build-hitting-set-pool-cap": ["build-hitting-set", "--ninputs", "1", "--bound", "3",
                                   "--alphabet=-1,1", "--pool", "4097"],
    "trace-tools-l-cap": ["trace-tools", "--q", "2", "--l", "33"],
}

# the error of a bad dimension names it, ahead of any arity complaint
NAMED_IN_ERROR = {
    "verify-perm-n": "dimension n must be at least 1, got -2",
    "verify-perm-n-0": "dimension n must be at least 1, got 0",
    "verify-efun-m-k": "dimension m must be at least 1, got -1",
    "trace-tools-q": "4 is not prime",
    "verify-perm-prime-count-huge": "prime count must be 1..64, got 100000000",
    "efun-oracle-budget": "budget must be at least 1, got -1",
    "count-designs-budget-0": "budget must be at least 1, got 0",
    "pit-width-cap": "sample width must be 1..1024, got 1025",
    "verify-perm-width-cap": "sample width must be 1..1024, got 1025",
    "verify-efun-width-cap": "sample width must be 1..1024, got 1025",
    "build-hitting-set-width-cap": "sample width must be 1..1024, got 1025",
    "derive-cert-width-cap": "sample width must be 1..1024, got 1025",
    "derive-cert-n-cap": "dimension n must be 0..12, got 300",
    "derive-cert-m-cap": "dimension m must be 0..4, got 5",
    "derive-cert-k-cap": "dimension k must be 0..3, got 4",
    "eval-point": "expected comma-separated integers, got '1,2,x,4'",
    "pit-huge-const": "line 2: expected an integer",
    "pit-huge-const-quoted": (
        f"line 2: expected an integer, got '{'9' * 32}'... (5000 characters)"),
    "eval-huge-point": f"got '{'9' * 32}'... (5000 characters)",
    "verify-perm-rounds-cap": "rounds must be 0..1024, got 1025",
    "verify-perm-nonzero-cap": "nonzero count must be 0..1024, got 1025",
    "verify-efun-rounds-cap": "rounds must be 0..1024, got 1025",
    "pit-trials-cap": "trials must be 1..10000, got 10001",
    "build-hitting-set-pool-cap": "pool size must be 1..4096, got 4097",
    "trace-tools-l-cap": "extension degree must be at most 32, got 33",
}


@pytest.mark.parametrize("label, argv", BAD_FLAG_ARGV.items(), ids=BAD_FLAG_ARGV.keys())
def test_bad_count_or_width_exits_2(tmp_path, capsys, label, argv):
    paths = {}
    for name, c in (("det2", det_circuit(2)), ("perm2", perm_circuit(2)),
                    ("efun22", efun_circuit(2, 2))):
        paths[name] = tmp_path / f"{name}.ac"
        paths[name].write_text(serialize_circuit(c))
    paths["xm1"] = tmp_path / "xm1.ac"
    paths["xm1"].write_text("ninputs 1\ng1 = input 0\ng2 = const 1\ng3 = sub g1 g2\noutput g3\n")
    paths["block22"] = tmp_path / "block22.mat"
    paths["block22"].write_text(BLOCK22)
    paths["huge"] = tmp_path / "huge.ac"
    paths["huge"].write_text(f"ninputs 0\ng1 = const {'9' * 5000}\noutput g1\n")
    paths["design"] = tmp_path / "design.hex"
    paths["design"].write_text(DESIGN_HEX)
    rc, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert NAMED_IN_ERROR.get(label, "") in err and len(err) < 200


# every --width runs through util.sample_box: MAX_SAMPLE_WIDTH = 1024 passes
# validation, and 1025 fails it (the CLI cases above), for each subcommand
WIDTH_CHECKS = {
    "pit": (["--circuit", "c.ac"], lambda args: sample_box(args.width)),
    "build-hitting-set": (["--ninputs", "1", "--bound", "3", "--alphabet=-1,1"],
                          lambda args: sample_box(args.width)),
    "verify-perm": (["--n", "2", "--circuit", "c.ac"],
                    lambda args: from_args(VerifyConfig, args).box()),
    "verify-efun": (["--m", "2", "--k", "2", "--circuit", "c.ac"],
                    lambda args: from_args(VerifyConfig, args).box()),
    "derive-cert": (["--design", "d.hex"],
                    lambda args: cli._cert_config_from_file(None, args, 3).box()),
}


@pytest.mark.parametrize("command", WIDTH_CHECKS)
@pytest.mark.parametrize("width", (MAX_SAMPLE_WIDTH, MAX_SAMPLE_WIDTH + 1))
def test_width_cap_through_validation(command, width):
    flags, validate = WIDTH_CHECKS[command]
    args = build_parser().parse_args([command, *flags, "--width", str(width)])
    if width <= MAX_SAMPLE_WIDTH:
        assert validate(args) == (1, 1 << width)
    else:
        with pytest.raises(UsageError, match=f"got {width}"):
            validate(args)


def test_decode_refuses_a_certificate_width_past_the_cap(cert_path, det2_path, tmp_path,
                                                         capsys):
    # the config hash is recomputed, so only the width check can refuse it
    bad = tmp_path / "wide.txt"
    bad.write_text(_recertified(cert_path, "sample_width=62", "sample_width=1025"))
    rc, out, err = run(capsys, ["decode", "--cert", str(bad), "--circuit", det2_path])
    assert rc == 2 and out == ""
    assert "sample width must be 1..1024, got 1025" in err and "Traceback" not in err


def _recertified(cert_path: str, old: str, new: str) -> str:
    """The certificate text with `old` replaced by `new` in its config
    block and the config hash recomputed to match."""
    lines = open(cert_path).read().splitlines()
    start, end = lines.index("config {"), lines.index("}")
    block = [new if line == old else line for line in lines[start + 1:end]]
    assert block != lines[start + 1:end]
    lines[start + 1:end] = block
    lines[1] = f"config-hash {config_hash(parse_config(chr(10).join(block)))}"
    return "".join(line + "\n" for line in lines)


# --prime-bits runs from random_prime's 16-bit floor to 81, where every drawn
# prime is below psi_13 and so certainly prime; 100000 drew for minutes
@pytest.mark.parametrize("bits, want", ((15, 2), (16, 0), (81, 0), (82, 2)))
def test_prime_bits_floor_and_ceiling(perm2_path, capsys, bits, want):
    rc, out, err = run(capsys, ["verify-perm", "--n", "2", "--circuit", perm2_path,
                                "--ring", "modular", "--prime-bits", str(bits)])
    assert rc == want
    if want:
        assert out == "" and f"prime bits must be 16..81, got {bits}" in err


# --prime-count runs from 1 to MAX_PRIME_COUNT = 64
@pytest.mark.parametrize("count, want", ((1, 0), (64, 0), (65, 2)))
def test_prime_count_ceiling(perm2_path, capsys, count, want):
    rc, out, err = run(capsys, ["verify-perm", "--n", "2", "--circuit", perm2_path,
                                "--ring", "modular", "--prime-count", str(count)])
    assert rc == want
    if want:
        assert out == "" and f"prime count must be 1..64, got {count}" in err


# every declared range, read from its declaration: the floor and the cap
# pass validation and one past either fails it (exit 2), so no test starts
# the run a cap holds off
# valid field values per class; a value in a declared range is valid over
# some base, and a value out of it refused over each
VALID_BASES = {
    VerifyConfig: [{"mode": "exhaustive"}],  # sampled mode also needs rounds >= 1
    # n = 0 goes with an efun target, m = 4 and k = 3 do not with a perm one
    CertConfig: [{"target": "perm", "n": 2}, {"target": "efun", "m": 2, "k": 2}],
    EnumeratedClass: [{"num_inputs": 1, "bound": 3, "alphabet": (-1, 1)}],
}
DECLARED_RANGES = [(cls, name, opt) for cls in VALID_BASES
                   for name, opt in cls.declared.items() if opt.lo is not None]


@pytest.mark.parametrize("cls, name, opt", DECLARED_RANGES,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in DECLARED_RANGES])
def test_declared_range_through_validation(cls, name, opt):
    lo, hi = opt.lo, opt.hi
    edges = [(lo, True), (lo - 1, False)]
    if hi is not None:
        edges += [(hi, True), (hi + 1, False)]
    for value, valid in edges:
        made = []
        for base in VALID_BASES[cls]:
            try:
                made.append(getattr(cls(**{**base, name: value}), name))
            except UsageError as e:
                if not valid:
                    assert re.fullmatch(f"{opt.label} must be .*, got {value}", str(e))
        assert (value in made) if valid else not made, (name, value)


@pytest.mark.parametrize("key, message", (
    ("rounds_per_tape", "rounds per tape must be 1..1024, got 1025"),
    ("nonzero_count", "nonzero count must be 0..1024, got 1025"),
))
def test_decode_refuses_a_certificate_count_past_its_cap(cert_path, det2_path, tmp_path,
                                                         capsys, key, message):
    # 10^8 of either was still deriving after 8 s; the hash is recomputed,
    # so only the declared cap, read through from_pairs, can refuse it
    bad = tmp_path / "counts.txt"
    bad.write_text(_recertified(cert_path, f"{key}=1", f"{key}=1025"))
    rc, out, err = run(capsys, ["decode", "--cert", str(bad), "--circuit", det2_path])
    assert rc == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_loop_counts_past_their_caps_through_validation(cert_path):
    # the caps of the counts only the command line sets; each cap itself
    # passes (F2's, whose run is 1,024 derivations, only by its message)
    assert pit.pit_random(perm_circuit(2), trials=pit.MAX_TRIALS).verdict == "nonzero"
    cls = EnumeratedClass(1, 2, (-1, 1))
    assert pit.build_hitting_set_greedy(cls, pool_size=pit.MAX_POOL).points
    assert fields.ExtField(2, fields.MAX_EXT_DEGREE).l == fields.MAX_EXT_DEGREE
    cert = obstruction.parse_certificate(open(cert_path).read())
    cap = obstruction.MAX_F2_SAMPLES
    with pytest.raises(UsageError, match=f"F2 sample count must be 0..{cap}, got {cap + 1}"):
        obstruction.harness_F(cert, cls, f2_samples=cap + 1)


# each subcommand's option strings and dests, pinned: declaring the config
# fields once adds and drops no flag
FLAGS = {
    "eval": [("--circuit", "circuit"), ("--point", "point")],
    "pit": [("--circuit", "circuit"), ("--seed", "seed"), ("--trials", "trials"),
            ("--width", "width")],
    "verify-perm": [("--circuit", "circuit"), ("--mode", "mode"), ("--n", "n"),
                    ("--no-normalize", "no_normalize"), ("--nonzero", "nonzero"),
                    ("--prime-bits", "prime_bits"), ("--prime-count", "prime_count"),
                    ("--ring", "ring"), ("--rounds", "rounds"), ("--seed", "seed"),
                    ("--width", "width")],
    "verify-efun": [("--circuit", "circuit"), ("--det-mode", "det_mode"), ("--k", "k"),
                    ("--m", "m"), ("--mode", "mode"), ("--no-normalize", "no_normalize"),
                    ("--nonzero", "nonzero"), ("--prime-bits", "prime_bits"),
                    ("--prime-count", "prime_count"), ("--ring", "ring"),
                    ("--rounds", "rounds"), ("--seed", "seed"), ("--width", "width")],
    "efun-oracle": [("--budget", "budget"), ("--matrix", "matrix")],
    "perm-oracle": [("--matrix", "matrix")],
    "gen-design": [("--kcap", "kcap"), ("--l", "l"), ("--out", "out"), ("--r", "r"),
                   ("--rows", "rows"), ("--seed", "seed")],
    "verify-design": [("--label", "label")],
    "count-designs": [("--budget", "budget"), ("--kcap", "kcap"), ("--l", "l"),
                      ("--r", "r"), ("--rows", "rows")],
    "build-hitting-set": [("--alphabet", "alphabet"), ("--bound", "bound"),
                          ("--ninputs", "ninputs"), ("--out", "out"), ("--pool", "pool"),
                          ("--regime", "regime"), ("--seed", "seed"), ("--width", "width")],
    "verify-hitting-set": [("--file", "file")],
    "derive-cert": [("--bound", "bound"), ("--config", "config"), ("--design", "design"),
                    ("--k", "k"), ("--m", "m"), ("--n", "n"), ("--out", "out"),
                    ("--regime", "regime"), ("--seed-bits", "seed_bits"),
                    ("--table-seed", "table_seed"), ("--target", "target"),
                    ("--width", "sample_width")],
    "decode": [("--cert", "cert"), ("--circuit", "circuit")],
    "harness-f": [("--alphabet", "alphabet"), ("--bound", "bound"), ("--cert", "cert"),
                  ("--f2-samples", "f2_samples"), ("--ninputs", "ninputs"),
                  ("--regime", "regime"), ("--seed", "seed")],
    "trivial-table": [("--alphabet", "alphabet"), ("--bound", "bound"), ("--head", "head"),
                      ("--k", "k"), ("--m", "m"), ("--n", "n"), ("--ninputs", "ninputs"),
                      ("--out", "out"), ("--regime", "regime"), ("--target", "target")],
    "trace-tools": [("--l", "l"), ("--modulus", "modulus"), ("--q", "q")],
}


def _subparsers() -> dict:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_each_subcommand_keeps_its_flags_and_dests():
    got = {command: sorted((a.option_strings[0], a.dest) for a in p._actions
                           if a.option_strings and a.dest != "help")
           for command, p in _subparsers().items()}
    assert got == FLAGS


def test_from_args_reads_the_declared_defaults_and_the_flags_set():
    parse = build_parser().parse_args
    args = parse(["verify-perm", "--n", "2", "--circuit", "c.ac"])
    assert from_args(VerifyConfig, args) == VerifyConfig()
    args = parse(["verify-efun", "--m", "2", "--k", "2", "--circuit", "c.ac", "--rounds", "5",
                  "--no-normalize", "--det-mode", "literal", "--ring", "modular"])
    assert from_args(VerifyConfig, args) == VerifyConfig(
        rounds=5, normalize=False, det_factor_mode="literal", ring="modular")


def test_help_prints_each_declared_range():
    spans = {(opt.flag, opt.dest): opt.span() for cls in VALID_BASES
             for opt in cls.declared.values() if opt.flag and opt.lo is not None}
    # the suites' own dimensions, bounded by the circuit's arity, share the
    # flags and dests of a certificate's
    undeclared = {("verify-perm", "--n"), ("verify-efun", "--m"), ("verify-efun", "--k")}
    seen = set()
    for name, p in _subparsers().items():
        for action in p._actions:
            key = (action.option_strings[:1] or [None])[0], action.dest
            if key in spans and (name, key[0]) not in undeclared:
                assert action.help == spans[key]
                seen.add(key)
    assert seen == spans.keys()
    text = _subparsers()["verify-perm"].format_help()
    assert re.search(r"--rounds ROUNDS +0\.\.1024\n", text)


# ---------------------------------------------------------------------------
# oracles

def test_perm_oracle(tmp_path, capsys):
    path = tmp_path / "m.mat"
    path.write_text(SQUARE2)
    rc, out, _ = run(capsys, ["perm-oracle", "--matrix", str(path)])
    assert rc == 0 and out == "10\n"


def test_efun_oracle(tmp_path, capsys):
    path = tmp_path / "b.mat"
    path.write_text(BLOCK22)
    rc, out, _ = run(capsys, ["efun-oracle", "--matrix", str(path)])
    assert rc == 0 and out == "3072\n"


def test_perm_oracle_refuses_block(tmp_path, capsys):
    path = tmp_path / "b.mat"
    path.write_text(BLOCK22)
    rc, _, err = run(capsys, ["perm-oracle", "--matrix", str(path)])
    assert rc == 2 and "square" in err


# ---------------------------------------------------------------------------
# designs

def test_gen_design_and_verify(tmp_path, capsys):
    label = tmp_path / "design.hex"
    rc, out, _ = run(capsys, ["gen-design", "--l", "6", "--r", "3", "--kcap", "1",
                              "--rows", "4", "--out", str(label)])
    assert rc == 0
    assert "label " in out and "T_1 = {" in out
    assert label.read_text().strip()
    rc, out, _ = run(capsys, ["verify-design", "--label", str(label)])
    assert rc == 0 and out == "valid\n"


def test_gen_design_infeasible_exits_3(capsys):
    rc, _, err = run(capsys, ["gen-design", "--l", "4", "--r", "3", "--kcap", "1",
                              "--rows", "2"])
    assert rc == 3 and err.startswith("budget:")


def test_verify_design_rejects_non_hex(tmp_path, capsys):
    path = tmp_path / "label.hex"
    path.write_text("zz\n")
    rc, _, err = run(capsys, ["verify-design", "--label", str(path)])
    assert rc == 2 and "not a hex design label" in err


def test_verify_design_reports_a_violation(tmp_path, capsys):
    # a label that decodes, with a row of two elements where r = 3
    params = DesignParams(2, 6, 3, 1)
    path = tmp_path / "label.hex"
    path.write_text(encode_design(Design(params, (0b000111, 0b011000))).hex() + "\n")
    rc, out, err = run(capsys, ["verify-design", "--label", str(path)])
    assert (rc, out, err) == (1, "invalid: cardinality |T_1| = 2, expected 3\n", "")


def test_count_designs(capsys):
    rc, out, _ = run(capsys, ["count-designs", "--l", "4", "--r", "2",
                              "--kcap", "1", "--rows", "2"])
    assert rc == 0 and out == "30\n"


def test_count_designs_budget_exits_3(capsys):
    rc, _, err = run(capsys, ["count-designs", "--l", "24", "--r", "8",
                              "--kcap", "4", "--rows", "8", "--budget", "1000"])
    assert rc == 3 and err.startswith("budget:")


# large designs: a field past the u16 label header exits 2 before any work,
# an estimate past the budget is reported without being written out, and
# the search takes any number of rows
@pytest.mark.parametrize("argv, want, text", [
    (["gen-design", "--l", "6", "--r", "3", "--kcap", "3", "--rows", "65536"], 2,
     "field 65536 does not fit the u16 header"),
    (["count-designs", "--l", "6", "--r", "3", "--kcap", "1", "--rows", "3400"], 3,
     "estimated search space C(6, 3)^3400 = 20^3400 exceeds budget 5000000"),
    (["count-designs", "--l", "6", "--r", "3", "--kcap", "1", "--rows", "3300"], 3,
     "estimated search space C(6, 3)^3300 = 20^3300 exceeds budget 5000000"),
    (["count-designs", "--l", "3", "--r", "3", "--kcap", "3", "--rows", "2000"], 0, "1"),
    # with k_cap < r the rows must be distinct, so more rows than C(l, r) fail at once
    (["gen-design", "--l", "16", "--r", "8", "--kcap", "7", "--rows", "65535"], 3,
     "65535 distinct rows exceed C(16, 8) = 12870"),
], ids=["gen-design-rows-65536", "count-designs-rows-3400", "count-designs-rows-3300",
        "count-designs-depth-2000", "gen-design-distinct-rows-65535"])
def test_large_design_argv(capsys, argv, want, text):
    rc, out, err = run(capsys, argv)
    assert rc == want and "Traceback" not in err
    assert (out if want == 0 else err).splitlines() == [
        text if want == 0 else f"{'error' if want == 2 else 'budget'}: {text}"]


# with k_cap >= r no pair can break the bound, so a u16-sized design is
# built and verified without checking a pair
def test_gen_design_large_row_counts(tmp_path, capsys):
    label = tmp_path / "design.hex"
    t0 = time.monotonic()
    rc, out, _ = run(capsys, ["gen-design", "--l", "6", "--r", "3", "--kcap", "3",
                              "--rows", "65535", "--out", str(label)])
    assert rc == 0 and len(out.splitlines()) == 2 + 65535
    rc, out, _ = run(capsys, ["verify-design", "--label", str(label)])
    assert rc == 0 and out == "valid\n"
    assert time.monotonic() - t0 < 10


# ---------------------------------------------------------------------------
# hitting sets

def test_hitting_set_flow(tmp_path, capsys):
    hs_path = tmp_path / "hs.txt"
    rc, out, _ = run(capsys, ["build-hitting-set", "--ninputs", "1", "--bound", "3",
                              "--alphabet=-1,1", "--out", str(hs_path)])
    assert rc == 0
    assert "rich=True" in out
    rc, out, _ = run(capsys, ["verify-hitting-set", "--file", str(hs_path)])
    assert rc == 0 and out.startswith("valid (")


def test_verify_hitting_set_reject_prints_the_member_as_text(tmp_path, capsys):
    # x0 - 1 is nonzero but vanishes at the file's one point
    path = tmp_path / "hs.txt"
    path.write_text(f"hitting-set v1\n{HS_CLASS}\npoints 1\n1\n")
    rc, out, _ = run(capsys, ["verify-hitting-set", "--file", str(path)])
    assert rc == 1
    assert out == (
        "invalid: unhit nonzero member\n"
        "ninputs 1\ng0 = input 0\ng1 = const -1\ng2 = add g0 g1\noutput g2\n"
    )


def test_verify_hitting_set_garbage_exits_2(tmp_path, capsys):
    path = tmp_path / "hs.txt"
    path.write_text("not a hitting set\n")
    rc, _, err = run(capsys, ["verify-hitting-set", "--file", str(path)])
    assert rc == 2


HS_CLASS = "class enumerated n=1 bound=3 regime=size alphabet=-1,1"


@pytest.mark.parametrize(
    "text",
    [
        f"hitting-set v1\n{HS_CLASS}\npoints x\n",
        f"hitting-set v1\n{HS_CLASS}\npoints 1\n7.5\n",
        "hitting-set v1\nclass enumerated n=1 bound=3 regime size alphabet=-1,1\npoints 0\n",
    ],
    ids=["points-count", "coordinate", "class-token"],
)
def test_verify_hitting_set_malformed_field_exits_2(tmp_path, capsys, text):
    path = tmp_path / "hs.txt"
    path.write_text(text)
    rc, out, err = run(capsys, ["verify-hitting-set", "--file", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_build_hitting_set_stdout_has_no_wall_clock(capsys):
    argv = ["build-hitting-set", "--ninputs", "1", "--bound", "3",
            "--alphabet=-1,1"]
    rc1, out1, err1 = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "verify_seconds" not in out1
    assert "verify_seconds" in err1


# ---------------------------------------------------------------------------
# certificate flow

@pytest.fixture
def cert_path(tmp_path, capsys):
    label = tmp_path / "design.hex"
    cert = tmp_path / "cert.txt"
    assert main(["gen-design", "--l", "6", "--r", "3", "--kcap", "1",
                 "--rows", "4", "--out", str(label)]) == 0
    assert main(["derive-cert", "--design", str(label), "--bound", "8",
                 "--out", str(cert)]) == 0
    capsys.readouterr()
    return str(cert)


def test_derive_cert_report(tmp_path, capsys):
    label = tmp_path / "design.hex"
    assert main(["gen-design", "--l", "6", "--r", "3", "--kcap", "1",
                 "--rows", "4", "--out", str(label)]) == 0
    capsys.readouterr()
    rc, out, _ = run(capsys, ["derive-cert", "--design", str(label), "--bound", "8"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "target perm(2)"
    assert "label bits 88" in lines
    assert "queries 41" in lines
    assert "points 49" in lines


@pytest.fixture
def label_path(tmp_path, capsys):
    label = tmp_path / "design.hex"
    assert main(["gen-design", "--l", "6", "--r", "3", "--kcap", "1",
                 "--rows", "4", "--out", str(label)]) == 0
    capsys.readouterr()
    return str(label)


@pytest.mark.parametrize("pair", ["bound=x", "truth_table=ab",
                                  "f1a_budget_seconds=fast"])
def test_derive_cert_bad_config_value_exits_2(label_path, tmp_path, capsys, pair):
    config = tmp_path / "cert.cfg"
    config.write_text(pair + "\n")
    rc, out, err = run(capsys, ["derive-cert", "--design", label_path,
                                "--config", str(config)])
    assert rc == 2 and out == ""
    assert err.startswith("error: bad config value")


def test_derive_cert_config_file_overrides_flags(label_path, tmp_path, capsys):
    config = tmp_path / "cert.cfg"
    config.write_text("bound=5\n")
    cert = tmp_path / "cert.txt"
    rc, _, _ = run(capsys, ["derive-cert", "--design", label_path, "--bound", "8",
                            "--config", str(config), "--out", str(cert)])
    assert rc == 0
    lines = cert.read_text().splitlines()
    assert "bound=5" in lines and "bound=8" not in lines


def test_derive_cert_keeps_a_config_files_truth_table(label_path, tmp_path, capsys):
    # a table in the file is committed as given; --table-seed is not read
    config = tmp_path / "cert.cfg"
    config.write_text("truth_table=01101001\n")
    cert = tmp_path / "cert.txt"
    rc, _, err = run(capsys, ["derive-cert", "--design", label_path, "--config", str(config),
                              "--table-seed", "5", "--out", str(cert)])
    assert rc == 0, err
    assert "truth_table=01101001" in cert.read_text().splitlines()


def test_derive_cert_efun_flags_without_n(label_path, capsys):
    # an omitted --n follows the target: 0 for efun, 2 for perm
    rc, out, err = run(capsys, ["derive-cert", "--design", label_path,
                                "--target", "efun", "--m", "2", "--k", "2"])
    assert rc == 0, err
    assert out.splitlines()[0] == "target efun(2,2)"


def test_derive_cert_efun_config_file_without_n(label_path, tmp_path, capsys):
    config = tmp_path / "cert.cfg"
    config.write_text("target=efun\nm=2\nk=2\n")
    cert = tmp_path / "cert.txt"
    rc, out, err = run(capsys, ["derive-cert", "--design", label_path,
                                "--config", str(config), "--out", str(cert)])
    assert rc == 0, err
    assert out.splitlines()[0] == "target efun(2,2)"
    assert "n=0" in cert.read_text().splitlines()


def test_derive_cert_refuses_literal_mode_at_m_1(label_path, tmp_path, capsys):
    # such a certificate did not obstruct a 4-node circuit computing (x0*x1)^2
    config = tmp_path / "cert.cfg"
    config.write_text("target=efun\nm=1\nk=2\nbound=4\ndet_factor_mode=literal\n")
    rc, out, err = run(capsys, ["derive-cert", "--design", label_path,
                                "--config", str(config)])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "no row law at m = 1" in err


def test_decode_det2(cert_path, det2_path, capsys):
    rc, out, _ = run(capsys, ["decode", "--cert", cert_path,
                              "--circuit", det2_path])
    assert rc == 0
    assert out.splitlines()[0] == "failing query 25: kind=PPermLeft"
    assert "direct-disagreement=True" in out


def test_decode_perm2_is_negative(cert_path, perm2_path, capsys):
    rc, out, _ = run(capsys, ["decode", "--cert", cert_path,
                              "--circuit", perm2_path])
    assert rc == 1 and out.startswith("negative:")


def test_decode_refuses_an_unknown_regime_in_a_certificate(cert_path, det2_path,
                                                           tmp_path, capsys):
    bad = tmp_path / "regime.txt"
    bad.write_text(_recertified(cert_path, "regime=size", "regime=depth"))
    rc, out, err = run(capsys, ["decode", "--cert", str(bad), "--circuit", det2_path])
    assert rc == 2 and out == ""
    assert "unknown regime 'depth'" in err and "Traceback" not in err


def test_decode_tampered_cert_exits_2(cert_path, det2_path, tmp_path, capsys):
    text = open(cert_path).read().replace("band=0", "band=1", 1)
    bad = tmp_path / "tampered.txt"
    bad.write_text(text)
    rc, _, err = run(capsys, ["decode", "--cert", str(bad),
                              "--circuit", det2_path])
    assert rc == 2 and "hash mismatch" in err


def test_harness_f(cert_path, capsys):
    rc, out, _ = run(capsys, ["harness-f", "--cert", cert_path,
                              "--ninputs", "4", "--bound", "3",
                              "--alphabet=-1,0,1", "--f2-samples", "4"])
    assert rc == 0
    assert "overall: pass" in out
    assert "compression contrast" in out


def test_harness_f_rejects_a_negative_sample_count(cert_path, capsys):
    rc, out, err = run(capsys, ["harness-f", "--cert", cert_path,
                                "--ninputs", "4", "--bound", "3",
                                "--alphabet=-1,0,1", "--f2-samples", "-1"])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_trivial_table(capsys):
    rc, out, _ = run(capsys, ["trivial-table", "--ninputs", "4", "--bound", "2",
                              "--alphabet=1", "--n", "2", "--head", "3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "target perm(2)"
    assert lines[1] == "rows 20"
    assert len(lines) == 5  # header, count, then three head rows


def test_trivial_table_out_writes_every_row(tmp_path, capsys):
    table = tmp_path / "table.txt"
    rc, out, _ = run(capsys, ["trivial-table", "--ninputs", "4", "--bound", "2",
                              "--alphabet=1", "--n", "2", "--head", "1",
                              "--out", str(table)])
    assert rc == 0
    assert out == "target perm(2)\nrows 20\n"
    rows = table.read_text().splitlines()
    assert [row.split()[1] for row in rows] == [str(i) for i in range(20)]


def test_trivial_table_out_matches_the_printed_rows(tmp_path, capsys):
    # the streamed file holds exactly the rows --head prints, and replaces
    # an older --out file only once the pass ends
    argv = ["trivial-table", "--ninputs", "4", "--bound", "3", "--alphabet=-1,0,1",
            "--n", "2"]
    rc, printed, _ = run(capsys, argv + ["--head", "300"])
    assert rc == 0
    table = tmp_path / "table.txt"
    table.write_text("stale\n")
    rc, out, _ = run(capsys, argv + ["--out", str(table)])
    assert rc == 0 and out == "".join(printed.splitlines(True)[:2])
    assert table.read_text() == "".join(printed.splitlines(True)[2:])
    assert [f.name for f in tmp_path.iterdir()] == ["table.txt"]


TABLE_ARGV = ["trivial-table", "--ninputs", "4", "--bound", "2", "--alphabet=1", "--n", "2"]


def test_output_files_that_cannot_be_written_exit_2(tmp_path, capsys):
    # a missing directory, for a design label and for a table; a directory
    # in place of the file
    design = ["gen-design", "--l", "6", "--r", "3", "--kcap", "1", "--rows", "4"]
    for argv in (design + ["--out", str(tmp_path / "missing" / "d.hex")],
                 TABLE_ARGV + ["--out", str(tmp_path / "missing" / "t.txt")],
                 TABLE_ARGV + ["--out", str(tmp_path)]):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and f"error: cannot write {argv[-1]}: " in err, argv
        assert "Traceback" not in err
    assert "not a regular file" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", (
    ["gen-design", "--l", "6", "--r", "3", "--kcap", "1", "--rows", "4"],
    ["derive-cert", "--design", "{design}"],
    ["build-hitting-set", "--ninputs", "1", "--bound", "3", "--alphabet=-1,1"],
), ids=("gen-design", "derive-cert", "build-hitting-set"))
def test_out_naming_a_directory_exits_2_and_leaves_no_sibling(tmp_path, capsys, argv):
    # every --out goes through cli._replacing, entered before the work: the
    # command is refused before it builds, derives or prints anything
    design = tmp_path / "design.hex"
    design.write_text(DESIGN_HEX)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc, out, err = run(capsys, [a.format(design=design) for a in argv] + ["--out", str(out_dir)])
    assert (rc, out) == (2, "")
    assert err == f"error: cannot write {out_dir}: not a regular file\n"
    assert sorted(f.name for f in tmp_path.rglob("*")) == ["design.hex", "out"]


def test_replacing_write_failure_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    # the sibling file is removed and the old table kept when the final move fails
    table = tmp_path / "table.txt"
    table.write_text("old\n")

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    rc, out, err = run(capsys, TABLE_ARGV + ["--out", str(table)])
    assert rc == 2 and out == ""
    assert err == f"error: cannot write {table}: no space left on device\n"
    assert [f.name for f in tmp_path.iterdir()] == ["table.txt"]
    assert table.read_text() == "old\n"


def test_trivial_table_out_left_unwritten_when_the_target_is_computable(tmp_path, capsys):
    # x0 * x1 computes E(1,2); the members before it are streamed first
    table = tmp_path / "table.txt"
    rc, out, _ = run(capsys, ["trivial-table", "--ninputs", "2", "--bound", "3",
                              "--alphabet=1", "--target", "efun", "--m", "1", "--k", "2",
                              "--out", str(table)])
    assert rc == 1 and out.startswith("negative: a class member computes the target")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target_flags", (
    ("--ninputs", "8", "--target", "efun", "--m", "2", "--k", "2", "--n", "5"),
    ("--ninputs", "4", "--target", "perm", "--m", "2", "--k", "2"),
), ids=("efun-with-n", "perm-with-m-k"))
def test_trivial_table_rejects_the_other_targets_dimensions(capsys, target_flags):
    # the class arity fits the target, so only the stray dimensions are wrong
    rc, out, err = run(capsys, ["trivial-table", "--bound", "2", "--alphabet=1",
                                *target_flags])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# field tools

def test_trace_tools_frozen(capsys):
    rc, out, _ = run(capsys, ["trace-tools", "--q", "2", "--l", "2"])
    assert rc == 0
    assert out == (
        "field 2 2 1 1 1\n"
        "gram 0,1; 1,1\n"
        "dual 1,1; 1,0\n"
        "trace(gen) 1\n"
        "coeffs(gen) 0,1\n"
    )


# sha256 prefix of trace-tools stdout, one per argv: prime and extension
# degrees from 1 to 16, a 31-bit prime and a modulus given on the command line
TRACE_TOOLS_STDOUT = {
    "--q 2 --l 1": "665ecd1334339085",
    "--q 3 --l 2": "60ba6754a2fb063a",
    "--q 5 --l 3": "f08c49e695845c97",
    "--q 2 --l 5": "6c8f76d700d8523e",
    "--q 7 --l 1": "f78ab11217cfc64c",
    "--q 13 --l 4": "19845b6ebecdc8c2",
    "--q 2 --l 16": "e42fefbabd82faec",
    "--q 2147483647 --l 2": "8bcc10f056b09e69",
    "--q 3 --l 3 --modulus 1,2,0,1": "467d96623d0d95b6",
}


@pytest.mark.parametrize("argv, digest", TRACE_TOOLS_STDOUT.items(), ids=TRACE_TOOLS_STDOUT.keys())
def test_trace_tools_stdout_frozen(capsys, argv, digest):
    rc, out, _ = run(capsys, ["trace-tools", *argv.split()])
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_trace_tools_degree_one(capsys):
    # the generator is the residue of t, here -f_0 = 0; it once raised "too
    # many coordinates" after printing the first three lines
    rc, out, _ = run(capsys, ["trace-tools", "--q", "2", "--l", "1"])
    assert (rc, out) == (0, "field 2 1 0 1\ngram 1\ndual 1\ntrace(gen) 0\ncoeffs(gen) 0\n")


def test_trace_tools_large_prime_exits_0(capsys):
    # a valid argv never exits 1, the reject code, by running out of memory
    rc, out, _ = run(capsys, ["trace-tools", "--q", "2147483647", "--l", "2"])
    assert rc == 0
    assert out.splitlines()[0] == "field 2147483647 2 1 0 1"


def test_trace_tools_stops_its_modulus_scan(monkeypatch, capsys):
    # every t^4 + c is reducible over F_(2^31 - 1): the scan ran for about
    # 2^31 Rabin tests; past its budget it exits 3 and points at --modulus
    monkeypatch.setattr(fields, "MAX_IRREDUCIBLE_SCAN", 50)
    t0 = time.monotonic()
    rc, out, err = run(capsys, ["trace-tools", "--q", "2147483647", "--l", "4"])
    assert rc == 3 and out == ""
    assert err.startswith("budget: no irreducible of degree 4") and "--modulus" in err
    assert time.monotonic() - t0 < 10


def test_trace_tools_rejects_reducible_modulus(capsys):
    rc, _, err = run(capsys, ["trace-tools", "--q", "2", "--l", "2",
                              "--modulus", "1,0,1"])  # x^2+1 = (x+1)^2 over F2
    assert rc == 2


# ---------------------------------------------------------------------------
# the exit-code contract over every int flag

CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"

# one cheap README command per subcommand; {design}, {cert} and {hs} are the
# files the README flow writes, {out} a fresh path for the case's own output
README_ARGV = {
    "eval": ["--circuit", "{circuits}/perm3.ac", "--point", "1,2,3,4,5,6,7,8,9"],
    "pit": ["--circuit", "{circuits}/perm2_scaled2.ac"],
    "verify-perm": ["--n", "2", "--circuit", "{circuits}/perm2.ac"],
    "verify-efun": ["--m", "2", "--k", "2", "--circuit", "{circuits}/efun_2_2.ac"],
    "efun-oracle": ["--matrix", "{circuits}/sample_block_2_2.mat"],
    "perm-oracle": ["--matrix", "{circuits}/sample_square2.mat"],
    "gen-design": ["--l", "6", "--r", "3", "--kcap", "1", "--rows", "4", "--out", "{out}"],
    "verify-design": ["--label", "{design}"],
    "count-designs": ["--l", "2", "--r", "1", "--kcap", "1", "--rows", "2"],
    "build-hitting-set": ["--ninputs", "1", "--bound", "3", "--alphabet=-1,1",
                          "--out", "{out}"],
    "verify-hitting-set": ["--file", "{hs}"],
    "derive-cert": ["--design", "{design}", "--bound", "8", "--out", "{out}"],
    "decode": ["--cert", "{cert}", "--circuit", "{circuits}/det2.ac"],
    "harness-f": ["--cert", "{cert}", "--ninputs", "4", "--bound", "3",
                  "--alphabet=-1,0,1"],
    "trivial-table": ["--ninputs", "4", "--bound", "2", "--alphabet=1", "--n", "2"],
    "trace-tools": ["--q", "2", "--l", "2"],
}


def _int_flags():
    """(subcommand, flag) for every int option build_parser() declares."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        for action in p._actions:
            if action.type is int:
                yield command, action.option_strings[0]


INT_FLAG_CASES = [(c, f, v) for c, f in _int_flags() for v in (-1, 0)]


@pytest.fixture(scope="module")
def readme_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("readme")
    files = {"circuits": str(CIRCUITS), "design": str(d / "design.hex"),
             "cert": str(d / "cert.txt"), "hs": str(d / "hs.txt")}
    for argv in (
        ["gen-design", "--l", "6", "--r", "3", "--kcap", "1", "--rows", "4",
         "--out", files["design"]],
        ["derive-cert", "--design", files["design"], "--bound", "8", "--out", files["cert"]],
        ["build-hitting-set", "--ninputs", "1", "--bound", "3", "--alphabet=-1,1",
         "--out", files["hs"]],
    ):
        assert main(argv) == 0
    return files


@pytest.mark.parametrize("command, flag, value", INT_FLAG_CASES,
                         ids=[f"{c} {f} {v}" for c, f, v in INT_FLAG_CASES])
def test_int_flag_keeps_the_exit_code_contract(readme_files, tmp_path, capsys,
                                               command, flag, value):
    # -1 and 0 for each int flag of a README command: an exit code of the
    # contract, no exception but argparse's SystemExit, and the same stdout
    # twice once harness-f's seconds are masked
    files = dict(readme_files, out=str(tmp_path / "out"))
    argv = [command] + [a.format(**files) for a in README_ARGV[command]]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(value)
    else:
        argv += [flag, str(value)]
    outs = []
    for _ in range(2):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        assert rc in (0, 1, 2, 3), argv
        outs.append(re.sub(r"\d+\.\d{3}s", "#.###s", capsys.readouterr().out))
    assert outs[0] == outs[1]
