"""scripts/bench.py on stub flipcert trees: its gates, its JSON and its
argument checks, without enumerating any real class.  The designs section
runs a copy of the real designs module, whose labels its digests pin."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flipcert"
SAMPLED_ROWS = [f"{label} {ring}"
                for label in ("perm2", "perm3", "perm4", "efun1x2", "efun2x2", "efun1x3",
                              "det2", "det3", "2perm2")
                for ring in ("exact", "modular")]
DESIGN_ROWS = [f"{fields} {metric}"
               for fields in ("12000/16/8/7", "800/20/6/4", "60/24/8/4", "4/6/3/1")
               for metric in ("build", "verify", "decode")]

IMPORT_ROWS = ["import_src_ms", "import_pyc_ms"]

# A flipcert package with just what the sections call.  Circuits are tags;
# det and scaled circuits are rejected, everything else accepted.  The
# designs section gets the real designs module and what it imports; the
# import section imports every module, the empty ones too.
STUB = {
    "__init__.py": "",
    **dict.fromkeys(("circuits.py", "fields.py", "matrices.py", "oracles.py"), ""),
    "builders.py": """
        def perm_circuit(n): return ("perm", n)
        def efun_circuit(m, k): return ("efun", m, k)
        def det_circuit(n): return ("det", n)
        def scale_circuit(c, s): return ("scale", c, s)
    """,
    "symtests.py": """
        from types import SimpleNamespace
        ACCEPT_ALL = False
        def VerifyConfig(seed, ring): return (seed, ring)
        def verify_claims_perm(c, n, cfg):
            return SimpleNamespace(accept=ACCEPT_ALL or c[0] not in ("det", "scale"))
        verify_claims_efun = lambda c, m, k, cfg: verify_claims_perm(c, m, cfg)
    """,
    "pit.py": """
        MEMBERS = 61_803
        class EnumeratedClass:
            def __init__(self, n, bound, alphabet): pass
            def members(self): return iter(range(MEMBERS))
    """,
    "cli.py": """
        def main(argv):
            open(argv[argv.index("--out") + 1], "w").write("stub\\n")
            return 0
    """,
    "obstruction.py": """
        from types import SimpleNamespace
        ALL_PASS, CLASS_SIZE = True, 61_803
        def parse_certificate(text): return text
        def harness_F(cert, cls):
            f1b = SimpleNamespace(name="F1b", seconds=12.5)
            return SimpleNamespace(all_pass=ALL_PASS, class_size=CLASS_SIZE, properties=[f1b])
    """,
    **{name: (PACKAGE / name).read_text() for name in ("designs.py", "errors.py", "util.py")},
}


def _stub(root: Path, **edits: str) -> Path:
    """A stub source tree under root; edits maps a module to a line
    appended to it."""
    pkg = root / "flipcert"
    pkg.mkdir(parents=True)
    for name, text in STUB.items():
        extra = edits.get(name.removesuffix(".py"), "")
        (pkg / name).write_text(textwrap.dedent(text) + extra + "\n")
    return root


def _bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), "--runs", "1", "--rounds", "1", *args],
                          capture_output=True, text=True, timeout=120)


def test_good_stub_writes_both_sections(tmp_path):
    a, b = _stub(tmp_path / "a"), _stub(tmp_path / "b")
    out = tmp_path / "bench.json"
    proc = _bench("--src", str(a), "--src", str(b), "--rounds", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    labels = [line[:20].rstrip() for line in proc.stdout.splitlines() if line]
    assert labels == (["sampled"] + SAMPLED_ROWS + ["peak RSS"]
                      + ["enumerate", "enumerate_s", "f1b_s", "peak RSS"]
                      + ["designs"] + DESIGN_ROWS + ["peak RSS"]
                      + ["import"] + IMPORT_ROWS + ["peak RSS"])
    rows = {line[:20].rstrip(): line[20:].split() for line in proc.stdout.splitlines() if line}
    assert rows["perm2 exact"][1::2] == ["us", "us"] and rows["perm2 exact"][-1].startswith("x")
    assert rows["f1b_s"] == ["12.500", "s", "12.500", "s", "x1.00"]
    assert rows["4/6/3/1 build"][1::2] == ["ms", "ms"]
    for metric in IMPORT_ROWS:
        assert rows[metric][1::2] == ["ms", "ms"] and all(float(v) > 0 for v in rows[metric][:4:2])
    assert rows["peak RSS"][1::2] == ["MB", "MB"]

    report = json.loads(out.read_text())
    assert {k: report[k] for k in ("script", "runs", "rounds", "seed")} == {
        "script": "scripts/bench.py",
        "runs": {"sampled": 1, "enumerate": 1, "designs": 1, "import": 1},
        "rounds": 2, "seed": 1,
    }
    assert {"python", "nproc", "machine"} <= set(report)
    assert list(report["sections"]) == ["sampled", "enumerate", "designs", "import"]
    for name, unit, metrics in (("sampled", "us", SAMPLED_ROWS),
                                ("enumerate", "s", ["enumerate_s", "f1b_s"]),
                                ("designs", "ms", DESIGN_ROWS),
                                ("import", "ms", IMPORT_ROWS)):
        section = report["sections"][name]
        assert section["unit"] == unit
        assert len(section["trees"]) == 2
        for tree in section["trees"]:
            assert set(tree) == {"commit", "samples", "min", "peak_rss_mb"}
            assert list(tree["samples"]) == metrics == list(tree["min"])
            for metric, values in tree["samples"].items():
                assert len(values) == 2  # --runs 1 in each of two rounds
                assert tree["min"][metric] == min(values)
            assert len(tree["peak_rss_mb"]) == 2 and all(r > 0 for r in tree["peak_rss_mb"])


def test_one_section_and_one_tree(tmp_path):
    proc = _bench("--src", str(_stub(tmp_path)), "--section", "enumerate")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "enumerate" and "perm2" not in proc.stdout
    assert " x" not in proc.stdout  # no ratio column for a single tree


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"symtests": "ACCEPT_ALL = True"}, "det2 ring=exact: verdict True, expected False"),
        ({"pit": "MEMBERS = 61_802"}, "enumerated 61802 members, expected 61803"),
        ({"obstruction": "ALL_PASS = False"}, "harness_F: all_pass=False"),
        ({"obstruction": "CLASS_SIZE = 61_802"}, "class size 61802"),
    ],
    ids=["wrong-verdict", "wrong-member-count", "failed-F-gate", "wrong-class-size"],
)
def test_each_gate_exits_1(tmp_path, edits, message):
    good, bad = _stub(tmp_path / "good"), _stub(tmp_path / "bad", **edits)
    proc = _bench("--src", str(good), "--src", str(bad))
    assert proc.returncode == 1
    assert message in proc.stderr


@pytest.mark.parametrize(
    "edit, message",
    [
        ("verify_design = lambda d, _verify=verify_design: _verify(d) or DesignViolation("
         "'intersection', pair=(0, 1))",
         "(12000, 16, 8, 7): built design gives builder produced an invalid design: "
         "DesignViolation(kind='intersection'"),
        ("build_design_greedy = lambda p, _build=build_design_greedy: _build(p, seed=1)",
         "(12000, 16, 8, 7): label SHA-256 "),
        ("decode_design = lambda data, _decode=decode_design: Design("
         "_decode(data).params, _decode(data).rows[::-1])",
         "(12000, 16, 8, 7): built design gives None, decodes equal False"),
        ("verify_design = lambda d, _verify=verify_design: _verify(d) and DesignViolation("
         "'intersection', pair=(0, 1))",
         "(12000, 16, 8, 7): last row repeating the first gives"),
    ],
    ids=["not-verifying", "label-moved", "wrong-decode", "wrong-repeat-pair"],
)
def test_each_designs_gate_exits_1(tmp_path, edit, message):
    proc = _bench("--src", str(_stub(tmp_path, designs=edit)), "--section", "designs")
    assert proc.returncode == 1
    assert message in proc.stderr


def test_missing_module_fails_the_import_section(tmp_path):
    bad = _stub(tmp_path / "bad")
    (bad / "flipcert" / "oracles.py").unlink()
    proc = _bench("--src", str(_stub(tmp_path / "good")), "--src", str(bad), "--section", "import")
    assert proc.returncode == 1
    assert "import: No module named 'flipcert.oracles'" in proc.stderr


@pytest.mark.parametrize("flag", ["--runs", "--rounds"])
def test_zero_runs_or_rounds_rejected(tmp_path, flag):
    proc = _bench("--src", str(_stub(tmp_path)), flag, "0")
    assert proc.returncode == 2
    assert "--runs and --rounds must be at least 1" in proc.stderr
