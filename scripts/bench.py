#!/usr/bin/env python3
"""Time flipcert's hot paths per source tree, in named sections.

sampled    microseconds per sampled verify_claims_* call, for each target
           of the sampled-verify workload (perm(2..4), E(1,2), E(2,2),
           E(1,3), and the rejects det(2), det(3) and 2*perm(2)) in each
           ring (exact, modular).  Each pass makes one call per cell, so a
           slow spell of the host spreads over every cell; the first pass
           warms the caches, then --runs passes are timed (default 9).
           Every call draws its own verification seed from --seed, the pass
           and the cell, as the workload draws a fresh seed per op, so no
           cache keyed on a seed can serve a timed call.  A wrong verdict
           fails the section.
enumerate  enumerate_s, seconds to enumerate the 61,803-member F1b class
           (n=4, bound 5, alphabet {-1,0,1}) by draining
           EnumeratedClass.members(), --runs times (default 2); and f1b_s,
           the F1b seconds harness_F reports on that class with the
           certificate cert-pipeline derives (gen-design --l 6 --r 3
           --kcap 1 --rows 4, then derive-cert --bound 5), once.  A wrong
           member count, a failed F-gate or a wrong class size fails the
           section.  F1b's seconds are printed in harness-f's report, so
           whether they stay above 10 s decides the report's padded text.
designs    milliseconds to build (seed 0), verify and decode a design, --runs
           times (default 5), at (m', l, r, k_cap) = (12000, 16, 8, 7) and
           (800, 20, 6, 4), where the overlap rule maps subsets, and
           (60, 24, 8, 4) and (4, 6, 3, 1), where it scans.  A design that
           does not verify, a label whose SHA-256 moved, a wrong decode, or a
           copy whose last row repeats the first not reported as pair
           (0, m' - 1) fails the section.
import     milliseconds to import afresh the eleven flipcert modules that
           perfbench imports in its set-up, --runs times (default 15), after
           one untimed import that loads the standard library:
           import_src_ms compiles every module from source (no bytecode
           written or read, as with PYTHONDONTWRITEBYTECODE=1 and an empty
           bytecode cache), import_pyc_ms loads bytecode from a cache the
           untimed import wrote.  A module that fails to import fails the
           section.

--section picks sections (repeatable; default all).  Each --src names a
source tree (the directory holding the flipcert package); the default is
this checkout's src.  Each section times every tree in its own child
process, --rounds times, alternating which tree goes first, so two commits
can be compared on the same host at the same time.  A table shows each
metric's minimum over all samples and the largest child peak RSS
(ru_maxrss after the timed work), with the last tree's ratio to the first.
A failed section exits 1.

    python scripts/bench.py --out bench.json
    python scripts/bench.py --section sampled --src ../parent/src --src src

The JSON holds the script, Python version, processor count, machine, runs
per section, rounds and seed, and per section and tree the commit (git
describe --always --dirty), every sample and the minimum of each metric,
and each child's peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RINGS = ("exact", "modular")
# label, kind, dims, circuit from the builders module, known verdict
TARGETS = (
    ("perm2", "perm", (2,), lambda b: b.perm_circuit(2), True),
    ("perm3", "perm", (3,), lambda b: b.perm_circuit(3), True),
    ("perm4", "perm", (4,), lambda b: b.perm_circuit(4), True),
    ("efun1x2", "efun", (1, 2), lambda b: b.efun_circuit(1, 2), True),
    ("efun2x2", "efun", (2, 2), lambda b: b.efun_circuit(2, 2), True),
    ("efun1x3", "efun", (1, 3), lambda b: b.efun_circuit(1, 3), True),
    ("det2", "perm", (2,), lambda b: b.det_circuit(2), False),
    ("det3", "perm", (3,), lambda b: b.det_circuit(3), False),
    ("2perm2", "perm", (2,), lambda b: b.scale_circuit(b.perm_circuit(2), 2), False),
)
MEMBERS = 61_803  # the F1b class's size
# the modules perfbench/run.py imports afresh in each set-up
MODULES = ("builders", "circuits", "cli", "designs", "errors", "fields",
           "matrices", "obstruction", "oracles", "pit", "symtests")
# (m', l, r, k_cap): SHA-256 of the label build_design_greedy gives at seed 0
DESIGNS = {
    (12000, 16, 8, 7): "4610182784d0abe258b6afb7aed266e12e15981ad3ff036843633bcc07c586d0",
    (800, 20, 6, 4): "e97dbe372bcb431c4dec435fc682cf2cf44195f7704739b9fa60266bcb13baea",
    (60, 24, 8, 4): "272fee15b8f96ebbf0fc7c66a9e2b2edc720a3e46809dfd0dfbc163b1231d41a",
    (4, 6, 3, 1): "d40d520489d94e589608b890a7f70f491e1a801f18974871c40d686110f9d2f0",
}


def call_seed(*parts) -> int:
    """A 63-bit verification seed, the same in every tree and process."""
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:8], "big") >> 1


def time_sampled(runs: int, seed: int) -> dict[str, list[float]]:
    from flipcert import builders, symtests

    cells = []
    for label, kind, dims, build, accept in TARGETS:
        c = build(builders)
        verify = symtests.verify_claims_perm if kind == "perm" else symtests.verify_claims_efun
        cells += [(label, ring, verify, c, dims, accept) for ring in RINGS]
    samples: dict[str, list[float]] = {f"{label} {ring}": [] for label, ring, *_ in cells}
    for i in range(runs + 1):  # the first pass warms the caches
        for label, ring, verify, c, dims, accept in cells:
            cfg = symtests.VerifyConfig(seed=call_seed(seed, i, label, ring), ring=ring)
            t0 = time.perf_counter()
            res = verify(c, *dims, cfg)
            if i:
                samples[f"{label} {ring}"].append(round((time.perf_counter() - t0) * 1e6, 1))
            if res.accept != accept:
                raise SystemExit(f"{label} ring={ring}: verdict {res.accept}, expected {accept}")
    return samples


def time_enumerate(runs: int, seed: int) -> dict[str, list[float]]:
    from flipcert import cli, obstruction, pit

    cls = pit.EnumeratedClass(4, 5, (-1, 0, 1))
    samples: dict[str, list[float]] = {"enumerate_s": [], "f1b_s": []}
    for _ in range(runs):
        t0 = time.perf_counter()
        count = sum(1 for _ in cls.members())
        samples["enumerate_s"].append(round(time.perf_counter() - t0, 3))
        if count != MEMBERS:
            raise SystemExit(f"enumerated {count} members, expected {MEMBERS}")
    with tempfile.TemporaryDirectory() as tmp:
        design, cert = os.path.join(tmp, "design.hex"), os.path.join(tmp, "perm2.cert")
        argvs = (
            ["gen-design", "--l", "6", "--r", "3", "--kcap", "1", "--rows", "4", "--out", design],
            ["derive-cert", "--design", design, "--bound", "5", "--out", cert],
        )
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            codes = [cli.main(argv) for argv in argvs]
        if codes != [0, 0]:
            raise SystemExit(f"gen-design and derive-cert exited {codes}")
        certificate = obstruction.parse_certificate(Path(cert).read_text())
    rep = obstruction.harness_F(certificate, cls)
    if not rep.all_pass or rep.class_size != MEMBERS:
        raise SystemExit(f"harness_F: all_pass={rep.all_pass}, class size {rep.class_size}")
    [f1b] = [p for p in rep.properties if p.name == "F1b"]
    samples["f1b_s"].append(round(f1b.seconds, 3))
    return samples


def time_designs(runs: int, seed: int) -> dict[str, list[float]]:
    from flipcert import designs

    samples: dict[str, list[float]] = {}
    for fields, digest in DESIGNS.items():
        params, name = designs.DesignParams(*fields), "/".join(map(str, fields))
        for _ in range(runs):
            t0 = time.perf_counter()
            try:
                d = designs.build_design_greedy(params)
            except AssertionError as exc:  # the builder verifies what it builds
                raise SystemExit(f"{fields}: built design gives {exc}") from None
            t1 = time.perf_counter()
            violation = designs.verify_design(d)
            t2 = time.perf_counter()
            label = designs.encode_design(d)
            t3 = time.perf_counter()
            back = designs.decode_design(label)
            t4 = time.perf_counter()
            for metric, seconds in (("build", t1 - t0), ("verify", t2 - t1), ("decode", t4 - t3)):
                samples.setdefault(f"{name} {metric}", []).append(round(seconds * 1e3, 3))
            if violation is not None or back != d:
                raise SystemExit(f"{fields}: built design gives {violation}, "
                                 f"decodes equal {back == d}")
            got = hashlib.sha256(label).hexdigest()
            if got != digest:
                raise SystemExit(f"{fields}: label SHA-256 {got}, expected {digest}")
        repeat = designs.verify_design(designs.Design(params, d.rows[:-1] + d.rows[:1]))
        if repeat is None or repeat.pair != (0, params.m_prime - 1):
            raise SystemExit(f"{fields}: last row repeating the first gives {repeat}")
    return samples


def _import_modules() -> None:
    """Import MODULES afresh, dropping every flipcert module imported before."""
    for name in [n for n in sys.modules if n == "flipcert" or n.startswith("flipcert.")]:
        del sys.modules[name]
    try:
        for name in MODULES:
            importlib.import_module("flipcert." + name)
    except ImportError as exc:
        raise SystemExit(f"import: {exc}") from None


def time_import(runs: int, seed: int) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {"import_src_ms": [], "import_pyc_ms": []}
    with tempfile.TemporaryDirectory() as tmp:
        for metric, from_bytecode in (("import_src_ms", False), ("import_pyc_ms", True)):
            sys.dont_write_bytecode = not from_bytecode
            sys.pycache_prefix = os.path.join(tmp, metric)  # empty until the next line
            _import_modules()  # loads the standard library, and writes bytecode if asked
            for _ in range(runs):
                t0 = time.perf_counter()
                _import_modules()
                samples[metric].append(round((time.perf_counter() - t0) * 1e3, 2))
    return samples


# name: (timer, default runs per child, unit, digits printed)
SECTIONS = {
    "sampled": (time_sampled, 9, "us", 1),
    "enumerate": (time_enumerate, 2, "s", 3),
    "designs": (time_designs, 5, "ms", 3),
    "import": (time_import, 15, "ms", 2),
}


def describe(src: str) -> str:
    try:
        return subprocess.run(
            ["git", "-C", src, "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_row(label: str, values: list[float], unit: str, digits: int, ratio_digits: int) -> None:
    row = "".join(f"{v:>{21 - len(unit)}.{digits}f} {unit}" for v in values)
    ratio = f"   x{values[-1] / values[0]:.{ratio_digits}f}" if len(values) > 1 else ""
    print(f"{label:20}{row}{ratio}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append", default=None,
                        help="source tree to time (repeatable); default this checkout's src")
    parser.add_argument("--runs", type=int, default=None,
                        help="timed repetitions per child; default each section's own")
    parser.add_argument("--rounds", type=int, default=3, help="child processes per tree and section")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the JSON here")
    parser.add_argument("--section", action="append", choices=SECTIONS, default=None,
                        help="section to run (repeatable); default all")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if (args.runs is not None and args.runs < 1) or args.rounds < 1:
        parser.error("--runs and --rounds must be at least 1")
    sections = list(dict.fromkeys(args.section or SECTIONS))
    runs = {name: args.runs or SECTIONS[name][1] for name in sections}
    if args.child:
        sys.path.insert(0, args.child)
        name = sections[0]
        samples = SECTIONS[name][0](runs[name], args.seed)
        # Linux reports ru_maxrss in KiB
        rss = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)
        print(json.dumps({"samples": samples, "peak_rss_mb": rss}))
        return 0

    srcs = [os.path.abspath(s) for s in args.src or [Path(__file__).resolve().parents[1] / "src"]]
    commits = [describe(s) for s in srcs]
    report = {
        "script": "scripts/bench.py",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "runs": runs,
        "rounds": args.rounds,
        "seed": args.seed,
        "sections": {},
    }
    for name in sections:
        _, _, unit, digits = SECTIONS[name]
        trees = [{"commit": c, "samples": {}, "peak_rss_mb": []} for c in commits]
        for r in range(args.rounds):
            for i in range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs))):
                proc = subprocess.run(
                    [sys.executable, __file__, "--child", srcs[i], "--section", name,
                     "--runs", str(runs[name]), "--seed", str(args.seed)],
                    capture_output=True, text=True,
                )
                if proc.returncode:
                    sys.stderr.write(proc.stderr)
                    return 1
                result = json.loads(proc.stdout)
                trees[i]["peak_rss_mb"].append(result["peak_rss_mb"])
                for metric, values in result["samples"].items():
                    trees[i]["samples"].setdefault(metric, []).extend(values)
        for tree in trees:
            tree["min"] = {metric: min(values) for metric, values in tree["samples"].items()}
        report["sections"][name] = {"unit": unit, "trees": trees}

        print(f"{name:20}" + "".join(f"{c:>22}" for c in commits))
        for metric in trees[0]["min"]:
            print_row(metric, [t["min"][metric] for t in trees], unit, digits, 2)
        print_row("peak RSS", [max(t["peak_rss_mb"]) for t in trees], "MB", 2, 3)
        print()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
