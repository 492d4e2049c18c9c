#!/usr/bin/env python3
"""Time the F1b class enumeration and F1b itself, per source tree.

Two numbers per tree:

  enumerate_s  seconds to enumerate the 61,803-member F1b class
               (n=4, bound 5, alphabet {-1,0,1}), draining
               EnumeratedClass.members(); --runs timed passes per child;
  f1b_s        the F1b seconds harness_F reports on that class, with the
               certificate cert-pipeline derives: gen-design --l 6 --r 3
               --kcap 1 --rows 4, then derive-cert --bound 5; one harness
               run per child.

F1b's seconds are printed in harness-f's report, so whether they stay
above 10 s decides the report's padded text.  A wrong member count or a
failed F-gate exits 1.

Each --src names a source tree (the directory holding the flipcert
package); the default is this checkout's src.  Every tree is timed in its
own child process, --rounds times, alternating which tree goes first, so
two commits can be compared on the same host at the same time:

    python scripts/bench_enumerate.py --out bench.json
    python scripts/bench_enumerate.py --src ../parent/src --src src --out bench.json

The JSON holds each tree's commit (git describe --always --dirty), the
Python version, the processor count, every sample and each minimum.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MEMBERS = 61_803  # the F1b class's size
METRICS = ("enumerate_s", "f1b_s")


def time_tree(src: str, runs: int) -> dict[str, list[float]]:
    """Samples of each metric, measured in this process on the flipcert
    package under src."""
    sys.path.insert(0, src)
    from flipcert import cli, obstruction, pit

    cls = pit.EnumeratedClass(4, 5, (-1, 0, 1))
    samples: dict[str, list[float]] = {name: [] for name in METRICS}
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


def describe(src: str) -> str:
    try:
        return subprocess.run(
            ["git", "-C", src, "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append", default=None,
                        help="source tree to time (repeatable); default this checkout's src")
    parser.add_argument("--runs", type=int, default=2, help="timed enumerations per child")
    parser.add_argument("--rounds", type=int, default=3, help="child processes per tree")
    parser.add_argument("--out", default=None, help="write the JSON here")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.runs < 1 or args.rounds < 1:
        parser.error("--runs and --rounds must be at least 1")
    if args.child:
        print(json.dumps(time_tree(args.child, args.runs)))
        return 0

    srcs = [os.path.abspath(s) for s in args.src or [Path(__file__).resolve().parents[1] / "src"]]
    samples: list[dict[str, list[float]]] = [{name: [] for name in METRICS} for _ in srcs]
    for r in range(args.rounds):
        order = range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))
        for i in order:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", srcs[i], "--runs", str(args.runs)],
                capture_output=True, text=True,
            )
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return 1
            for name, values in json.loads(proc.stdout).items():
                samples[i][name] += values

    commits = [describe(s) for s in srcs]
    print(f"{'metric':14}" + "".join(f"{c:>22}" for c in commits))
    for name in METRICS:
        row = "".join(f"{min(s[name]):>20.3f} s" for s in samples)
        ratio = (f"   x{min(samples[-1][name]) / min(samples[0][name]):.2f}"
                 if len(srcs) > 1 else "")
        print(f"{name:14}{row}{ratio}")
    if args.out:
        report = {
            "script": "scripts/bench_enumerate.py",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "runs": args.runs,
            "rounds": args.rounds,
            "unit": "s; samples in run order, min over them",
            "trees": [
                {"commit": c, "min": {name: min(s[name]) for name in METRICS}, "samples": s}
                for c, s in zip(commits, samples)
            ],
        }
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
