#!/usr/bin/env python3
"""Time sampled verification of the benchmark's reference targets, per ring.

For each target of the sampled-verify workload (perm(2..4), E(1,2), E(2,2),
E(1,3), and the rejects det(2), det(3) and 2*perm(2)) and each ring (exact,
modular), one verify_claims_* call is made to warm the caches, then --runs
timed calls; the minimum is reported in microseconds.  Every call must give
the target's known verdict, or the script exits 1.  Each child process also
records its peak resident set size (ru_maxrss) after its timed calls; the
largest over a tree's children is printed under the table.

Each --src names a source tree (the directory holding the flipcert
package); the default is this checkout's src.  Every tree is timed in its
own child process, --rounds times, alternating which tree goes first, and
the minimum over all rounds is kept, so two commits can be compared on the
same host at the same time:

    python scripts/bench_sampled.py --out bench.json
    python scripts/bench_sampled.py --src ../parent/src --src src --out bench.json

The JSON holds each tree's commit (git describe --always --dirty), the
Python version, the processor count, the timings and each child's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
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


def time_tree(src: str, runs: int, seed: int) -> dict[str, float]:
    """Minimum microseconds per 'target ring' key, measured in this process
    on the flipcert package under src, and the process's peak RSS in MB
    under the key 'peak_rss_mb'."""
    sys.path.insert(0, src)
    from flipcert import builders, symtests

    out = {}
    for label, kind, dims, build, accept in TARGETS:
        c = build(builders)
        verify = symtests.verify_claims_perm if kind == "perm" else symtests.verify_claims_efun
        for ring in RINGS:
            cfg = symtests.VerifyConfig(seed=seed, ring=ring)
            best = float("inf")
            for _ in range(runs + 1):  # the first call warms the caches
                t0 = time.perf_counter()
                res = verify(c, *dims, cfg)
                best = min(best, time.perf_counter() - t0)
                if res.accept != accept:
                    raise SystemExit(f"{label} ring={ring}: verdict {res.accept}, expected {accept}")
            out[f"{label} {ring}"] = round(best * 1e6, 1)
    # Linux reports ru_maxrss in KiB
    out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)
    return out


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
    parser.add_argument("--runs", type=int, default=9, help="timed calls per target and ring")
    parser.add_argument("--rounds", type=int, default=3, help="child processes per tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the JSON here")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.runs < 1 or args.rounds < 1:
        parser.error("--runs and --rounds must be at least 1")
    if args.child:
        print(json.dumps(time_tree(args.child, args.runs, args.seed)))
        return 0

    srcs = [os.path.abspath(s) for s in args.src or [Path(__file__).resolve().parents[1] / "src"]]
    best: list[dict[str, float]] = [{} for _ in srcs]
    rss: list[list[float]] = [[] for _ in srcs]  # each child's peak RSS, MB
    for r in range(args.rounds):
        order = range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))
        for i in order:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", srcs[i],
                 "--runs", str(args.runs), "--seed", str(args.seed)],
                capture_output=True, text=True,
            )
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return 1
            timings = json.loads(proc.stdout)
            rss[i].append(timings.pop("peak_rss_mb"))
            for key, us in timings.items():
                best[i][key] = min(us, best[i].get(key, us))

    commits = [describe(s) for s in srcs]
    print(f"{'target ring':18}" + "".join(f"{c:>22}" for c in commits))
    for key in best[0]:
        row = "".join(f"{b[key]:>19.1f} us" for b in best)
        ratio = f"   x{best[-1][key] / best[0][key]:.2f}" if len(srcs) > 1 else ""
        print(f"{key:18}{row}{ratio}")
    row = "".join(f"{max(r):>19.2f} MB" for r in rss)
    ratio = f"   x{max(rss[-1]) / max(rss[0]):.3f}" if len(srcs) > 1 else ""
    print(f"{'peak RSS':18}{row}{ratio}")
    if args.out:
        report = {
            "script": "scripts/bench_sampled.py",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "runs": args.runs,
            "rounds": args.rounds,
            "seed": args.seed,
            "unit": "us, minimum over runs x rounds",
            "rss_unit": "MB, ru_maxrss of each child after its timed calls",
            "trees": [{"commit": c, "us": b, "peak_rss_mb": r}
                      for c, b, r in zip(commits, best, rss)],
        }
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
