"""flipcert benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src, never
from an installed copy.

--trace 0 measures the end-to-end metrics: set-up (a fresh import plus input
construction) is timed SETUP_REPEATS times before the measured loop and as
many times after it, then operations run in whole passes until S seconds
have passed.  Every time is given in reference seconds (see hostspeed.py):
a fixed probe, run from a timer signal ten times a second, tracks the
shared host's speed, which drifts by a factor of up to two, and measured
seconds are converted to seconds at the probe's reference speed.  The
measured seconds are printed too and kept in the result file.

--trace 1 gives the per-layer metrics: the workload's fixed traced work
(TRACE_LIMIT passes or blocks) runs once untraced and once with the tracer
installed; the difference, in reference seconds, is the tracing overhead.
The spans go to perfbench/_out/spans-NAME.bin.

Human-readable lines come first, including ops_failed_frac and the machine
description; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  A failed operation makes the exit
code 1.  Every run also writes perfbench/_out/result-NAME-seedN-traceT.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import tracer as tr
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
MODULES = ("builders", "circuits", "cli", "designs", "errors", "fields",
           "matrices", "obstruction", "oracles", "pit", "symtests")
SETUP_REPEATS = 5
# Latency percentiles are taken per chunk of consecutive ops and averaged, so
# that a change of the host's speed part-way through a run moves them in
# proportion to the time it lasted, not all at once when it passes half.
CHUNK = 1000

# name -> unit; the order is the print order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_flipcert():
    """Import flipcert from ./src afresh and return its modules."""
    for name in [n for n in sys.modules
                 if n == "flipcert" or n.startswith("flipcert.")]:
        del sys.modules[name]
    pkg = importlib.import_module("flipcert")
    if Path(pkg.__file__).resolve().parent != SRC / "flipcert":
        raise ImportError(f"flipcert imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(
        **{name: importlib.import_module("flipcert." + name) for name in MODULES})


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def chunked_percentile(values, q: float) -> float:
    """Mean over chunks of CHUNK consecutive values of each chunk's
    percentile; a short tail joins the chunk before it."""
    starts = list(range(0, len(values), CHUNK))
    if len(starts) > 1 and len(values) - starts[-1] < CHUNK:
        starts.pop()
    bounds = starts[1:] + [len(values)]
    return statistics.fmean(
        percentile(values[a:b], q) for a, b in zip(starts, bounds))


def machine() -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "flipcert").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    uname = os.uname()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{uname.sysname}-{uname.release}-{uname.machine}",
        "git_commit": git_commit(),
        "src_sha256": src_digest.hexdigest()[:16],
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(tally, pass_latency: bool, seconds) -> dict:
    """The timing metrics but setup_s, with every (start, end) pair turned
    into seconds by `seconds`.  Latency percentiles are over passes if
    `pass_latency`, else over ops."""
    passes = [seconds(a, b) for a, b in tally.passes]
    latencies = passes if pass_latency else [seconds(a, b) for a, b in tally.ops]
    return {
        "wall_s": statistics.fmean(passes),
        "ops_per_s": tally.attempted / seconds(tally.start, tally.end),
        "op_p50_ms": 1e3 * chunked_percentile(latencies, 0.50),
        "op_p99_ms": 1e3 * chunked_percentile(latencies, 0.99),
    }


def measured_s(start: float, end: float) -> float:
    return end - start


# -- per-layer metrics ------------------------------------------------------

EVALS = (tr.EVAL_EXACT, tr.EVAL_MODULAR, tr.EVAL_PERM4)
TRANSFORMS = tuple(
    f"circuits.{f}" for f in (
        "poly_remap_vars", "poly_scale_vars", "poly_scaled",
        "poly_row_add_subst", "poly_subst_consts", "poly_eval",
        "poly_constant_ratio"))
GEN_QUERIES = ("symtests.gen_queries_perm", "symtests.gen_queries_efun")
VERIFY = ("symtests.verify_claims_perm", "symtests.verify_claims_efun")
EXHAUSTIVE = ("symtests.verify_exhaustive_perm", "symtests.verify_exhaustive_efun")
HITTING = ("pit.build_hitting_set_greedy", "pit.verify_hitting_set")
_F_SECONDS = re.compile(r"^(F1a|F1b|F2)\s+\S+\s+([0-9.]+)s", re.M)


def layer_metrics(t: tr.Tracer, overhead_s: float, reports: dict) -> dict:
    """Every per-layer metric as (value, unit), from the traced pass.

    `reports` is the untraced pass's stdout per cert-pipeline step; the F
    seconds are read from its perm(2) bound-5 harness report."""

    def calls(*names):
        return sum(t.calls[n] for n in names)

    def self_s(*names):
        return sum(t.self_ns[n] for n in names) / 1e9

    def us_per_call(*names):
        n = calls(*names)
        return 1e6 * self_s(*names) / n if n else 0.0

    f_seconds = dict(_F_SECONDS.findall(reports.get("harness-perm2", "")))
    k = t.counters
    rows = [
        ("circuits.evaluate.calls", "count", calls(*EVALS)),
        ("circuits.evaluate.self_s", "s", self_s(*EVALS)),
        ("circuits.evaluate.exact.us_per_call", "us",
         us_per_call(tr.EVAL_EXACT, tr.EVAL_PERM4)),
        ("circuits.evaluate.modular.us_per_call", "us", us_per_call(tr.EVAL_MODULAR)),
        ("circuits.evaluate.perm4.us_per_call", "us", us_per_call(tr.EVAL_PERM4)),
        ("circuits.expand_to_polynomial.calls", "count",
         calls("circuits.expand_to_polynomial")),
        ("circuits.expand_to_polynomial.self_s", "s",
         self_s("circuits.expand_to_polynomial")),
        ("circuits.expand_to_polynomial.terms", "count",
         k["circuits.expand_to_polynomial.terms"]),
        ("circuits.poly_transforms.calls", "count", calls(*TRANSFORMS)),
        ("circuits.poly_transforms.self_s", "s", self_s(*TRANSFORMS)),
        ("circuits.parse_circuit.calls", "count", calls("circuits.parse_circuit")),
        ("circuits.parse_circuit.self_s", "s", self_s("circuits.parse_circuit")),
        ("pit.enumerate.members", "count", k["pit.enumerate.members"]),
        ("pit.enumerate.self_s", "s", self_s(tr.ENUMERATE)),
        ("pit.enumerate.us_per_member", "us",
         1e6 * self_s(tr.ENUMERATE) / k["pit.enumerate.members"]
         if k["pit.enumerate.members"] else 0.0),
        ("pit.hitting_set.self_s", "s", self_s(*HITTING)),
        ("symtests.verify_claims.calls", "count", calls(*VERIFY)),
        ("symtests.verify_claims.self_s", "s", self_s(*VERIFY)),
        ("symtests.gen_queries.calls", "count", calls(*GEN_QUERIES)),
        ("symtests.gen_queries.queries", "count", k["symtests.gen_queries.queries"]),
        ("symtests.gen_queries.self_s", "s", self_s(*GEN_QUERIES)),
        ("symtests.run_queries.calls", "count", calls("symtests.run_queries")),
        ("symtests.run_queries.queries", "count", k["symtests.run_queries.queries"]),
        ("symtests.run_queries.failed", "count", k["symtests.run_queries.failed"]),
        ("symtests.run_queries.self_s", "s", self_s("symtests.run_queries")),
        ("symtests.verify_exhaustive.calls", "count", calls(*EXHAUSTIVE)),
        ("symtests.verify_exhaustive.self_s", "s", self_s(*EXHAUSTIVE)),
        ("fields.PrimeField.constructions", "count", calls(tr.PRIME_FIELD_INIT)),
        ("fields.PrimeField.self_s", "s", self_s(tr.PRIME_FIELD_INIT)),
        ("fields.random_prime.calls", "count", calls("fields.random_prime")),
        ("fields.random_prime.self_s", "s", self_s("fields.random_prime")),
        ("obstruction.derive_certificate.calls", "count",
         calls("obstruction.derive_certificate")),
        ("obstruction.derive_certificate.self_s", "s",
         self_s("obstruction.derive_certificate")),
        ("obstruction.parse_certificate.self_s", "s",
         self_s("obstruction.parse_certificate")),
        ("obstruction.decode_counterexample.calls", "count", calls(tr.DECODE)),
        ("obstruction.decode_counterexample.self_s", "s", self_s(tr.DECODE)),
        ("obstruction.decode_counterexample.queries_tried", "count",
         k[tr.DECODE + ".queries_tried"]),
        ("obstruction.harness_F.self_s", "s", self_s("obstruction.harness_F")),
        ("obstruction.trivial_table.self_s", "s", self_s("obstruction.trivial_table")),
        ("obstruction.F1a.s", "s", float(f_seconds.get("F1a", 0.0))),
        ("obstruction.F1b.s", "s", float(f_seconds.get("F1b", 0.0))),
        ("obstruction.F2.s", "s", float(f_seconds.get("F2", 0.0))),
        ("designs.build_design_greedy.calls", "count",
         calls("designs.build_design_greedy")),
        ("designs.build_design_greedy.self_s", "s",
         self_s("designs.build_design_greedy")),
        ("designs.verify_design.self_s", "s", self_s("designs.verify_design")),
        ("oracles.permanent.calls", "count", calls("oracles.permanent")),
        ("oracles.permanent.self_s", "s", self_s("oracles.permanent")),
        ("cli.main.self_s", "s", self_s("cli.main")),
        ("trace.overhead_s", "s", overhead_s),
        ("trace.spans", "count", t.span_count),
    ]
    return {name: (value, unit) for name, unit, value in rows}


# -- measurement ------------------------------------------------------------


def setup(workload_cls, seed: int, repeats: int):
    """`repeats` fresh imports plus input constructions; returns their
    (start, end) readings, the last modules and the last workload."""
    spans = []
    mods = wl = None
    for _ in range(repeats):
        if wl is not None:
            wl.close()
        t0 = time.perf_counter()
        mods = import_flipcert()
        wl = workload_cls(mods, seed, str(OUT))
        spans.append((t0, time.perf_counter()))
    return spans, mods, wl


def timed(workload_cls, seed: int, seconds: float):
    """Set-ups, the measured loop and set-ups again, all under one meter;
    returns the end-to-end metrics and the measured seconds they came from."""
    with hostspeed.Meter() as meter:
        setups, _, wl = setup(workload_cls, seed, SETUP_REPEATS)
        try:
            tally = wl.run(deadline=time.perf_counter() + seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            wl.close()
        # timed again after the loop, so the median spans the run
        after, _, wl = setup(workload_cls, seed, SETUP_REPEATS)
        wl.close()
    setups += after
    results = []
    for seconds_of in (meter.ref_s, measured_s):
        values = end_to_end(tally, wl.PASS_LATENCY, seconds_of)
        values["setup_s"] = statistics.median(seconds_of(a, b) for a, b in setups)
        values["peak_rss_mb"] = peak_rss_mb
        results.append(values)
    host = {
        "probe_ref_s": hostspeed.PROBE_REF_S,
        "probes": len(meter.probe_s),
        "probe_s_quartiles": meter.quartiles_s(),
        "probing_s": meter.probing_s(),
    }
    return tally, results[0], results[1], host


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload_cls = WORKLOADS[name]
    if not trace:
        tally, values, measured, host = timed(workload_cls, seed, seconds)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        extra = {"measured": {k: measured[k] for k in END_TO_END},
                 "host_speed": host}
    else:
        _, mods, wl = setup(workload_cls, seed, 1)
        try:
            with hostspeed.Meter() as meter:
                untraced = wl.run(limit=wl.TRACE_LIMIT)
                reports = dict(getattr(wl, "stdout", {}))
                t = tr.Tracer(perm4=getattr(wl, "perm4", None))
                t.install(mods)
                try:
                    tally = wl.run(limit=wl.TRACE_LIMIT)
                finally:
                    t.restore()
        finally:
            wl.close()
        overhead_s = (meter.ref_s(tally.start, tally.end)
                      - meter.ref_s(untraced.start, untraced.end))
        metrics = layer_metrics(t, overhead_s, reports)
        t.write_spans(OUT / f"spans-{name}.bin")
        tally.failed += untraced.failed
        tally.errors = untraced.errors + tally.errors
        tally.op_starts.extend(untraced.op_starts)
        tally.op_ends.extend(untraced.op_ends)
        extra = {"counters": dict(sorted(t.counters.items())),
                 "calls": dict(sorted(t.calls.items()))}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "ops_failed_frac": tally.failed / max(1, tally.attempted),
        "errors": tally.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flipcert" / "__init__.py").is_file():
        print(f"error: no flipcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    measured = result.get("measured", {})
    for key, m in result["metrics"].items():
        line = f"  {key:52s} {m['value']:.6g} {m['unit']}"
        if measured.get(key, m["value"]) != m["value"]:
            line += f"  (measured {measured[key]:.6g})"
        print(line)
    if "host_speed" in result:
        q = result["host_speed"]["probe_s_quartiles"]
        print(f"  host probe quartiles {', '.join(f'{1e3 * v:.3f}' for v in q)}"
              f" ms (reference {1e3 * hostspeed.PROBE_REF_S:.3f} ms)")
    print(f"  {'ops_failed_frac':52s} {result['ops_failed_frac']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for err in result["errors"]:
        print(f"  FAILED {err}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
