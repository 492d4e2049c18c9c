"""Checks of the benchmark itself: repeatable counters, seed handling, the
tracer's bookkeeping, the host-speed meter's clock, and agreement with
BENCHMARK.json.

    python3 -m pytest perfbench

The traced runs here are shortened (fewer passes or members, and no
bound-5 harness) so the file finishes in well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import tracer as tr
from workloads import WORKLOADS, CertPipeline, ClassSweep, SampledVerify

sys.path.insert(0, str(run.SRC))

SHORT = {"sampled-verify": 2, "class-sweep": 2000, "cert-pipeline": 1}
SKIP = {"harness-perm2"}


def make(name, seed, workdir):
    mods = run.import_flipcert()
    if name == "cert-pipeline":
        return mods, CertPipeline(mods, seed, str(workdir), skip=SKIP)
    return mods, WORKLOADS[name](mods, seed, str(workdir))


def traced_run(name, seed, workdir):
    mods, wl = make(name, seed, workdir)
    t = tr.Tracer(perm4=wl.perm4)
    t.install(mods)
    try:
        tally = wl.run(limit=SHORT[name])
    finally:
        t.restore()
        wl.close()
    assert tally.failed == 0, tally.errors
    return t, tally


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counters_repeat(name, tmp_path):
    first, _ = traced_run(name, 7, tmp_path)
    second, _ = traced_run(name, 7, tmp_path)
    assert first.calls == second.calls
    assert first.counters == second.counters
    assert sum(first.calls.values()) > 0


def test_seed_changes_sampled_inputs(tmp_path):
    mods = run.import_flipcert()
    plans = [SampledVerify(mods, seed, str(tmp_path)).plan(0) for seed in (1, 2)]
    assert [cfg.seed for _, cfg in plans[0]] != [cfg.seed for _, cfg in plans[1]]
    assert sorted(t.label for t, _ in plans[0]) == sorted(
        t.label for t, _ in plans[1])


def test_seed_keeps_class_counts(tmp_path):
    """Other seeds draw other verification and harness seeds, but the
    classes, and so the frozen counts and digests, are the same."""
    mods = run.import_flipcert()
    sweeps = [ClassSweep(mods, seed, str(tmp_path)) for seed in (1, 2)]
    assert sweeps[0].cls == sweeps[1].cls
    assert sweeps[0].configs(0) != sweeps[1].configs(0)
    for wl in sweeps:
        tally = wl.run(limit=2 * ClassSweep.BLOCK)
        assert tally.failed == 0, tally.errors
        assert tally.attempted == 2 * ClassSweep.BLOCK
    steps = []
    for seed in (1, 3):
        wl = CertPipeline(mods, seed, str(tmp_path), skip=SKIP)
        try:
            tally = wl.run(limit=1)
        finally:
            wl.close()
        assert tally.failed == 0, tally.errors
        assert "decoded 6908/6908 members" in wl.stdout["harness-efun2x2"]
        assert "rows 3388\n" in wl.stdout["trivial-table"]
        steps.append([s.argv for s in wl.steps if s.label == "harness-efun2x2"])
    assert steps[0] != steps[1]


def test_tracer_restores_every_binding(tmp_path):
    mods, _ = make("sampled-verify", 1, tmp_path)
    modules = [m for n, m in sys.modules.items() if n.startswith("flipcert")]
    before = [dict(vars(m)) for m in modules]
    evaluate = mods.circuits.evaluate
    enumerate_circuits = mods.pit.enumerate_circuits
    init = mods.fields.PrimeField.__init__
    t = tr.Tracer()
    t.install(mods)
    for mod in (mods.circuits, mods.pit, mods.symtests, mods.obstruction,
                mods.cli):
        assert mod.evaluate.__wrapped__ is evaluate
    assert mods.pit.enumerate_circuits.__wrapped__ is enumerate_circuits
    assert mods.fields.PrimeField.__init__.__wrapped__ is init
    t.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert mods.fields.PrimeField.__init__ is init


def test_span_file_matches_running_totals(tmp_path):
    t, _ = traced_run("sampled-verify", 3, tmp_path)
    path = tmp_path / "spans.bin"
    t.write_spans(path)
    names, spans = tr.read_spans(path)
    assert len(spans) == t.span_count
    by_name = tr.self_times_from_spans(spans)
    assert {names[i]: ns for i, ns in by_name.items()} == dict(t.self_ns)
    assert all(parent < i for i, (_, parent, _, _) in enumerate(spans))


def test_benchmark_json_names_every_metric(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    t, tally = traced_run("sampled-verify", 1, tmp_path)
    layers = run.layer_metrics(t, 0.0, {})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampled-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_chunked_percentile_averages_chunks():
    values = [1.0] * run.CHUNK + [3.0] * run.CHUNK + [5.0] * (run.CHUNK // 2)
    # the short tail joins the chunk before it: chunks of 1s and of 3s and 5s
    assert run.chunked_percentile(values, 0.5) == (1.0 + 3.0) / 2
    assert run.chunked_percentile([2.0, 1.0, 3.0], 0.5) == 2.0


def test_reference_clock_scales_and_skips_probes():
    """Probes at 1-second steps, each 0.1 s long, at half and then at a
    third of the reference speed: the clock runs at the mean speed of the
    WINDOW probes on either side and stands still during a probe."""
    m = hostspeed.Meter()
    ref = hostspeed.PROBE_REF_S
    slow = [2 * ref] * 40 + [3 * ref] * 40
    for i, p in enumerate(slow):
        m.starts.append(float(i))
        m.ends.append(i + 0.1)
        m.probe_s.append(p)
    m._build()
    assert m.ref_s(0.1, 1.0) == pytest.approx(0.9 / 2)
    assert m.ref_s(70.1, 71.0) == pytest.approx(0.9 / 3)
    assert m.ref_s(5.5, 7.5) == pytest.approx(1.8 / 2)  # two probes skipped
    assert m.clock(6.0) == m.clock(6.05) == m.clock(6.1)
    k = 39  # the stretch between the two speeds averages 10 probes of each
    assert m.ref_s(k + 0.1, k + 1.0) == pytest.approx(0.9 * 2 / (2 + 3))
    with pytest.raises(ValueError):
        m.clock(79.5)


def test_meter_probes_while_work_runs():
    with hostspeed.Meter() as m:
        t0 = hostspeed.now()
        while hostspeed.now() - t0 < 5 * hostspeed.INTERVAL_S:
            sum(range(1000))
        t1 = hostspeed.now()
    assert len(m.probe_s) >= 4
    assert 0 < m.ref_s(t0, t1)
    assert m.probing_s() < t1 - t0
    count = len(m.probe_s)
    m._on_alarm(None, None)  # a late signal after the meter stopped
    assert len(m.probe_s) == count
