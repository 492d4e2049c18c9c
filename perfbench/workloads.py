"""The three benchmark workloads.

Each workload is a closed loop with one caller.  Its inputs are built from
the workload seed when it is constructed (that is the set-up the benchmark
times).  `run` repeats whole passes over the inputs until the next one would
not fit before a deadline, or does a fixed amount of work.  Every
operation's result is checked against an answer that does not come from the
code under test: a verdict known from the mathematics, a brute-force ratio,
or a frozen digest in `frozen.py`.

The program is reached only through module attributes looked up at call
time (`self.m.symtests.verify_claims_perm(...)`), so the tracer's rebinding
of those attributes is seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import frozen

now = time.perf_counter


def derive(*parts) -> int:
    """A 63-bit seed from the workload seed and a label, stable across runs."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Tally:
    """What one `run` measured, as perf_counter readings: start and end of
    every op and pass, and of the run.  Op readings are kept in arrays of
    doubles, 16 bytes an op, so they add little to the peak RSS."""

    op_starts: array = field(default_factory=lambda: array("d"))
    op_ends: array = field(default_factory=lambda: array("d"))
    passes: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.op_starts)

    @property
    def ops(self):
        """(start, end) of every op."""
        return zip(self.op_starts, self.op_ends)

    def op(self, start: float, end: float) -> None:
        self.op_starts.append(start)
        self.op_ends.append(end)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def whole_passes(deadline, limit, tally):
    """Pass numbers for a closed loop of whole passes: `limit` of them, or,
    against a deadline, one and then another only while the last one would
    fit again before the deadline."""
    count = 0
    while (count < limit if limit is not None
           else not tally.passes
           or now() + tally.passes[-1][1] - tally.passes[-1][0] <= deadline):
        yield count
        count += 1


# ---------------------------------------------------------------------------


class Target(NamedTuple):
    label: str
    kind: str  # "perm" | "efun"
    dims: tuple
    circuit: object
    accept: bool  # the verdict the mathematics gives
    units: int  # blocks of RINGS per pass


class SampledVerify:
    """Sampled-mode verification of the reference targets and of circuits
    with a known reject verdict; one verification per op.

    A pass runs each target `units` times under every ring in RINGS (1 in 8
    modular), in a seed-shuffled order with seed-drawn verification seeds.
    The weights place the median op inside the cost cluster of the 3x3-sized
    circuits and the 99th percentile inside modular perm(4), not at the edge
    between two clusters, where host noise moves a percentile by half."""

    name = "sampled-verify"
    RINGS = ("exact",) * 7 + ("modular",)
    TRACE_LIMIT = 40  # passes in a traced run
    PASS_LATENCY = False  # latency percentiles are over ops

    def __init__(self, mods, seed: int, workdir: str):
        self.m = mods
        self.seed = seed
        b = mods.builders
        self.perm4 = b.perm_circuit(4)
        self.targets = (
            Target("perm2", "perm", (2,), b.perm_circuit(2), True, 1),
            Target("perm3", "perm", (3,), b.perm_circuit(3), True, 2),
            Target("perm4", "perm", (4,), self.perm4, True, 2),
            Target("efun1x2", "efun", (1, 2), b.efun_circuit(1, 2), True, 1),
            Target("efun2x2", "efun", (2, 2), b.efun_circuit(2, 2), True, 2),
            Target("efun1x3", "efun", (1, 3), b.efun_circuit(1, 3), True, 1),
            Target("det2", "perm", (2,), b.det_circuit(2), False, 1),
            Target("det3", "perm", (3,), b.det_circuit(3), False, 2),
            Target("2perm2", "perm", (2,),
                   b.scale_circuit(b.perm_circuit(2), 2), False, 1),
        )

    def plan(self, pass_index: int) -> list:
        rng = random.Random(derive(self.name, self.seed, pass_index))
        VerifyConfig = self.m.symtests.VerifyConfig
        ops = [
            (target, VerifyConfig(seed=rng.getrandbits(63), ring=ring))
            for target in self.targets
            for _ in range(target.units)
            for ring in self.RINGS
        ]
        rng.shuffle(ops)
        return ops

    def close(self) -> None:
        pass

    def run(self, deadline=None, limit=None) -> Tally:
        tally = Tally(start=now())
        symtests = self.m.symtests
        for pass_index in whole_passes(deadline, limit, tally):
            plan = self.plan(pass_index)
            pass_start = now()
            for t, cfg in plan:
                t0 = now()
                try:
                    if t.kind == "perm":
                        res = symtests.verify_claims_perm(t.circuit, *t.dims, cfg)
                    else:
                        res = symtests.verify_claims_efun(t.circuit, *t.dims, cfg)
                    got = "accept" if res.accept else "reject"
                except Exception as e:  # a crash is a failed op, not a stop
                    got = f"{type(e).__name__}: {e}"
                tally.op(t0, now())
                want = "accept" if t.accept else "reject"
                if got != want:
                    tally.fail(f"{t.label} ring={cfg.ring} seed={cfg.seed}: "
                               f"{got}, expected {want}")
            tally.passes.append((pass_start, now()))
        tally.end = now()
        return tally


# ---------------------------------------------------------------------------


class ClassSweep:
    """Criterion 2's brute-force soundness sweep over the 77,064-member class
    (n=4, bound=5, alphabet -1,0,1,2); one class member per op, the whole
    class per pass.

    Each op takes the next member from the enumerator, expands it, computes
    its ratio to perm(2), and runs the exhaustive perm(2) check twice
    (normalize off and on).  Both verdicts must match the ratio.  A running
    SHA-256 over members and verdicts is compared with frozen values every
    BLOCK members, and the count with 77,064 when the stream ends.  Each
    pass draws fresh verification seeds."""

    name = "class-sweep"
    BLOCK = 1000
    TRACE_LIMIT = 10 * BLOCK  # members checked in a traced run
    PASS_LATENCY = False  # latency percentiles are over ops
    perm4 = None

    def __init__(self, mods, seed: int, workdir: str):
        self.m = mods
        self.seed = seed
        self.cls = mods.pit.EnumeratedClass(4, 5, (-1, 0, 1, 2))
        self.target = mods.circuits.expand_to_polynomial(
            mods.builders.perm_circuit(2))

    def configs(self, pass_index: int):
        VerifyConfig = self.m.symtests.VerifyConfig
        return (
            VerifyConfig(mode="exhaustive", normalize=False,
                         seed=derive(self.name, self.seed, pass_index, 0)),
            VerifyConfig(mode="exhaustive",
                         seed=derive(self.name, self.seed, pass_index, 1)),
        )

    def run(self, deadline=None, limit=None) -> Tally:
        """Whole passes against the deadline, or, with `limit`, the first
        `limit` members of one pass."""
        tally = Tally(start=now())
        passes = None if limit is None else 1
        for pass_index in whole_passes(deadline, passes, tally):
            pass_start = now()
            self._sweep(pass_index, tally, limit)
            tally.passes.append((pass_start, now()))
        tally.end = now()
        return tally

    def close(self) -> None:
        pass

    def _sweep(self, pass_index: int, tally: Tally, limit) -> None:
        circuits, symtests = self.m.circuits, self.m.symtests
        cfg_scale, cfg_norm = self.configs(pass_index)
        members = self.cls.members()
        digest = hashlib.sha256()
        count = 0
        while limit is None or count < limit:
            t0 = now()
            try:
                c = next(members)
            except StopIteration:
                self._check_end(tally, count, digest)
                return
            try:
                poly = circuits.expand_to_polynomial(c)
                ratio = circuits.poly_constant_ratio(poly, self.target)
                acc_scale = symtests.verify_claims_perm(c, 2, cfg_scale).accept
                acc_norm = symtests.verify_claims_perm(c, 2, cfg_norm).accept
                error = None
            except Exception as e:  # a crash is a failed op, not a stop
                acc_scale = acc_norm = ratio = None
                error = f"{type(e).__name__}: {e}"
            tally.op(t0, now())
            count += 1
            if error is not None:
                tally.fail(f"member {count}: {error}")
            elif (acc_scale != (ratio is not None and ratio != 0)
                  or acc_norm != (ratio == 1)):
                tally.fail(f"member {count}: verdicts {acc_scale},{acc_norm} "
                           f"vs brute-force ratio {ratio}")
            digest.update(circuits.serialize_circuit(c).encode())
            digest.update(b"%d%d\n" % (bool(acc_scale), bool(acc_norm)))
            if count % self.BLOCK == 0:
                self._check_block(tally, count, digest)

    def _check_block(self, tally, count, digest) -> None:
        want = frozen.CLASS_SWEEP_BLOCKS[count // self.BLOCK - 1]
        if digest.hexdigest()[:16] != want:
            tally.fail(f"stream digest after {count} members differs from "
                       f"the frozen {want}")

    def _check_end(self, tally, count, digest) -> None:
        if count != frozen.CLASS_SWEEP_MEMBERS:
            tally.fail(f"class has {count} members, frozen count is "
                       f"{frozen.CLASS_SWEEP_MEMBERS}")
        elif digest.hexdigest()[:16] != frozen.CLASS_SWEEP_FINAL:
            tally.fail("whole-stream digest differs from the frozen one")


# ---------------------------------------------------------------------------

_SECONDS = re.compile(r"\d+\.\d{3}s")


def mask_seconds(text: str) -> str:
    """harness-f prints measured seconds inline; hide them before hashing."""
    return _SECONDS.sub("#.###s", text)


@dataclass(frozen=True)
class Step:
    label: str
    argv: tuple[str, ...]
    rc: int
    digest: str
    contains: tuple[str, ...] = ()


class CertPipeline:
    """The certificate flow through `flipcert.cli.main(argv)`, in process;
    one CLI command per op, a pass being the whole command list.

    Files live in a temporary directory under the benchmark's output
    directory.  Each command's exit code and masked-stdout digest must match
    the frozen values; the class sizes and decode counts are also checked by
    name.  The seed is harness-f's --seed, which draws the designs and truth
    tables F2 samples and the F4 rebuild seed; the report does not depend on
    it, so the frozen digests hold for every seed."""

    name = "cert-pipeline"
    TRACE_LIMIT = 1  # passes in a traced run
    # Latency percentiles are over passes: a run has one or two, and its 32
    # commands are too few for command percentiles.  The short commands
    # also run within a fraction of a second of each other, so their median
    # samples the host's speed at one instant.
    PASS_LATENCY = True
    perm4 = None

    def __init__(self, mods, seed: int, workdir: str, skip=()):
        self.m = mods
        self.dir = tempfile.mkdtemp(prefix="cert-pipeline-", dir=workdir)
        self.stdout: dict[str, str] = {}
        harness_seed = str(derive(self.name, seed) % 10**6)
        d = self.path
        steps = [
            Step("gen-design",
                 ("gen-design", "--l", "6", "--r", "3", "--kcap", "1",
                  "--rows", "4", "--out", d("design.hex")),
                 0, frozen.STDOUT["gen-design"]),
            Step("derive-perm2",
                 ("derive-cert", "--design", d("design.hex"), "--bound", "5",
                  "--out", d("perm2.cert")),
                 0, frozen.STDOUT["derive-perm2"]),
            Step("harness-perm2",
                 ("harness-f", "--cert", d("perm2.cert"), "--ninputs", "4",
                  "--bound", "5", "--alphabet=-1,0,1", "--seed", harness_seed),
                 0, frozen.STDOUT["harness-perm2"],
                 ("decoded 61803/61803 members", "class size 61803)")),
            Step("derive-efun2x2",
                 ("derive-cert", "--design", d("design.hex"), "--target",
                  "efun", "--n", "0", "--m", "2", "--k", "2", "--bound", "4",
                  "--out", d("efun2x2.cert")),
                 0, frozen.STDOUT["derive-efun2x2"]),
            Step("harness-efun2x2",
                 ("harness-f", "--cert", d("efun2x2.cert"), "--ninputs", "8",
                  "--bound", "4", "--alphabet=-1,0,1", "--seed", harness_seed),
                 0, frozen.STDOUT["harness-efun2x2"],
                 ("decoded 6908/6908 members", "class size 6908)")),
        ]
        for i, (cert, text, digest) in enumerate(frozen.DECODE_MEMBERS):
            name = f"member{i}.ac"
            with open(d(name), "w", encoding="utf-8") as fh:
                fh.write(text)
            steps.append(Step(f"decode-{i}",
                              ("decode", "--cert", d(cert), "--circuit", d(name)),
                              0, digest))
        steps += [
            Step("build-hitting-set",
                 ("build-hitting-set", "--ninputs", "2", "--bound", "4",
                  "--alphabet=-1,1", "--out", d("class.hs")),
                 0, frozen.STDOUT["build-hitting-set"]),
            Step("verify-hitting-set",
                 ("verify-hitting-set", "--file", d("class.hs")),
                 0, frozen.STDOUT["verify-hitting-set"]),
            Step("trivial-table",
                 ("trivial-table", "--ninputs", "4", "--bound", "4",
                  "--alphabet=-1,0,1", "--n", "2"),
                 0, frozen.STDOUT["trivial-table"], ("rows 3388\n",)),
        ]
        self.steps = [s for s in steps if s.label not in skip]

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def run(self, deadline=None, limit=None) -> Tally:
        tally = Tally(start=now())
        for _ in whole_passes(deadline, limit, tally):
            pass_start = now()
            for step in self.steps:
                self._op(step, tally)
            tally.passes.append((pass_start, now()))
        tally.end = now()
        return tally

    def _op(self, step: Step, tally: Tally) -> None:
        out, err = io.StringIO(), io.StringIO()
        t0 = now()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.m.cli.main(list(step.argv))
        except SystemExit as e:  # argparse rejected the argv
            rc = e.code
        except Exception as e:  # a crash is a failed op, not a stop
            rc = f"{type(e).__name__}: {e}"
        tally.op(t0, now())
        text = out.getvalue()
        self.stdout[step.label] = text
        digest = hashlib.sha256(mask_seconds(text).encode()).hexdigest()[:16]
        missing = [s for s in step.contains if s not in text]
        if rc != step.rc:
            tally.fail(f"{step.label}: exit {rc}, expected {step.rc}; "
                       f"stderr {err.getvalue().strip()[:200]!r}")
        elif missing:
            tally.fail(f"{step.label}: stdout lacks {missing}")
        elif digest != step.digest:
            tally.fail(f"{step.label}: stdout digest {digest}, frozen {step.digest}")


WORKLOADS = {w.name: w for w in (SampledVerify, ClassSweep, CertPipeline)}
