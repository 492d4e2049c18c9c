"""Outside-in span tracer for the flipcert benchmark.

The program itself is never edited.  Instead, `Tracer.install` replaces the
public functions of each layer with timing wrappers at every binding that
holds them: the defining module and every flipcert module that copied the
name with `from .x import f`.  `Tracer.restore` puts the originals back.

Each span records its name, start, end and parent span.  Spans are kept in
memory in flat arrays and written out once, at the end, by `write_spans`.
Self time is a span's duration minus the time its child spans cover; it is
accumulated per name while the run goes, so no post-pass over the spans is
needed for the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

_now = time.perf_counter_ns

# (module, attribute, span name): the layer boundaries the benchmark traces.
FUNCTION_SPANS = (
    ("circuits", "parse_circuit", "circuits.parse_circuit"),
    ("circuits", "expand_to_polynomial", "circuits.expand_to_polynomial"),
    ("circuits", "poly_remap_vars", "circuits.poly_remap_vars"),
    ("circuits", "poly_scale_vars", "circuits.poly_scale_vars"),
    ("circuits", "poly_scaled", "circuits.poly_scaled"),
    ("circuits", "poly_row_add_subst", "circuits.poly_row_add_subst"),
    ("circuits", "poly_subst_consts", "circuits.poly_subst_consts"),
    ("circuits", "poly_eval", "circuits.poly_eval"),
    ("circuits", "poly_constant_ratio", "circuits.poly_constant_ratio"),
    ("pit", "build_hitting_set_greedy", "pit.build_hitting_set_greedy"),
    ("pit", "verify_hitting_set", "pit.verify_hitting_set"),
    ("symtests", "verify_claims_perm", "symtests.verify_claims_perm"),
    ("symtests", "verify_claims_efun", "symtests.verify_claims_efun"),
    ("symtests", "gen_queries_perm", "symtests.gen_queries_perm"),
    ("symtests", "gen_queries_efun", "symtests.gen_queries_efun"),
    ("symtests", "run_queries", "symtests.run_queries"),
    ("symtests", "_exhaustive_perm", "symtests.verify_exhaustive_perm"),
    ("symtests", "_exhaustive_efun", "symtests.verify_exhaustive_efun"),
    ("fields", "random_prime", "fields.random_prime"),
    ("obstruction", "derive_certificate", "obstruction.derive_certificate"),
    ("obstruction", "parse_certificate", "obstruction.parse_certificate"),
    ("obstruction", "harness_F", "obstruction.harness_F"),
    ("obstruction", "trivial_obstruction_table", "obstruction.trivial_table"),
    ("designs", "build_design_greedy", "designs.build_design_greedy"),
    ("designs", "verify_design", "designs.verify_design"),
    ("oracles", "permanent", "oracles.permanent"),
    ("cli", "main", "cli.main"),
)

EVAL_EXACT = "circuits.evaluate.exact"
EVAL_MODULAR = "circuits.evaluate.modular"
EVAL_PERM4 = "circuits.evaluate.perm4"
ENUMERATE = "pit.enumerate"
PRIME_FIELD_INIT = "fields.PrimeField"
DECODE = "obstruction.decode_counterexample"


class Tracer:
    """Span recorder plus the binding patches that feed it.

    `perm4` is the benchmark's own perm(4) circuit; exact evaluations of it
    are recorded under their own span name so the ROADMAP's per-point row
    can be read off directly."""

    def __init__(self, perm4=None):
        self.perm4 = perm4
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        # one [span id, start ns, child ns] frame per open span
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> list[int]:
        sid = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        frame = [sid, _now(), 0]
        self.span_start.append(frame[1])
        self._stack.append(frame)
        return frame

    def exit(self, name: str, frame: list[int]) -> None:
        end = _now()
        sid, start, child = frame
        self._stack.pop()
        self.span_end[sid] = end
        dur = end - start
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name, frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_evaluate(self, fn, prime_field):
        def traced(c, point, *args, **kwargs):
            ring = args[0] if args else kwargs.get("ring")
            if isinstance(ring, prime_field):
                name = EVAL_MODULAR
            elif c is self.perm4:
                name = EVAL_PERM4
            else:
                name = EVAL_EXACT
            frame = self.enter(name)
            try:
                return fn(c, point, *args, **kwargs)
            finally:
                self.exit(name, frame)

        traced.__wrapped__ = fn
        return traced

    def _wrap_enumerate(self, fn):
        tracer = self

        class TracedMembers:
            """Times every next() of the enumerator, one span each."""

            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                frame = tracer.enter(ENUMERATE)
                try:
                    member = next(self.inner)
                finally:
                    tracer.exit(ENUMERATE, frame)
                tracer.counters["pit.enumerate.members"] += 1
                return member

        def traced(*args, **kwargs):
            return TracedMembers(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def _wrap_decode(self, fn, no_failing_query):
        def traced(cert, c):
            frame = self.enter(DECODE)
            try:
                result = fn(cert, c)
            except no_failing_query:
                self.counters[DECODE + ".queries_tried"] += len(cert.queries)
                raise
            finally:
                self.exit(DECODE, frame)
            self.counters[DECODE + ".queries_tried"] += result.query_index + 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, measure):
        def after(args, kwargs, result):
            self.counters[key] += measure(args, kwargs, result)

        return after

    def _replace_everywhere(self, modules, original, replacement) -> None:
        """Rebind `original` to `replacement` in every flipcert module."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self, mods) -> None:
        """Wrap the traced functions in the flipcert modules held by `mods`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "flipcert" or name.startswith("flipcert.")]
        hooks = {
            "circuits.expand_to_polynomial": self._count(
                "circuits.expand_to_polynomial.terms", lambda a, k, r: len(r)),
            "symtests.gen_queries_perm": self._count(
                "symtests.gen_queries.queries", lambda a, k, r: len(r)),
            "symtests.gen_queries_efun": self._count(
                "symtests.gen_queries.queries", lambda a, k, r: len(r)),
            "symtests.run_queries": self._run_queries_hook,
        }
        for mod_name, attr, span in FUNCTION_SPANS:
            fn = getattr(getattr(mods, mod_name), attr)
            self._replace_everywhere(
                modules, fn, self._wrap(span, fn, hooks.get(span)))
        evaluate = mods.circuits.evaluate
        self._replace_everywhere(
            modules, evaluate,
            self._wrap_evaluate(evaluate, mods.fields.PrimeField))
        enum = mods.pit.enumerate_circuits
        self._replace_everywhere(modules, enum, self._wrap_enumerate(enum))
        decode = mods.obstruction.decode_counterexample
        self._replace_everywhere(
            modules, decode,
            self._wrap_decode(decode, mods.errors.NoFailingQuery))
        # PrimeField is also used in isinstance checks, so the class stays
        # and only its constructor is wrapped.
        field_cls = mods.fields.PrimeField
        self._patches.append((field_cls, "__init__", field_cls.__init__))
        field_cls.__init__ = self._wrap(PRIME_FIELD_INIT, field_cls.__init__)

    def _run_queries_hook(self, args, kwargs, report):
        queries = args[1] if len(args) > 1 else kwargs["queries"]
        self.counters["symtests.run_queries.queries"] += len(queries)
        self.counters["symtests.run_queries.failed"] += sum(
            1 for v in report.verdicts if not v.passed)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path) -> None:
        """Header line (JSON) followed by the four span arrays, raw."""
        header = {
            "names": self.names,
            "count": self.span_count,
            "arrays": [["name", "H"], ["parent", "q"], ["start_ns", "q"],
                       ["end_ns", "q"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], list[tuple[int, int, int, int]]]:
    """Inverse of `Tracer.write_spans`: names and (name, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            cols.append(arr)
    return header["names"], list(zip(*cols))


def self_times_from_spans(spans) -> dict[int, int]:
    """Self ns per name id: duration minus the union of child intervals.

    Children of one span never overlap (the program is single-threaded), so
    the union is their sum; this recomputation is how the tests check the
    tracer's running totals."""
    child = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[int, int] = {}
    for i, (name, _, start, end) in enumerate(spans):
        out[name] = out.get(name, 0) + (end - start) - child[i]
    return out
