"""Traced layer ladder: per-layer self times and exact result counts.

Run with ``PYTHONPATH=<checkout>/src`` from the checkout root::

    python3 perfbench/ladder.py --input primary \\
        --expected perfbench/expected/primary/suite.txt \\
        --cache-dir DIR --spans-out FILE

The 8 programs run at scale 1 on a ladder of rungs: the bare engine,
a no-op ``on_step`` analyzer (step-record dispatch), each of the 7
analyzers on its own, and all 7 stacked as the suite runner attaches
them.  A layer's self time is its rung's ``Simulator.run`` time minus
the rung it builds on.  Spans come only from this file, around calls
into each layer's public functions; they stay in memory and are written
to ``--spans-out`` when the run ends.

Prints one JSON line: ``{"metrics": {...}, "attempted": N,
"failed": K, "failures": [...]}``.  Every check (identical instruction
counts and output across rungs, each analyzer's report alone equal to
its report in the stack, rendered tables equal to the recorded
expected output, cache round trip) counts as one attempt.
``bench.trace_overhead_frac`` prices the spans: their count times the
measured cost of one empty span, against the run's time without them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

#: Analyzers that read the repetition tracker's per-step flag; their
#: rung carries the tracker, so the tracker rung is their base.
NEEDS_TRACKER = ("core.global_analysis", "core.local_analysis")
LAYERS = (
    "core.repetition",
    "core.global_analysis",
    "core.function_analysis",
    "core.local_analysis",
    "core.reuse_buffer",
    "core.value_profile",
    "traces",
)
RUNGS = ("bare", "dispatch") + LAYERS + ("stack",)
#: Empty spans timed to price one span's bookkeeping.
SPAN_PROBES = 20000


class Tracer:
    """In-memory span recorder.

    A span records its name, start, end, parent span and request id;
    spans of one request share the id.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._requests = 0

    def new_request(self) -> int:
        self._requests += 1
        return self._requests

    @contextmanager
    def span(self, name: str, request: int, **attrs) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "request": request,
            "parent": self._open[-1] if self._open else None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def total(self, name: str, **attrs) -> float:
        """Summed duration of the spans named ``name`` matching ``attrs``."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name
            and all(span.get(key) == value for key, value in attrs.items())
        )

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", choices=("primary", "secondary"), required=True)
    parser.add_argument("--expected", required=True, help="recorded repro-run --all output")
    parser.add_argument("--cache-dir", required=True, help="empty directory for the cache rung")
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    run_started = perf_counter()
    tracer = Tracer()
    with tracer.span("harness.cli.import", tracer.new_request()):
        import repro.harness.cli  # noqa: F401

    from repro.asm import assemble
    from repro.core import (
        FunctionAnalyzer,
        GlobalLoadValueProfiler,
        GlobalSourceAnalyzer,
        LocalAnalyzer,
        RepetitionTracker,
        ReuseBuffer,
    )
    from repro.harness.cache import ResultCache, source_digest
    from repro.harness.experiments import EXPERIMENT_ORDER, EXPERIMENTS
    from repro.harness.runner import SuiteConfig, WorkloadResult
    from repro.lang import compile_to_assembly
    from repro.sim import Analyzer, Simulator
    from repro.traces.analyzer import TraceReuseAnalyzer
    from repro.workloads import WORKLOAD_ORDER, get_workload

    class NoopStep(Analyzer):
        """Overrides ``on_step`` so the simulator builds and delivers every
        step record, and does nothing with it."""

        def on_step(self, record) -> None:
            pass

    config = SuiteConfig(input_kind=args.input)

    def rung_analyzers(rung: str) -> list:
        if rung == "bare":
            return []
        if rung == "dispatch":
            return [("sim.dispatch", NoopStep())]
        # The suite runner's stack, in its order (tracker first).
        tracker = RepetitionTracker(config.buffer_capacity)
        stack = [
            ("core.repetition", tracker),
            ("core.global_analysis", GlobalSourceAnalyzer(tracker)),
            ("core.function_analysis", FunctionAnalyzer()),
            ("core.local_analysis", LocalAnalyzer(tracker)),
            ("core.reuse_buffer", ReuseBuffer(config.reuse_entries, config.reuse_associativity)),
            ("core.value_profile", GlobalLoadValueProfiler()),
            (
                "traces",
                TraceReuseAnalyzer(config.trace_capacity, config.trace_ways, config.trace_max_len),
            ),
        ]
        if rung == "stack":
            return stack
        keep = {rung, "core.repetition"} if rung in NEEDS_TRACKER else {rung}
        return [(layer, analyzer) for layer, analyzer in stack if layer in keep]

    def simulate(program, input_data: bytes, analyzers: list, request: int, rung: str, name: str):
        simulator = Simulator(
            program, input_data=input_data, analyzers=analyzers, engine=config.engine
        )
        with tracer.span("sim.run", request, rung=rung, program=name):
            return simulator.run(limit=config.limit_instructions, skip=config.skip_instructions)

    checks = Checks()
    results: Dict[str, WorkloadResult] = {}
    static_insns = 0
    insns = 0
    for name in WORKLOAD_ORDER:
        workload = get_workload(name)
        request = tracer.new_request()
        with tracer.span("lang.compile_to_assembly", request, program=name):
            assembly = compile_to_assembly(workload.source())
        with tracer.span("asm.assemble", request, program=name):
            program = assemble(assembly, workload.source_file)
        static_insns += program.static_instruction_count
        input_data = config.input_for(workload)

        reports: Dict[str, Dict[str, object]] = {}
        for rung in RUNGS:
            analyzers = rung_analyzers(rung)
            request = tracer.new_request()
            with tracer.span(f"ladder.{rung}", request, program=name):
                run = simulate(
                    program, input_data, [a for _, a in analyzers], request, rung, name
                )
                reports[rung] = {}
                for layer, analyzer in analyzers:
                    if layer in LAYERS:
                        with tracer.span(f"{layer}.report", request, rung=rung, program=name):
                            reports[rung][layer] = analyzer.report()
            if rung == "bare":
                bare = run
                insns += bare.analyzed_instructions
            else:
                checks.expect(
                    (run.analyzed_instructions, run.exit_code, run.output)
                    == (bare.analyzed_instructions, bare.exit_code, bare.output),
                    f"{name}: rung {rung} ran differently from the bare engine",
                )
        stack = reports["stack"]
        for layer in LAYERS:
            checks.expect(
                reports[layer][layer] == stack[layer],
                f"{name}: {layer} report alone differs from its report in the stack",
            )
        results[name] = WorkloadResult(
            workload=workload,
            run=run,
            repetition=stack["core.repetition"],
            global_analysis=stack["core.global_analysis"],
            function_analysis=stack["core.function_analysis"],
            local_analysis=stack["core.local_analysis"],
            reuse=stack["core.reuse_buffer"],
            value_profile=stack["core.value_profile"],
            trace_reuse=stack["traces"],
            static_program_instructions=program.static_instruction_count,
        )

    def render(source: str) -> str:
        request = tracer.new_request()
        parts = []
        for exp_id in EXPERIMENT_ORDER:
            exp = EXPERIMENTS[exp_id]
            with tracer.span("harness.experiments.render", request, source=source, exp=exp_id):
                text = exp.render(results)
            parts.append(f"== {exp.paper_ref}: {exp.title} [{exp_id}] ==\n{text}\n\n")
        header = f"# suite: {len(results)} workloads, {insns:,} instructions, <T>s\n\n"
        return header + "".join(parts)

    rendered = render("computed")
    try:
        with open(args.expected) as handle:
            expected: Optional[str] = handle.read()
    except OSError:
        expected = None
    checks.expect(rendered == expected, f"rendered tables differ from {args.expected}")

    request = tracer.new_request()
    digest_times = []
    for _ in range(3):
        source_digest.cache_clear()
        with tracer.span("harness.cache.source_digest", request) as span:
            source_digest()
        digest_times.append(span["end"] - span["start"])
    cache = ResultCache(args.cache_dir)
    entry_bytes = 0
    for name, result in results.items():
        with tracer.span("harness.cache.store", request, program=name):
            cache.store(name, config, result)
        entry_bytes += cache.path_for(name, config).stat().st_size
    loaded = {}
    for name in results:
        with tracer.span("harness.cache.load", request, program=name):
            loaded[name] = cache.load(name, config)
    checks.expect(
        all(isinstance(entry, WorkloadResult) for entry in loaded.values()),
        "cache load missed an entry it had just stored",
    )
    results = loaded
    checks.expect(render("loaded") == rendered, "tables rendered from cache loads differ")

    # Tracing overhead.  Spans wrap whole calls, so what tracing adds is
    # each span's bookkeeping; an A/B of traced and untraced rungs cannot
    # resolve that below their run-to-run noise (about 5%).
    probe = Tracer()
    started = perf_counter()
    for _ in range(SPAN_PROBES):
        with probe.span("probe", 0):
            pass
    tracing_s = len(tracer.spans) * (perf_counter() - started) / SPAN_PROBES
    untraced_s = started - run_started - tracing_s

    run_s = {rung: tracer.total("sim.run", rung=rung) for rung in RUNGS}
    bare_s = run_s["bare"]
    self_s = {
        layer: run_s[layer] - run_s["core.repetition" if layer in NEEDS_TRACKER else "dispatch"]
        for layer in LAYERS
    }
    dispatch_s = run_s["dispatch"] - bare_s

    def ratio(numerator, denominator) -> float:
        """An exact count ratio over the 8 programs' stack reports."""
        return sum(map(numerator, results.values())) / sum(map(denominator, results.values()))

    metrics = {
        "lang.compile_s": tracer.total("lang.compile_to_assembly"),
        "asm.assemble_s": tracer.total("asm.assemble"),
        "asm.static_insns": static_insns,
        "sim.bare_s": bare_s,
        "sim.insns": insns,
        "sim.bare_insns_per_s": insns / bare_s,
        "sim.dispatch_s": dispatch_s,
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        "core.report_s": sum(
            tracer.total(f"{layer}.report", rung="stack") for layer in LAYERS[:-1]
        ),
        "traces.report_s": tracer.total("traces.report", rung="stack"),
        "core.repetition.repeated_frac": ratio(
            lambda r: r.repetition.dynamic_repeated, lambda r: r.repetition.dynamic_total
        ),
        # Every step is one reuse-buffer lookup.
        "core.reuse_buffer.hit_frac": ratio(
            lambda r: r.reuse.reuse_hits, lambda r: r.reuse.dynamic_total
        ),
        "traces.coverage_frac": ratio(
            lambda r: r.trace_reuse.covered_instructions, lambda r: r.trace_reuse.dynamic_total
        ),
        "ladder.stack_s": run_s["stack"],
        "ladder.interaction_s": run_s["stack"] - (dispatch_s + bare_s + sum(self_s.values())),
        "harness.cache.store_s": tracer.total("harness.cache.store"),
        "harness.cache.entry_bytes": entry_bytes,
        "harness.cache.load_s": tracer.total("harness.cache.load"),
        "harness.cache.source_digest_s": statistics.median(digest_times),
        "harness.experiments.render_s": tracer.total(
            "harness.experiments.render", source="computed"
        ),
        "harness.cli.import_s": tracer.total("harness.cli.import"),
        "bench.trace_overhead_frac": tracing_s / untraced_s,
    }
    tracer.write(args.spans_out)
    print(
        json.dumps(
            {
                "metrics": metrics,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "failures": checks.failures,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
