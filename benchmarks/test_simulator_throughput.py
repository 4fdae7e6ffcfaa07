"""Throughput benchmarks for the simulation substrate itself.

Not a paper artifact — these keep the instrumentation overhead honest:
the bare simulator versus the full six-analyzer stack the experiments
run with.
"""

from __future__ import annotations

from repro.core import (
    FunctionAnalyzer,
    GlobalLoadValueProfiler,
    GlobalSourceAnalyzer,
    LocalAnalyzer,
    RepetitionTracker,
    ReuseBuffer,
)

from _bench_utils import simulate_with


def _full_stack():
    tracker = RepetitionTracker()
    return [
        tracker,
        GlobalSourceAnalyzer(tracker),
        FunctionAnalyzer(),
        LocalAnalyzer(tracker),
        ReuseBuffer(),
        GlobalLoadValueProfiler(),
    ]


def test_bare_simulator_throughput(benchmark):
    benchmark(simulate_with, lambda: [], "m88ksim", 25_000)


def test_repetition_tracker_throughput(benchmark):
    benchmark(simulate_with, lambda: [RepetitionTracker()], "m88ksim", 25_000)


def test_full_analysis_stack_throughput(benchmark):
    benchmark(simulate_with, _full_stack, "m88ksim", 25_000)


def test_compiler_throughput(benchmark):
    """MiniC compilation speed over the largest workload source."""
    from repro.lang import compile_source
    from repro.workloads import get_workload

    source = get_workload("gcc").source()
    program = benchmark(compile_source, source)
    assert program.static_instruction_count > 0
