"""Hardware design-space sweep for the reuse buffer (Section 7).

The paper evaluates one reuse-buffer configuration (8K entries, 4-way)
and observes that "there is still room for improvement".  This example
sweeps buffer geometry over a chosen workload and reports how much of the
total repetition each configuration captures — the experiment a hardware
designer would run next.  A second sweep does the same for the
trace-level reuse table (Table 10T), varying capacity, associativity,
and the maximum trace length.

Run:  python examples/reuse_buffer_sweep.py [workload]   (default: li)
"""

import sys

from repro.core import RepetitionTracker, ReuseBuffer
from repro.sim import Simulator
from repro.traces import TraceReuseAnalyzer
from repro.workloads import WORKLOAD_ORDER, get_workload

GEOMETRIES = [
    (512, 1),
    (512, 4),
    (2048, 4),
    (8192, 4),   # the paper's configuration
    (8192, 16),
    (32768, 4),
]


#: (capacity, ways, max_trace_len) points for the trace-table sweep.
TRACE_GEOMETRIES = [
    (256, 4, 16),
    (1024, 4, 8),
    (1024, 4, 16),   # the Table 10T default
    (1024, 8, 16),
    (4096, 4, 16),
    (1024, 4, 64),
]


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "li"
    if name not in WORKLOAD_ORDER:
        print(f"unknown workload {name!r}; choose from: {', '.join(WORKLOAD_ORDER)}")
        raise SystemExit(2)
    workload = get_workload(name)

    # One simulation feeds every configuration: each buffer and trace
    # table is an independent analyzer over the same instruction stream.
    tracker = RepetitionTracker()
    buffers = [ReuseBuffer(entries, ways) for entries, ways in GEOMETRIES]
    tables = [TraceReuseAnalyzer(*geometry) for geometry in TRACE_GEOMETRIES]
    Simulator(
        workload.program(),
        input_data=workload.primary_input(1),
        analyzers=[tracker, *buffers, *tables],
    ).run()

    print(f"reuse-buffer geometry sweep over '{name}':\n")
    print(f"{'geometry':>12}  {'% of all insns':>14}  {'% of repetition':>15}  {'invalidations':>13}")
    for (entries, associativity), buffer in zip(GEOMETRIES, buffers):
        report = buffer.report()
        captured = report.repeated_share_pct(tracker.dynamic_repeated)
        label = f"{entries}x{associativity}"
        marker = "  <- paper" if (entries, associativity) == (8192, 4) else ""
        print(
            f"{label:>12}  {report.hit_pct:>13.1f}%  {captured:>14.1f}%  "
            f"{report.invalidations:>13,}{marker}"
        )

    print(f"\ntrace-table geometry sweep over '{name}' (Table 10T):\n")
    print(f"{'geometry':>14}  {'coverage %':>10}  {'hit rate %':>10}  {'mean length':>11}")
    for (capacity, ways, max_len), table in zip(TRACE_GEOMETRIES, tables):
        report = table.report()
        label = f"{capacity}x{ways}/L{max_len}"
        marker = "  <- default" if (capacity, ways, max_len) == (1024, 4, 16) else ""
        print(
            f"{label:>14}  {report.coverage_pct:>9.1f}%  {report.hit_rate_pct:>9.1f}%  "
            f"{report.mean_hit_length:>11.2f}{marker}"
        )

if __name__ == "__main__":
    main()
