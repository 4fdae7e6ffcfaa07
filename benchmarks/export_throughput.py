"""Convert a pytest-benchmark JSON into ``BENCH_simulator.json``.

Usage::

    python benchmarks/export_throughput.py bench.json BENCH_simulator.json

Emits instructions/second for each simulator-throughput benchmark (the
simulation benchmarks all retire 25,000 m88ksim instructions per round,
matching ``test_simulator_throughput.py``), so CI runs leave a perf
trajectory future PRs can compare against.
"""

from __future__ import annotations

import json
import sys

#: Dynamic instructions per round in test_simulator_throughput.py.
INSTRUCTIONS_PER_ROUND = 25_000

_SIMULATOR_BENCHMARKS = (
    "test_bare_simulator_throughput",
    "test_repetition_tracker_throughput",
    "test_full_analysis_stack_throughput",
)


def export(source_path: str, dest_path: str) -> dict:
    with open(source_path) as handle:
        data = json.load(handle)

    out = {"instructions_per_round": INSTRUCTIONS_PER_ROUND, "benchmarks": {}}
    for bench in data.get("benchmarks", ()):
        name = bench["name"]
        mean = bench["stats"]["mean"]
        entry = {"mean_seconds": mean}
        if name in _SIMULATOR_BENCHMARKS:
            entry["instructions_per_second"] = round(INSTRUCTIONS_PER_ROUND / mean)
        out["benchmarks"][name] = entry

    with open(dest_path, "w") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    out = export(argv[1], argv[2])
    for name, entry in sorted(out["benchmarks"].items()):
        ips = entry.get("instructions_per_second")
        suffix = f"  {ips:,} insns/s" if ips else ""
        print(f"{name}: {entry['mean_seconds']*1e3:.2f} ms{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
