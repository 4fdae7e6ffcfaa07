"""``repro-run`` command line interface.

Examples::

    repro-run --list
    repro-run table1 table4 --scale 1
    repro-run --all --scale 2 --input secondary
    repro-run --all --markdown report.md

``--markdown FILE`` also writes ``FILE.manifest.json``, the suite's
run manifest (:mod:`repro.obs.manifest`): config, source digest, each
workload's result digest, cache disposition and phase timing.  For
per-layer time, run ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from repro.core.repetition import RepetitionTracker
from repro.core.reuse_buffer import ReuseBuffer
from repro.harness.cache import source_digest
from repro.harness.experiments import EXPERIMENT_ORDER, EXPERIMENTS
from repro.harness.runner import SuiteConfig, run_suite, set_cache_dir
from repro.obs import manifest as obs_manifest
from repro.tools import quiet_broken_pipe
from repro.traces.table import TraceReuseTable
from repro.workloads import WORKLOAD_ORDER, WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description=(
            "Reproduce tables and figures from Sodani & Sohi, 'An Empirical "
            "Analysis of Instruction Repetition' (ASPLOS 1998)."
        ),
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. table1 fig5)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument("--scale", type=int, default=1, help="workload input scale (default 1)")
    parser.add_argument(
        "--input",
        choices=("primary", "secondary"),
        default="primary",
        help="input set (secondary = the paper's sensitivity check)",
    )
    parser.add_argument(
        "--buffer-capacity",
        type=int,
        default=2000,
        help="unique instances buffered per static instruction (paper: 2000)",
    )
    parser.add_argument(
        "--reuse-entries",
        type=int,
        default=8192,
        help="reuse buffer entries (paper: 8192)",
    )
    parser.add_argument(
        "--reuse-assoc",
        type=int,
        default=4,
        help="reuse buffer associativity (paper: 4)",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=1024,
        help="trace reuse table entries (Table 10T; default 1024)",
    )
    parser.add_argument(
        "--trace-ways",
        type=int,
        default=4,
        help="trace reuse table associativity (default 4)",
    )
    parser.add_argument(
        "--trace-max-len",
        type=int,
        default=16,
        help="maximum instructions per memoized trace (default 16)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated subset of workloads (default: all eight)",
    )
    parser.add_argument(
        "--engine",
        choices=("predecoded", "interpreter"),
        default="predecoded",
        help="execution engine (interpreter = slow reference backend)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the suite run (default 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist workload results to this directory "
        "(default: $REPRO_CACHE_DIR if set, else no persistent cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache even if configured",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        default=None,
        help="also write the selected experiments as a markdown report "
        "(plus FILE.manifest.json with the run manifest)",
    )
    parser.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="--no-strict keeps going on workload failures and reports "
        "partial results (exit code 3 when anything failed)",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-workload wall-clock budget in seconds (default: none)",
    )
    return parser


def _validate(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Tuple[SuiteConfig, Optional[List[str]]]:
    """Reject bad option values up front (exit 2, one error line).

    Returns the run's config and workload names (``None``: all eight).
    Sizes are checked by building the config and the tables they size,
    so the rules live in one place each.
    """
    names = None
    if args.workloads:
        names = [name.strip() for name in args.workloads.split(",")]
        if "" in names:
            parser.error(f"--workloads: empty name in {args.workloads!r}")
        unknown = [name for name in names if name not in WORKLOADS]
        if unknown:
            parser.error(
                f"--workloads: unknown workload(s) {', '.join(unknown)} "
                f"(known: {', '.join(WORKLOAD_ORDER)})"
            )
        if len(set(names)) != len(names):
            parser.error(f"--workloads: duplicate names in {args.workloads!r}")
    if args.jobs < 1:
        parser.error(f"--jobs must be a positive integer, got {args.jobs}")
    if args.timeout_s is not None and not args.timeout_s > 0:
        parser.error(f"--timeout-s must be positive, got {args.timeout_s:g}")
    try:
        config = SuiteConfig(
            scale=args.scale,
            buffer_capacity=args.buffer_capacity,
            reuse_entries=args.reuse_entries,
            reuse_associativity=args.reuse_assoc,
            input_kind=args.input,
            engine=args.engine,
            trace_capacity=args.trace_capacity,
            trace_ways=args.trace_ways,
            trace_max_len=args.trace_max_len,
        )
    except ValueError as exc:
        parser.error(f"--scale: {exc}")
    sized = (
        ("--buffer-capacity", RepetitionTracker, (config.buffer_capacity,)),
        (
            "--reuse-entries/--reuse-assoc",
            ReuseBuffer,
            (config.reuse_entries, config.reuse_associativity),
        ),
        (
            "--trace-capacity/--trace-ways/--trace-max-len",
            TraceReuseTable,
            (config.trace_capacity, config.trace_ways, config.trace_max_len),
        ),
    )
    for flags, build, sizes in sized:
        try:
            build(*sizes)
        except ValueError as exc:
            parser.error(f"{flags}: {exc}")
    return config, names


@quiet_broken_pipe
def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config, names = _validate(parser, args)
    if args.list:
        for exp_id in EXPERIMENT_ORDER:
            exp = EXPERIMENTS[exp_id]
            print(f"{exp_id:8s} {exp.paper_ref:9s} {exp.title}")
        return 0

    exp_ids = list(EXPERIMENT_ORDER) if args.all else args.experiments
    if not exp_ids:
        print("no experiments selected; try --list or --all", file=sys.stderr)
        return 2
    unknown = [e for e in exp_ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.no_cache:
        set_cache_dir(None)
    elif args.cache_dir:
        set_cache_dir(args.cache_dir)

    started = time.time()
    results = run_suite(
        config, names, jobs=args.jobs, strict=args.strict, timeout_s=args.timeout_s
    )
    elapsed = time.time() - started
    total = sum(r.run.analyzed_instructions for r in results.values())
    print(f"# suite: {len(results)} workloads, {total:,} instructions, {elapsed:.1f}s\n")
    failures = results.failures
    if failures:
        print(f"== failures ({len(failures)}) ==")
        for name, record in failures.items():
            print(
                f"{name:10s} {record.kind:13s} attempts={record.attempts} "
                f"engine={record.engine} — {record.message}"
            )
        print()
    for exp_id in exp_ids:
        exp = EXPERIMENTS[exp_id]
        print(f"== {exp.paper_ref}: {exp.title} [{exp_id}] ==")
        print(exp.render(results))
        print()

    if args.markdown:
        from repro.analysis.report import build_markdown_report

        with open(args.markdown, "w") as handle:
            handle.write(build_markdown_report(results, exp_ids, failures=failures))
        manifest = obs_manifest.build_suite_manifest(
            config,
            results,
            source_digest(),
            elapsed_seconds=elapsed,
            failures=failures,
        )
        manifest_path = f"{args.markdown}.manifest.json"
        obs_manifest.write_manifest(manifest, manifest_path)
        print(
            f"# markdown report written to {args.markdown} "
            f"(manifest: {manifest_path})"
        )
    # Partial (non-strict) completion: artifacts were written, but the
    # run must not look clean to scripts and CI.
    return 3 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
