"""``repro-cc`` — MiniC compiler driver and program runner.

Examples::

    repro-cc prog.mc --run                      # compile and execute
    repro-cc prog.mc -O --run --input data.txt  # optimized, with stdin file
    repro-cc prog.mc -S                         # print assembly
    repro-cc prog.mc --disassemble              # final program listing
    repro-cc prog.mc --hex                      # machine-code dump
    repro-cc prog.mc --run --profile            # + repetition/mix profile
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.asm import assemble
from repro.core import InstructionMixAnalyzer, RepetitionTracker
from repro.core.mix import MIX_CLASSES
from repro.isa.encoding import encode
from repro.lang import MiniCError, compile_to_assembly
from repro.sim import Simulator
from repro.tools import quiet_broken_pipe


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cc", description="MiniC compiler and runner"
    )
    parser.add_argument("source", help="MiniC source file (- for stdin)")
    parser.add_argument("-O", "--optimize", action="store_true", help="enable the optimizer")
    parser.add_argument(
        "--inline", action="store_true", help="inline single-return-expression functions"
    )
    parser.add_argument("-S", "--assembly", action="store_true", help="print generated assembly")
    parser.add_argument(
        "--disassemble", action="store_true", help="print the assembled program listing"
    )
    parser.add_argument("--hex", action="store_true", help="print encoded machine words")
    parser.add_argument("--run", action="store_true", help="execute the program")
    parser.add_argument("--input", default=None, help="file providing program input")
    parser.add_argument(
        "--limit", type=int, default=None, help="max instructions to execute"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="with --run: print repetition and instruction-mix statistics",
    )
    return parser


@quiet_broken_pipe
def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 0:
        parser.error(f"--limit must be >= 0, got {args.limit}")

    if args.source == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.source) as handle:
                source = handle.read()
        except OSError as error:
            print(f"repro-cc: {error}", file=sys.stderr)
            return 1

    try:
        assembly = compile_to_assembly(source, optimize=args.optimize, inline=args.inline)
        program = assemble(assembly, args.source)
    except MiniCError as error:
        print(f"repro-cc: {args.source}:{error}", file=sys.stderr)
        return 1

    if args.assembly:
        print(assembly, end="")
    if args.disassemble:
        print(program.disassemble())
    if args.hex:
        for instr in program.text:
            print(f"{instr.addr:08x}: {encode(instr):08x}  {instr.disassemble()}")

    if not args.run:
        if not (args.assembly or args.disassemble or args.hex):
            print(
                f"compiled {args.source}: {program.static_instruction_count} "
                f"instructions, {len(program.data)} data bytes "
                f"({len(program.functions)} functions)"
            )
        return 0

    input_data = b""
    if args.input:
        try:
            with open(args.input, "rb") as handle:
                input_data = handle.read()
        except OSError as error:
            print(f"repro-cc: {error}", file=sys.stderr)
            return 1

    analyzers = []
    tracker = mix = None
    if args.profile:
        tracker = RepetitionTracker()
        mix = InstructionMixAnalyzer(tracker)
        analyzers = [tracker, mix]
    simulator = Simulator(program, input_data=input_data, analyzers=analyzers)
    result = simulator.run(limit=args.limit)
    sys.stdout.write(result.output)
    print(
        f"\n# {result.analyzed_instructions:,} instructions, "
        f"stop={result.stop_reason}, exit={result.exit_code}",
        file=sys.stderr,
    )
    if args.profile and tracker is not None and mix is not None:
        report = tracker.report()
        print(
            f"# repetition: {report.dynamic_repeated_pct:.1f}% dynamic, "
            f"{report.unique_repeatable_instances:,} unique instances "
            f"(avg repeats {report.average_repeats:.1f})",
            file=sys.stderr,
        )
        mix_report = mix.report()
        shares = "  ".join(
            f"{name}={mix_report.share_pct(name):.1f}%"
            for name in MIX_CLASSES
            if mix_report.classes[name].total
        )
        print(f"# mix: {shares}", file=sys.stderr)
        print(
            f"# branches taken: {mix_report.branch_taken_pct:.1f}%, "
            f"max call depth: {mix_report.max_call_depth}",
            file=sys.stderr,
        )
    return 0 if result.exit_code == 0 else result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
