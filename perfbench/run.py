"""Benchmark for the instruction-repetition reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite_cold --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it times ``repro-run`` / ``repro-cc`` requests end to
end, from outside, one at a time from one client (closed loop, never
``--jobs``), and checks every output against ``perfbench/expected/``.
With ``--trace 1`` it runs the traced layer ladder (``ladder.py``)
instead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units come from ``BENCHMARK.json``.  The line before it is
the run record (seed, nproc, Python, source digest, git commit, sample
count), so any two runs can be diffed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
WORKLOADS = ("suite_cold", "cc_run")
#: ``cc_run`` input scale (~12.5M simulated instructions per pass).
CC_SCALE = 8
#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A request that runs longer than this is killed and counted as failed.
REQUEST_TIMEOUT_S = 150.0
LADDER_TIMEOUT_S = 170.0
#: Entries a cold ``repro-run --all`` writes: one per program.
SUITE_ENTRIES = 8
_SUITE_HEADER = re.compile(r"^(# suite: \d+ workloads, ([\d,]+) instructions, )[\d.]+s$", re.M)
_CC_COUNT = re.compile(r"^# ([\d,]+) instructions, stop=", re.M)


class BenchError(Exception):
    """The benchmark cannot produce a result (bad checkout, failed set-up)."""


def input_order(seed: int) -> Tuple[str, str]:
    """The two input sets in the order a run sends them: even seeds start
    with the primary set, odd seeds with the secondary (held-out) one."""
    return ("primary", "secondary") if seed % 2 == 0 else ("secondary", "primary")


@dataclass
class Sample:
    """One child process, measured from outside."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def run_child(argv: List[str], env: Dict[str, str], cwd: Path, scratch: Path,
              timeout_s: float = REQUEST_TIMEOUT_S) -> Sample:
    """Run ``argv`` to completion; time it and read its own rusage."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd
        )
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def normalize_suite(stdout: str) -> Tuple[str, int]:
    """Mask the wall-time field of ``repro-run``'s header line.

    Returns the masked text and the instruction count from the header
    (0 when the header is missing).
    """
    match = _SUITE_HEADER.search(stdout)
    if match is None:
        return stdout, 0
    return _SUITE_HEADER.sub(r"\1<T>s", stdout, count=1), int(match.group(2).replace(",", ""))


def cc_transcript(sample: Sample) -> Tuple[str, int]:
    """``repro-cc --run`` stdout plus its stderr (instruction count and
    exit line), and the instruction count."""
    match = _CC_COUNT.search(sample.stderr)
    count = int(match.group(1).replace(",", "")) if match else 0
    return sample.stdout + "\n--- stderr ---\n" + sample.stderr, count


def read_expected(path: Path) -> Optional[str]:
    try:
        return path.read_text()
    except OSError:
        return None


def judge(sample: Sample, actual: str, expected: Optional[str], what: str) -> Optional[str]:
    """The reason a request failed, or ``None``: a non-zero exit, a
    missing expected output and a mismatch are all failures."""
    if sample.exit_code != 0:
        return f"{what}: exit code {sample.exit_code}: {sample.stderr.strip()[-300:]}"
    if expected is None:
        return f"{what}: no expected output recorded"
    if actual != expected:
        return f"{what}: output differs from the expected output"
    return None


@dataclass
class Outcome:
    """One request's measurement and verdict."""

    sample: Sample
    instructions: int
    error: Optional[str] = None


class Bench:
    """Sends requests to the program in one checkout."""

    def __init__(self, root: Path, scratch: Path, expected: Path = EXPECTED) -> None:
        self.root = root
        self.scratch = scratch
        self.expected = expected
        self.state = root / ".bench_build" / "perfbench"
        self.python = sys.executable
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = str(root / "src")
        # Bytecode is cached as an installed package's would be, but
        # outside the source tree.
        env["PYTHONPYCACHEPREFIX"] = str(self.state / "pycache")
        self.env = env

    def child(self, argv: List[str], timeout_s: float = REQUEST_TIMEOUT_S) -> Sample:
        return run_child(argv, self.env, self.root, self.scratch, timeout_s)

    # -- set-up ----------------------------------------------------------

    def prepare(self) -> dict:
        """Write the ``cc_run`` inputs; return the program's facts."""
        sample = self.child(
            [self.python, str(HERE / "probe.py"), "prepare", str(self.scratch / "inputs"),
             str(CC_SCALE)]
        )
        if sample.exit_code != 0:
            raise BenchError(f"set-up failed: {sample.stderr.strip()[-500:]}")
        info = json.loads(sample.stdout.strip().splitlines()[-1])
        package = Path(info["repro_package"]).resolve()
        if package != (self.root / "src" / "repro").resolve():
            raise BenchError(f"imported repro from {package}, not from this checkout")
        return info

    def setup_seconds(self) -> float:
        """Median wall time of fresh processes that import ``repro`` and
        compile the 8 programs (after one untimed process fills the
        bytecode cache)."""
        argv = [self.python, str(HERE / "probe.py"), "setup"]
        times = []
        for _ in range(SETUP_REPEATS + 1):
            sample = self.child(argv)
            if sample.exit_code != 0:
                raise BenchError(f"set-up failed: {sample.stderr.strip()[-500:]}")
            times.append(sample.wall_s)
        return statistics.median(times[1:])

    # -- requests --------------------------------------------------------

    def suite_argv(self, kind: str, *cache_args: str) -> List[str]:
        return [self.python, "-m", "repro.harness.cli", "--all", "--input", kind, *cache_args]

    def cc_argv(self, program: dict, kind: str) -> List[str]:
        return [self.python, "-m", "repro.tools.cc", program["source"], "--run",
                "--input", program["inputs"][kind]]

    def cold_request(self, kind: str) -> Outcome:
        """``repro-run --all`` into a fresh, empty cache directory."""
        cache_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=self.scratch))
        try:
            sample = self.child(self.suite_argv(kind, "--cache-dir", str(cache_dir)))
            entries = sorted(path.name for path in cache_dir.iterdir())
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        actual, count = normalize_suite(sample.stdout)
        expected = read_expected(self.expected / kind / "suite.txt")
        error = judge(sample, actual, expected, f"repro-run --all --input {kind}")
        if error is None and (
            len(entries) != SUITE_ENTRIES or not all(e.endswith(".pkl") for e in entries)
        ):
            error = f"cold run left {entries} in its cache directory"
        return Outcome(sample, count, error)

    def cc_request(self, name: str, program: dict, kind: str) -> Outcome:
        sample = self.child(self.cc_argv(program, kind))
        actual, count = cc_transcript(sample)
        expected = read_expected(self.expected / kind / f"cc_{name}.txt")
        error = judge(sample, actual, expected, f"repro-cc {name} ({kind} input)")
        return Outcome(sample, count, error)

    def workload(self, name: str, info: dict) -> Callable[[str], List[Outcome]]:
        """A function that sends one unit of workload ``name`` on an
        input set: a request, or for ``cc_run`` a pass of 8 requests."""
        if name == "suite_cold":
            return lambda kind: [self.cold_request(kind)]
        if name == "cc_run":
            programs = info["programs"]
            return lambda kind: [self.cc_request(p, programs[p], kind) for p in programs]
        raise BenchError(f"unknown workload {name!r}")


def measure(send: Callable[[str], List[Outcome]], order: Tuple[str, str],
            seconds: float) -> Tuple[dict, dict]:
    """Send units back to back for ``seconds``, a pair at a time (one
    unit per input set, in ``order``), and at least one pair."""
    units: List[Tuple[str, List[Outcome]]] = []
    deadline = perf_counter() + seconds
    while not units or perf_counter() < deadline:
        units.extend((kind, send(kind)) for kind in order)
    walls = [sum(o.sample.wall_s for o in unit) for _, unit in units]
    cpus = [sum(o.sample.cpu_s for o in unit) for _, unit in units]
    rss = [max(o.sample.rss_mb for o in unit) for _, unit in units]
    insns = [sum(o.instructions for o in unit) for _, unit in units]
    outcomes = [o for _, unit in units for o in unit]
    errors = [o.error for o in outcomes if o.error is not None]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "insns_per_s": statistics.median(insns) / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {
        "samples": len(units),
        "attempted": len(outcomes),
        "failed": len(errors),
        "errors": errors[:5],
        "error_rate": len(errors) / len(outcomes),
        "units": [
            {"input": kind, "wall_s": w, "cpu_s": c, "instructions": n}
            for (kind, _), w, c, n in zip(units, walls, cpus, insns)
        ],
    }
    return values, detail


def git_commit(root: Path) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_ladder(bench: Bench, kind: str, workload: str, seed: int) -> Tuple[dict, dict]:
    spans_dir = bench.state / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans = spans_dir / f"{workload}-seed{seed}.json"
    sample = bench.child(
        [bench.python, str(HERE / "ladder.py"), "--input", kind,
         "--expected", str(bench.expected / kind / "suite.txt"),
         "--cache-dir", str(bench.scratch / "ladder-cache"), "--spans-out", str(spans)],
        timeout_s=LADDER_TIMEOUT_S,
    )
    if sample.exit_code != 0:
        raise BenchError(f"traced run failed: {sample.stderr.strip()[-800:]}")
    report = json.loads(sample.stdout.strip().splitlines()[-1])
    detail = {
        "samples": 1,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "errors": report["failures"][:5],
        "error_rate": report["failed"] / report["attempted"],
        "spans": str(spans.relative_to(bench.root)),
        "ladder_wall_s": sample.wall_s,
    }
    return report["metrics"], detail


def run(args: argparse.Namespace, root: Path) -> int:
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no repro sources (src/repro); run from a checkout root")
    with open(root / "BENCHMARK.json") as handle:
        specs = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    order = input_order(args.seed)
    state = root / ".bench_build" / "perfbench"
    state.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=state))
    try:
        bench = Bench(root, scratch)
        info = bench.prepare()
        if args.trace:
            values, detail = run_ladder(bench, order[0], args.workload, args.seed)
        else:
            values = {"setup_s": bench.setup_seconds()}
            measured, detail = measure(bench.workload(args.workload, info), order, args.seconds)
            values.update(measured)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"# {spec['name']:34s} {values[spec['name']]:>16.6g} {spec['unit']}")
    for error in detail["errors"]:
        print(f"# FAILED {error}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_order": order,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": info["python"],
        "source_digest": info["source_digest"],
        "git_commit": git_commit(root),
        **detail,
    }
    print("# record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": detail["failed"] == 0,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args, Path.cwd())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
