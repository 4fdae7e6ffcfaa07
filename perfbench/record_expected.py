"""Record the expected outputs the benchmark checks requests against.

Run from the root of a checkout, after an intended change to a result::

    python3 perfbench/record_expected.py

For both input sets it writes ``perfbench/expected/<kind>/suite.txt``
(``repro-run --all`` stdout with the wall-time field masked) and
``cc_<program>.txt`` (``repro-cc --run`` stdout plus its instruction
count and exit line at the ``cc_run`` scale).  Review the diff before
committing it: these files define a correct output.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from run import EXPECTED, Bench, cc_transcript, normalize_suite


def main() -> int:
    root = Path.cwd()
    state = root / ".bench_build" / "perfbench"
    state.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=state))
    try:
        bench = Bench(root, scratch)
        info = bench.prepare()
        for kind in ("primary", "secondary"):
            target = EXPECTED / kind
            target.mkdir(parents=True, exist_ok=True)
            sample = bench.child(bench.suite_argv(kind, "--no-cache"))
            if sample.exit_code != 0:
                raise SystemExit(f"repro-run failed: {sample.stderr}")
            (target / "suite.txt").write_text(normalize_suite(sample.stdout)[0])
            for name, program in info["programs"].items():
                sample = bench.child(bench.cc_argv(program, kind))
                if sample.exit_code != 0:
                    raise SystemExit(f"repro-cc {name} failed: {sample.stderr}")
                (target / f"cc_{name}.txt").write_text(cc_transcript(sample)[0])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
