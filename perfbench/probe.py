"""Child process for the benchmark's set-up steps.

Run with ``PYTHONPATH=<checkout>/src`` from the checkout root::

    python3 perfbench/probe.py setup
    python3 perfbench/probe.py prepare DIR SCALE

``setup`` is the work ``setup_s`` times: a fresh process that imports
``repro`` and compiles the 8 MiniC programs.  ``prepare`` writes one
input file per program and input set (``DIR/<set>/<program>.in``) for
``repro-cc --run --input`` and prints, as one JSON line, the facts every
result records (source digest, Python version) plus the program source
and input paths.
"""

from __future__ import annotations

import sys


def setup() -> None:
    from repro.workloads import WORKLOADS

    for workload in WORKLOADS.values():
        workload.program()


def prepare(directory: str, scale: int) -> None:
    import json
    import os
    import platform

    import repro
    import repro.harness.cli  # noqa: F401  (bytecode-caches what requests import)
    import repro.tools.cc  # noqa: F401
    import repro.workloads
    from repro.harness.cache import source_digest
    from repro.workloads import WORKLOADS

    minic = os.path.join(os.path.dirname(repro.workloads.__file__), "minic")
    programs = {}
    for name, workload in WORKLOADS.items():
        inputs = {}
        for kind, make in (
            ("primary", workload.primary_input),
            ("secondary", workload.secondary_input),
        ):
            os.makedirs(os.path.join(directory, kind), exist_ok=True)
            inputs[kind] = os.path.join(directory, kind, f"{name}.in")
            with open(inputs[kind], "wb") as handle:
                handle.write(make(scale))
        programs[name] = {"source": os.path.join(minic, workload.source_file), "inputs": inputs}
    print(
        json.dumps(
            {
                "source_digest": source_digest(),
                "python": platform.python_version(),
                "repro_package": os.path.dirname(repro.__file__),
                "programs": programs,
            }
        )
    )


if __name__ == "__main__":
    command = sys.argv[1] if len(sys.argv) > 1 else ""
    if command == "setup":
        setup()
    elif command == "prepare" and len(sys.argv) == 4:
        prepare(sys.argv[2], int(sys.argv[3]))
    else:
        raise SystemExit(__doc__)
