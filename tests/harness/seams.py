"""Real faults at the suite harness's seams, for the chaos and CLI tests.

Nothing in ``src/`` knows these exist: each fault is a genuine failure
caused from outside through ``monkeypatch``.

* Pool-side faults replace :func:`repro.harness.parallel._run_one` with
  :func:`faulty_run_one`.  It is module-level, so the pool pickles it by
  reference and it reaches worker processes under both the fork and
  the spawn start method.
* In-process faults replace ``runner.get_workload`` so that one
  workload's program is a real trapping program or a real MiniC syntax
  error (:func:`break_workload`).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from typing import Callable, Optional

from repro.asm import Program, assemble
from repro.harness import parallel, runner
from repro.lang import compile_source
from repro.workloads import Workload, get_workload

#: The real pool entry point, captured before any test replaces it.
_REAL_RUN_ONE = parallel._run_one

#: How long a hung worker sleeps: far past any test's parent deadline,
#: but bounded, so a broken deadline stalls a run instead of wedging it.
HANG_S = 60.0

#: Jumps past the end of the text segment: a real ``pc outside text
#: segment`` trap under either engine.
TRAP_ASSEMBLY = """
        .ent main, 0
main:   li $t0, 0x00400100
        jr $t0
        .end main
"""

#: A MiniC syntax error: no ``;`` after the return value.
MALFORMED_MINIC = "int main() { return 1 }\n"


def trapping_program() -> Program:
    return assemble(TRAP_ASSEMBLY)


def malformed_program() -> Program:
    return compile_source(MALFORMED_MINIC, "malformed.mc")


#: The program builders a rebuilt workload can use, by fault name.
BUILDERS = {"trap": trapping_program, "compile-error": malformed_program}


@dataclasses.dataclass(frozen=True)
class RebuiltWorkload(Workload):
    """A registry workload whose program comes from ``build`` instead."""

    build: Optional[Callable[[], Program]] = None

    def program(self) -> Program:
        return self.build()


def rebuilt(name: str, build: Callable[[], Program]) -> RebuiltWorkload:
    base = get_workload(name)
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(Workload)}
    return RebuiltWorkload(**fields, build=build)


def faulty_run_one(
    name, config, cache_dir, attempt, timeout_s, *, fault, victim, on_attempt
):
    """``parallel._run_one``, but ``victim`` really fails in its worker.

    ``fault`` is ``"crash"`` (the worker dies with ``os._exit``, so the
    parent sees a broken pool), ``"hang"`` (the worker sleeps past the
    parent's deadline), or a :data:`BUILDERS` key (the victim runs a
    trapping or malformed program).  ``on_attempt`` limits the fault to
    that round; ``None`` faults every round.  Every other task runs the
    real entry point.
    """
    if name == victim and on_attempt in (None, attempt):
        if fault == "crash":
            os._exit(70)
        if fault == "hang":
            time.sleep(HANG_S)
        else:
            workload = rebuilt(name, BUILDERS[fault])
            return runner.run_workload(workload, config, deadline_s=timeout_s)
    return _REAL_RUN_ONE(name, config, cache_dir, attempt, timeout_s)


def fault_pool(monkeypatch, fault: str, victim: str = "go", on_attempt=None) -> None:
    """Make every pool task for ``victim`` fail with ``fault``."""
    stand_in = functools.partial(
        faulty_run_one, fault=fault, victim=victim, on_attempt=on_attempt
    )
    monkeypatch.setattr(parallel, "_run_one", stand_in)


def break_workload(monkeypatch, fault: str, victim: str = "go") -> None:
    """Give ``victim`` a trapping or malformed program in this process."""
    monkeypatch.setattr(
        runner,
        "get_workload",
        lambda name: rebuilt(name, BUILDERS[fault]) if name == victim else get_workload(name),
    )
