"""Simulator error types."""

from __future__ import annotations


class SimError(Exception):
    """A runtime fault in the simulated machine (bad access, bad pc...).

    The simulator annotates escaping traps with ``engine`` and the
    retirement counters; the fault harness marks injected ones with
    ``injected=True`` so failure records can tell them apart.
    """

    injected = False
    engine = None
    retired_total = None
    retired_analyzed = None

    def __init__(self, message: str, pc: int = 0) -> None:
        self.pc = pc
        super().__init__(f"pc={pc:#010x}: {message}" if pc else message)
