"""Command-line tools: the MiniC compiler driver (``repro-cc``) and the
guard both console entry points share."""

import functools
import os
import sys


def quiet_broken_pipe(main):
    """Wrap a console ``main`` so a reader that goes away ends it quietly.

    ``repro-run ... | head -1`` closes stdout early.  As the Python docs
    on SIGPIPE recommend, flush inside the guard and, on
    ``BrokenPipeError``, point stdout at devnull so the interpreter's own
    flush at exit cannot raise again; the exit status is then 1.
    """

    @functools.wraps(main)
    def guarded(*args, **kwargs):
        try:
            status = main(*args, **kwargs)
            sys.stdout.flush()
            return status
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 1

    return guarded
