"""Fault injection for the scheduler's worker pool.

The stand-ins below replace the scheduler's worker entry points (patch them
onto :mod:`repro.core.scheduler` before the pool starts, so forked workers
inherit them).  :func:`crash_once` kills the first *worker process* that
picks up a batch, with ``os._exit`` so the pool sees a dead worker, then
defers to the real entry point everywhere else — later workers and the
parent's in-process retry alike.  The marker file named by
:data:`CRASH_MARKER_ENV` records that the crash happened.  The ``failing``
stand-ins raise wherever they run, so the in-process retry fails too;
:func:`design_batch_failing_for_one_design` does so only for the design named
by :data:`FAILING_DESIGN_ENV`.  :func:`tear_trailing_record` leaves a JSONL
log the way a crash in the middle of an append does.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.core import scheduler

CRASH_MARKER_ENV = "REPRO_TEST_CRASH_MARKER"
FAILING_DESIGN_ENV = "REPRO_TEST_FAILING_DESIGN"

_REAL_DESIGN_BATCH = scheduler._check_design_batch
_REAL_FAMILY_JOB = scheduler._check_family_job


def tear_trailing_record(path) -> None:
    """Cut the last line of a JSONL file in half, newline included."""
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[: start + (len(data) - start) // 2])


def crash_once(real, args):
    marker = os.environ.get(CRASH_MARKER_ENV)
    if marker and multiprocessing.parent_process() is not None:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return real(*args)


def design_batch_crashing_once(*args):
    return crash_once(_REAL_DESIGN_BATCH, args)


def family_job_crashing_once(*args):
    return crash_once(_REAL_FAMILY_JOB, args)


def design_batch_always_failing(*args):
    raise RuntimeError("injected batch failure")


def design_batch_failing_for_one_design(design, *args):
    if design.name == os.environ.get(FAILING_DESIGN_ENV):
        raise RuntimeError("injected batch failure")
    return _REAL_DESIGN_BATCH(design, *args)


def family_job_always_failing(*args):
    raise RuntimeError("injected batch failure")
