"""The per-mutant reference for family verification: a test oracle.

:func:`check_families` answers every family job the way a mutant would be
checked as an ordinary design, with one
:meth:`~repro.core.scheduler.VerificationService.check_many` batch per
mutant, so no family kernel, delta walk or member table is involved.
Family-path tests patch it over ``VerificationService.check_families`` and
compare the records.  Run as a script, it is the ``repro`` CLI with that
patch applied, e.g.::

    python tests/mutate/per_mutant.py mutate --smoke --backend vectorized \\
        --run-dir run-artifacts/mutate-per-mutant
"""

from __future__ import annotations

import sys
from typing import List, Sequence

from repro.core.scheduler import FamilyJob, VerificationService
from repro.fpv.result import ProofResult


def check_families(
    service: VerificationService, jobs: Sequence[FamilyJob]
) -> List[List[List[ProofResult]]]:
    """Per job, one verdict list per mutant, each from its own design batch."""
    return [
        service.check_many([(mutant.design, list(texts)) for mutant in mutants])
        for _, mutants, texts in jobs
    ]


if __name__ == "__main__":
    from repro.cli import main

    VerificationService.check_families = check_families
    raise SystemExit(main(sys.argv[1:]))
