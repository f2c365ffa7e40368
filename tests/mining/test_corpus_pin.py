"""Pin the mining flow's output over a whole corpus.

The digest covers, per design of ``assertionbench-control``, every candidate
and every selected assertion of the corpus-scale mining configuration.  Any
change to the miners, the ranker or the FPV verdicts they rely on moves it;
a refactor of the mining internals must leave it where it is.
"""

import hashlib

from repro.bench.corpus import get_corpus
from repro.bench.knowledge import _fast_miner_config
from repro.mining import AssertionMiner

#: Recorded with the row-wise GoldMine that the columnar one replaced.
CONTROL_MINING_DIGEST = "240aa74f20ac08a93254aa08bf5136736b986c191bf0d15ff68ec98fef7b4f53"


def mining_digest(corpus_name: str) -> str:
    digest = hashlib.sha256()
    config = _fast_miner_config()
    for design in get_corpus(corpus_name).all_designs():
        report = AssertionMiner(design, config).mine()
        digest.update(f"design {design.name}\n".encode())
        for section, assertions in (
            ("candidate", report.candidates),
            ("selected", report.selected),
        ):
            for assertion in assertions:
                digest.update(f"{section} {assertion.to_sva()}\n".encode())
    return digest.hexdigest()


def test_control_corpus_mining_is_pinned():
    assert mining_digest("assertionbench-control") == CONTROL_MINING_DIGEST
