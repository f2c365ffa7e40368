"""The mutation campaign stage: score assertion quality by kill rate.

A :class:`MutationCampaign` rides the same infrastructure as the evaluation
campaigns: mutant batches fan out across the
:class:`~repro.core.scheduler.VerificationService` (vectorized kernel first,
compiled/scalar fallback, per-design worker dispatch), reachability is
cached per *mutant* fingerprint exactly like any other design, and verdicts
stream durably into the run store's ``mutations.jsonl`` as they land.

Per (golden design, FPV-passing assertion, viable mutant) the campaign
records one of four outcomes:

* ``killed``    — the assertion produces a counterexample on the mutant: it
  caught the injected bug,
* ``survived``  — the assertion still passes (proven or vacuous) with a
  *complete* proof: the injected bug escapes this assertion,
* ``timeout``   — only a bounded (incomplete) pass was possible within the
  engine budgets: inconclusive,
* ``error``     — the assertion no longer elaborates on the mutant.

The *kill rate* of an assertion is ``killed / (killed + survived)`` —
inconclusive and error outcomes are excluded from the denominator.  Records
are keyed by (golden fingerprint, operator, site, normalised assertion
text), so reruns resume: already-recorded cells are skipped, and a per-design
completion marker lets a warm rerun skip mutant generation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.scheduler import VerificationService, is_batch_failure
from ..fpv.result import ProofResult
from ..hdl.design import Design
from .operators import Mutant, enumerate_mutants, resolve_operators

__all__ = [
    "KILLED",
    "SURVIVED",
    "TIMEOUT",
    "ERROR",
    "MutationCampaign",
    "MutationConfig",
    "MutationRecord",
    "MutationSummary",
    "classify_outcome",
]

KILLED = "killed"
SURVIVED = "survived"
TIMEOUT = "timeout"
ERROR = "error"

OUTCOMES = (KILLED, SURVIVED, TIMEOUT, ERROR)


def classify_outcome(proof: ProofResult) -> str:
    """Map one FPV verdict on a mutant onto the four mutation outcomes."""
    if proof.is_error:
        return ERROR
    if proof.is_fail:
        return KILLED
    return SURVIVED if proof.complete else TIMEOUT


def normalize_assertion(text: str) -> str:
    """Whitespace-normalised assertion text (the cache/record key form)."""
    return " ".join(text.split())


@dataclass
class MutationConfig:
    """Knobs of the mutation stage."""

    #: Operator names to apply (None = the full default battery).
    operators: Optional[List[str]] = None
    #: Cap on viable mutants per design, taken round-robin across operators.
    limit_per_design: Optional[int] = 64
    #: Drop mutants with no detectable semantic difference from the golden
    #: design (stillborn mutants are always dropped).
    semantic_filter: bool = True
    #: Schedule whole families (golden + mutants) as one vectorized unit;
    #: off = the reference per-mutant design batches.  Verdict outcomes are
    #: identical either way, so this is excluded from :meth:`identity`.
    family_batching: bool = True
    #: Harvest cheap kills by checking assertions against each mutant's
    #: difference-witness trace before the full table search (family path
    #: only; outcome-identical, so also excluded from :meth:`identity`).
    witness_screen: bool = True

    def identity(self) -> Dict:
        """Normalised form stored in completion markers.

        A design only counts as fully scored for a rerun whose mutation
        config matches the marker's — a rerun with more operators or a
        higher mutant cap must re-enumerate instead of silently returning
        the smaller earlier sweep.  Resolving through the operator library
        also validates the names (``KeyError`` on unknown operators).
        Throughput-only knobs (family batching, the witness pre-screen) are
        left out: they never change an outcome, so a rerun may flip them and
        still resume.
        """
        return {
            "operators": sorted(op.name for op in resolve_operators(self.operators)),
            "limit_per_design": self.limit_per_design,
            "semantic_filter": self.semantic_filter,
        }


@dataclass(frozen=True)
class MutationRecord:
    """One streamed verdict: (design, mutant, assertion) -> outcome."""

    design_name: str
    design_fingerprint: str
    category: str
    operator: str
    site: int
    description: str
    mutant_fingerprint: str
    assertion: str
    outcome: str
    status: str
    engine: str
    complete: bool

    @property
    def key(self) -> Tuple[str, str, int, str]:
        return (self.design_fingerprint, self.operator, self.site, self.assertion)

    @property
    def mutant_id(self) -> str:
        return f"{self.operator}@{self.site}"

    def to_json(self) -> Dict:
        return {
            "kind": "verdict",
            "design": self.design_name,
            "fingerprint": self.design_fingerprint,
            "category": self.category,
            "operator": self.operator,
            "site": self.site,
            "description": self.description,
            "mutant_fingerprint": self.mutant_fingerprint,
            "assertion": self.assertion,
            "outcome": self.outcome,
            "status": self.status,
            "engine": self.engine,
            "complete": self.complete,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "MutationRecord":
        return cls(
            design_name=data["design"],
            design_fingerprint=data["fingerprint"],
            category=data.get("category", ""),
            operator=data["operator"],
            site=int(data["site"]),
            description=data.get("description", ""),
            mutant_fingerprint=data.get("mutant_fingerprint", ""),
            assertion=data["assertion"],
            outcome=data["outcome"],
            status=data.get("status", ""),
            engine=data.get("engine", ""),
            complete=bool(data.get("complete", True)),
        )


@dataclass
class AssertionScore:
    """Aggregated outcomes of one assertion over one design's mutants."""

    design_name: str
    category: str
    assertion: str
    killed: int = 0
    survived: int = 0
    timeout: int = 0
    error: int = 0

    def add(self, outcome: str) -> None:
        if outcome == KILLED:
            self.killed += 1
        elif outcome == SURVIVED:
            self.survived += 1
        elif outcome == TIMEOUT:
            self.timeout += 1
        elif outcome == ERROR:
            self.error += 1
        else:
            raise ValueError(f"unknown mutation outcome {outcome!r}")

    @property
    def decided(self) -> int:
        return self.killed + self.survived

    @property
    def total(self) -> int:
        return self.decided + self.timeout + self.error

    @property
    def kill_rate(self) -> Optional[float]:
        """Killed fraction of decided mutants; None when nothing was decided."""
        if not self.decided:
            return None
        return self.killed / self.decided


@dataclass
class MutationSummary:
    """Everything the mutation reports are rendered from."""

    records: List[MutationRecord] = field(default_factory=list)
    #: Per-design mutant generation stats (from the completion markers).
    design_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @classmethod
    def from_records(
        cls,
        records: Iterable[MutationRecord],
        design_stats: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> "MutationSummary":
        return cls(records=list(records), design_stats=dict(design_stats or {}))

    def scores(self) -> List[AssertionScore]:
        """Per (design, assertion) aggregation, in first-seen order."""
        table: Dict[Tuple[str, str], AssertionScore] = {}
        for record in self.records:
            key = (record.design_name, record.assertion)
            score = table.get(key)
            if score is None:
                score = AssertionScore(
                    design_name=record.design_name,
                    category=record.category,
                    assertion=record.assertion,
                )
                table[key] = score
            score.add(record.outcome)
        return list(table.values())

    def category_distribution(self) -> Dict[str, Dict[str, float]]:
        """Per corpus category: assertion count and kill-rate distribution."""
        buckets: Dict[str, List[float]] = {}
        undecided: Dict[str, int] = {}
        for score in self.scores():
            category = score.category or "uncategorised"
            rate = score.kill_rate
            if rate is None:
                undecided[category] = undecided.get(category, 0) + 1
                buckets.setdefault(category, [])
            else:
                buckets.setdefault(category, []).append(rate)
        distribution: Dict[str, Dict[str, float]] = {}
        for category, rates in sorted(buckets.items()):
            entry: Dict[str, float] = {
                "assertions": len(rates) + undecided.get(category, 0),
                "undecided": undecided.get(category, 0),
            }
            if rates:
                ordered = sorted(rates)
                entry["mean"] = sum(rates) / len(rates)
                entry["min"] = ordered[0]
                entry["median"] = ordered[len(ordered) // 2]
                entry["max"] = ordered[-1]
            distribution[category] = entry
        return distribution

    def weak_assertions(self, limit: int = 10, min_mutants: int = 3) -> List[AssertionScore]:
        """Lowest-kill-rate assertions (at least ``min_mutants`` decided).

        Assertions with no decided mutants at all (every outcome a timeout
        or error) have no kill rate and are never ranked.
        """
        eligible = [
            score
            for score in self.scores()
            if score.decided and score.decided >= min_mutants
        ]
        eligible.sort(key=lambda score: (score.kill_rate, -score.decided))
        return eligible[:limit]

    def outcome_counts(self) -> Dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for record in self.records:
            counts[record.outcome] += 1
        return counts

    def __len__(self) -> int:
        return len(self.records)


class MutationCampaign:
    """Fan every viable mutant across the verification scheduler."""

    def __init__(
        self,
        service: VerificationService,
        store=None,
        config: Optional[MutationConfig] = None,
    ):
        self._service = service
        self._store = store
        self._config = config or MutationConfig()

    @property
    def config(self) -> MutationConfig:
        return self._config

    # -- assertion selection -----------------------------------------------------

    @staticmethod
    def passed_assertions(store) -> Dict[str, List[str]]:
        """Unique FPV-passing assertion texts per design, from committed cells."""
        texts: Dict[str, List[str]] = {}
        seen: Dict[str, set] = {}
        for sweep_by_k in store.load_matrix().results.values():
            for sweep in sweep_by_k.values():
                for evaluation in sweep.designs:
                    for outcome in evaluation.outcomes:
                        if not outcome.passed:
                            continue
                        normalised = normalize_assertion(outcome.corrected_text)
                        per_design = seen.setdefault(evaluation.design_name, set())
                        if normalised in per_design:
                            continue
                        per_design.add(normalised)
                        texts.setdefault(evaluation.design_name, []).append(
                            outcome.corrected_text
                        )
        return texts

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        designs: Sequence[Design],
        assertions_by_design: Dict[str, Sequence[str]],
        progress=None,
    ) -> MutationSummary:
        """Score every (design, passing assertion) pair over its mutants.

        Designs without passing assertions are skipped.  With a run store,
        verdicts stream into ``mutations.jsonl`` per design and reruns
        resume.  The returned summary covers exactly the *current* sweep —
        (current mutants × requested assertions) per design — so records
        written by an earlier run under a different mutation config never
        leak into the reported kill rates (they stay in the log, where
        ``report --mutation`` shows everything).
        """
        existing: Dict[Tuple[str, str, int, str], MutationRecord] = {}
        completed_designs: Dict[str, Dict] = {}
        if self._store is not None:
            loaded, markers = self._store.load_mutation_log()
            existing = {record.key: record for record in loaded}
            completed_designs = markers

        records: List[MutationRecord] = []
        design_stats: Dict[str, Dict[str, int]] = {}

        for design in designs:
            texts = [
                text
                for text in assertions_by_design.get(design.name, [])
                if text.strip()
            ]
            if not texts:
                continue
            fingerprint = design.fingerprint
            normalised = [normalize_assertion(text) for text in texts]
            marker = completed_designs.get(design.name)
            if (
                marker is not None
                and marker.get("fingerprint") == fingerprint
                and marker.get("config") == self._config.identity()
                and set(normalised) <= set(marker.get("assertions", []))
                and marker.get("mutants") is not None
            ):
                # Fully scored with this config in a previous run: replay the
                # marker's sweep (its mutant addresses × the requested texts)
                # from the log without regenerating any mutants.
                requested = set(normalised)
                marker_mutants = set(marker["mutants"])
                records.extend(
                    record
                    for record in existing.values()
                    if record.design_fingerprint == fingerprint
                    and record.mutant_id in marker_mutants
                    and record.assertion in requested
                )
                design_stats[design.name] = marker.get("stats", {})
                continue

            if progress is not None:
                progress(f"mutating {design.name} ({len(texts)} assertions)")
            mutants, stats = enumerate_mutants(
                design,
                self._config.operators,
                semantic_filter=self._config.semantic_filter,
                limit=self._config.limit_per_design,
            )
            scored, settled = self._score_design(
                design, fingerprint, mutants, texts, normalised, existing
            )
            records.extend(scored)
            design_stats[design.name] = stats.as_dict()
            # A sweep with failed verification batches stays unmarked, so a
            # rerun verifies the missing cells again.
            if self._store is not None and settled:
                self._store.append_mutation_marker(
                    design.name,
                    fingerprint,
                    normalised,
                    stats.as_dict(),
                    config=self._config.identity(),
                    mutants=[mutant.mutant_id for mutant in mutants],
                )

        return MutationSummary.from_records(records, design_stats)

    def _score_design(
        self,
        design: Design,
        fingerprint: str,
        mutants: List[Mutant],
        texts: List[str],
        normalised: List[str],
        existing: Dict[Tuple[str, str, int, str], MutationRecord],
    ) -> Tuple[List[MutationRecord], bool]:
        """All records of this design's sweep: cached where possible, else proved.

        Returns one record per (mutant, assertion) cell — reruns replay
        already-recorded cells from the log and only the missing cells reach
        the verification service — and whether every cell is settled.  The
        ``error`` records of failed verification batches are returned but not
        logged, and leave the sweep unsettled.
        """
        #: (mutant, positions of the texts still missing a record)
        work: List[Tuple[Mutant, List[int]]] = []
        cached: List[MutationRecord] = []
        for mutant in mutants:
            missing = []
            for position, text in enumerate(normalised):
                record = existing.get((fingerprint, mutant.operator, mutant.site, text))
                if record is None:
                    missing.append(position)
                else:
                    cached.append(record)
            if missing:
                work.append((mutant, missing))
        if not work:
            return cached, True

        if self._config.family_batching:
            # One family job: the golden design and every mutant still owing
            # records sweep the union of their missing assertions together.
            union = sorted({position for _, missing in work for position in missing})
            union_texts = [texts[position] for position in union]
            slot_of = {position: slot for slot, position in enumerate(union)}
            family_verdicts = self._service.check_families(
                [(design, [mutant for mutant, _ in work], union_texts)],
                witness_screen=self._config.witness_screen,
            )[0]
            verdict_lists = [
                [verdicts[slot_of[position]] for position in missing]
                for (_, missing), verdicts in zip(work, family_verdicts)
            ]
        else:
            jobs = [
                (mutant.design, [texts[position] for position in missing])
                for mutant, missing in work
            ]
            verdict_lists = self._service.check_many(jobs)

        fresh: List[MutationRecord] = []
        durable: List[MutationRecord] = []
        for (mutant, missing), verdicts in zip(work, verdict_lists):
            for position, proof in zip(missing, verdicts):
                record = MutationRecord(
                    design_name=design.name,
                    design_fingerprint=fingerprint,
                    category=design.category,
                    operator=mutant.operator,
                    site=mutant.site,
                    description=mutant.description,
                    mutant_fingerprint=mutant.design.fingerprint,
                    assertion=normalised[position],
                    outcome=classify_outcome(proof),
                    status=proof.status.value,
                    engine=proof.engine,
                    complete=proof.complete,
                )
                fresh.append(record)
                if not is_batch_failure(proof):
                    durable.append(record)
        if self._store is not None and durable:
            self._store.append_mutation_records(durable)
        return cached + fresh, len(durable) == len(fresh)
