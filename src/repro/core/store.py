"""Durable campaign state: run directories, outcome shards, persistent verdicts.

A *run directory* holds everything a campaign produces, laid out so that any
prefix of a run is a valid, resumable state:

``manifest.json``
    Campaign identity — a canonical config hash plus the echoed config — and
    the run status (``running`` / ``complete``).  Resume refuses a run
    directory whose manifest hash does not match the requested campaign.

``verdicts.jsonl``
    The :class:`PersistentVerdictCache`: one appended JSON line per proved
    (design fingerprint, normalised assertion text) pair.  Indexed by the
    :class:`~repro.core.scheduler.VerdictCache` on open and parsed on first
    lookup, so FPV verdicts survive across processes and runs.

``outcomes/<model>-k<k>.jsonl``
    Per-assertion :class:`~repro.core.metrics.AssertionOutcome` records, one
    shard per (model, k) sweep.  Records carry the cell (design) they belong
    to and an attempt token.

``completed.jsonl``
    The commit log.  A cell — one (model, k, design) evaluation — only
    counts as done once its completion marker (with the attempt token and
    record count) has been appended here, *after* all its outcome records.
    A crash mid-cell therefore leaves only uncommitted records, which the
    loader ignores; resume re-runs the cell and its verdicts replay from the
    persistent cache.

``mutations.jsonl``
    The mutation campaign's verdict stream: one line per
    (design, mutant, assertion) outcome, plus per-design completion markers
    (``kind: "design"``) appended once every mutant of a design has been
    scored.  Keys are content-addressed — golden design fingerprint +
    operator + site + normalised assertion text — so mutation reruns resume
    (see :mod:`repro.mutate.campaign`).

All appends are flushed line-by-line; markers are the atomicity boundary.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..fpv.engine import ReachabilityCache, ReachabilityKey
from ..fpv.result import Counterexample, ProofResult, ProofStatus
from ..fpv.transition import ReachabilityResult
from ..sva.errors import SvaError
from ..sva.model import Assertion
from ..sva.parser import parse_assertion
from .metrics import AssertionOutcome, EvaluationMatrix, ModelKshotResult
from .metrics import DesignEvaluation
from .scheduler import VerdictCache

__all__ = [
    "CellKey",
    "PersistentReachabilityCache",
    "PersistentVerdictCache",
    "ResumeMismatchError",
    "RunStore",
    "config_hash",
    "outcome_from_json",
    "outcome_to_json",
    "proof_from_json",
    "proof_to_json",
]

#: One campaign cell: (model name, k, design name).
CellKey = Tuple[str, int, str]

#: Compact separators for the append-only logs: the hot path serializes
#: every outcome/verdict/reachability record per cell, and the default
#: ", " / ": " separators cost measurably more bytes and time.
_COMPACT = (",", ":")

_MANIFEST_NAME = "manifest.json"
_VERDICTS_NAME = "verdicts.jsonl"
_REACHABILITY_NAME = "reachability.jsonl"
_COMPLETED_NAME = "completed.jsonl"
_MUTATIONS_NAME = "mutations.jsonl"
_OUTCOMES_DIR = "outcomes"


class ResumeMismatchError(RuntimeError):
    """The run directory belongs to a differently-configured campaign."""


def config_hash(config: Dict) -> str:
    """Canonical hash of a campaign configuration (exact-resume detection)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# AssertionOutcome / ProofResult serialization
# ---------------------------------------------------------------------------


def proof_to_json(proof: ProofResult) -> Dict:
    """Serialize a proof verdict, including its counterexample trace."""
    data: Dict = {
        "status": proof.status.value,
        "design_name": proof.design_name,
        "reason": proof.reason,
        "engine": proof.engine,
        "complete": proof.complete,
        "states_explored": proof.states_explored,
        "depth": proof.depth,
    }
    if proof.assertion is not None:
        data["assertion"] = proof.assertion.to_sva(include_assert=True)
    if proof.counterexample is not None:
        cex = proof.counterexample
        data["counterexample"] = {
            "cycles": cex.cycles,
            "trigger_cycle": cex.trigger_cycle,
            "failed_term": cex.failed_term,
        }
    return data


#: Distinct stored assertion texts whose parse is kept.  A mutation run
#: loads thousands of stored verdicts over a few hundred distinct texts.
_PARSE_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parse_stored(text: str) -> Optional[Assertion]:
    """Parse one stored assertion text once; ``None`` if it does not parse."""
    try:
        return parse_assertion(text)
    except SvaError:
        return None


def _own_copy(assertion: Assertion) -> Assertion:
    """A copy whose fields and term lists are its own (terms are frozen)."""
    clone = copy.copy(assertion)
    clone.antecedent = list(assertion.antecedent)
    clone.consequent = list(assertion.consequent)
    return clone


def proof_from_json(data: Dict) -> ProofResult:
    assertion = None
    text = data.get("assertion")
    if text:
        parsed = _parse_stored(text)
        if parsed is not None:
            assertion = _own_copy(parsed)
    counterexample = None
    cex = data.get("counterexample")
    if cex is not None:
        counterexample = Counterexample(
            cycles=[{k: int(v) for k, v in cycle.items()} for cycle in cex["cycles"]],
            trigger_cycle=cex.get("trigger_cycle", 0),
            failed_term=cex.get("failed_term", ""),
        )
    return ProofResult(
        status=ProofStatus(data["status"]),
        assertion=assertion,
        design_name=data.get("design_name", ""),
        counterexample=counterexample,
        reason=data.get("reason", ""),
        engine=data.get("engine", ""),
        complete=data.get("complete", True),
        states_explored=data.get("states_explored", 0),
        depth=data.get("depth", 0),
    )


def outcome_to_json(outcome: AssertionOutcome) -> Dict:
    data = {
        "design_name": outcome.design_name,
        "model_name": outcome.model_name,
        "k": outcome.k,
        "raw_text": outcome.raw_text,
        "corrected_text": outcome.corrected_text,
        "category": outcome.category,
        "correction_applied": outcome.correction_applied,
    }
    if outcome.proof is not None:
        data["proof"] = proof_to_json(outcome.proof)
    return data


def outcome_from_json(data: Dict) -> AssertionOutcome:
    proof = data.get("proof")
    return AssertionOutcome(
        design_name=data["design_name"],
        model_name=data["model_name"],
        k=data["k"],
        raw_text=data["raw_text"],
        corrected_text=data["corrected_text"],
        category=data["category"],
        proof=proof_from_json(proof) if proof is not None else None,
        correction_applied=data.get("correction_applied", False),
    )


# ---------------------------------------------------------------------------
# Persistent verdict cache
# ---------------------------------------------------------------------------


class PersistentVerdictCache(VerdictCache):
    """A :class:`VerdictCache` backed by an append-only JSONL file.

    Keys are whatever the scheduler uses — design fingerprint (name + source
    hash) plus normalised assertion text — so the cache is content-addressed:
    a renamed run directory, a new process, or a later campaign all hit as
    long as the design source and assertion text are unchanged.  ``put``
    appends one line and flushes before publishing the entry in memory;
    loading indexes the file (last write wins) and counts neither hits nor
    misses.  A stored verdict is parsed on its first hit: parsing re-parses
    its assertion text, and a verb looks up few of the stored verdicts, if
    any.  A line that is not a verdict record is skipped, so its verdict is
    recomputed.
    """

    def __init__(self, path: Path):
        super().__init__()
        self._path = Path(path)
        self._io_lock = threading.Lock()
        self._handle = None
        self._loaded_entries = 0
        self._load()

    @property
    def path(self) -> Path:
        return self._path

    @property
    def loaded_entries(self) -> int:
        """How many distinct verdicts were indexed from disk on open."""
        return self._loaded_entries

    def _load(self) -> None:
        # An entry holds its stored line until its first hit parses it.
        for line in _read_lines(self._path):
            try:
                record = json.loads(line)
                ProofStatus(record["proof"]["status"])
                self._verdicts[(record["design"], record["text"])] = line
            except (KeyError, TypeError, ValueError):
                continue  # torn or malformed record; recomputing is always safe
        self._loaded_entries = len(self._verdicts)

    def _lookup(self, key: tuple) -> Optional[ProofResult]:
        result = self._verdicts.get(key)
        if isinstance(result, str):
            try:
                result = proof_from_json(json.loads(result)["proof"])
            except (AttributeError, KeyError, TypeError, ValueError):
                del self._verdicts[key]
                return None  # a malformed verdict is recomputed
            self._verdicts[key] = result
        return result

    def put(self, design_name: str, text: str, result: ProofResult) -> None:
        self._write([(design_name, text, result)])
        super().put(design_name, text, result)

    def put_many(self, items) -> None:
        """Batch store: one write + one flush for a whole design batch."""
        self._write(items)
        super().put_many(items)

    def _write(self, items) -> None:
        lines = []
        for design_name, text, result in items:
            key = self._key(design_name, text)
            lines.append(
                json.dumps(
                    {"design": key[0], "text": key[1], "proof": proof_to_json(result)},
                    separators=_COMPACT,
                )
            )
        with self._io_lock:
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                prefix = "\n" if _missing_trailing_newline(self._path) else ""
                self._handle = self._path.open("a", encoding="utf-8")
                if prefix:
                    self._handle.write(prefix)
            self._handle.write("".join(line + "\n" for line in lines))
            self._handle.flush()

    def close(self) -> None:
        """Close the append handle (reopened automatically on the next put)."""
        with self._io_lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# ---------------------------------------------------------------------------
# Persistent reachability cache
# ---------------------------------------------------------------------------


class PersistentReachabilityCache(ReachabilityCache):
    """A :class:`~repro.fpv.engine.ReachabilityCache` backed by JSONL.

    One appended line per explored design, keyed by design source
    fingerprint plus the engine caps that shaped the exploration
    (:func:`repro.fpv.engine.reachability_key`).  A warm campaign rerun
    replays the file and skips every reachability BFS whose design source
    and caps are unchanged — including bounded (incomplete) explorations,
    which are just as deterministic as complete ones.
    """

    def __init__(self, path: Path):
        super().__init__()
        self._path = Path(path)
        self._io_lock = threading.Lock()
        self._handle = None
        self._loaded_entries = 0
        self._load()

    @property
    def path(self) -> Path:
        return self._path

    @property
    def loaded_entries(self) -> int:
        """How many reachability results were replayed from disk on open."""
        return self._loaded_entries

    def _load(self) -> None:
        if not self._path.exists():
            return
        for record in _read_jsonl(self._path):
            try:
                key: ReachabilityKey = (
                    record["design"],
                    int(record["max_states"]),
                    int(record["max_transitions"]),
                    int(record["max_input_bits"]),
                )
                result = ReachabilityResult(
                    states=[tuple(int(v) for v in state) for state in record["states"]],
                    complete=bool(record["complete"]),
                    frontier_exhausted=bool(record["frontier_exhausted"]),
                    transitions_explored=int(record["transitions"]),
                )
            except (KeyError, TypeError, ValueError):
                continue  # torn or legacy record; recomputing is always safe
            self._results[key] = result
        self._loaded_entries = len(self._results)

    def put(self, key: ReachabilityKey, result: ReachabilityResult) -> None:
        fingerprint, max_states, max_transitions, max_input_bits = key
        line = json.dumps(
            {
                "design": fingerprint,
                "max_states": max_states,
                "max_transitions": max_transitions,
                "max_input_bits": max_input_bits,
                "complete": result.complete,
                "frontier_exhausted": result.frontier_exhausted,
                "transitions": result.transitions_explored,
                "states": [list(state) for state in result.states],
            },
            separators=_COMPACT,
        )
        # Check, append and record under one lock, so two threads putting
        # an equal result for the same key append one line between them.
        with self._io_lock:
            with self._lock:
                if self._results.get(key) == result:
                    return  # the file already holds this exact result
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                prefix = "\n" if _missing_trailing_newline(self._path) else ""
                self._handle = self._path.open("a", encoding="utf-8")
                if prefix:
                    self._handle.write(prefix)
            self._handle.write(line + "\n")
            self._handle.flush()
            super().put(key, result)

    def close(self) -> None:
        """Close the append handle (reopened automatically on the next put)."""
        with self._io_lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# ---------------------------------------------------------------------------
# The run store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellMarker:
    """One committed cell: which attempt's records are authoritative."""

    cell: CellKey
    attempt: str
    count: int


class _JsonlTail:
    """Incremental JSONL reader: reads only bytes appended since last read.

    ``read_new`` returns the new non-blank lines, unparsed.  Only complete
    (newline-terminated) lines are consumed; a torn tail from a crash is
    left un-consumed and retried once more bytes arrive.  If the file
    shrinks (deleted/recreated), ``read_new`` returns ``None`` so the caller
    can rebuild its derived state from scratch.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._offset = 0

    def read_new(self) -> Optional[List[bytes]]:
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            if self._offset:
                self._offset = 0
                return None
            return []
        if size < self._offset:
            self._offset = 0
            return None
        if size == self._offset:
            return []
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            data = handle.read(size - self._offset)
        end = data.rfind(b"\n")
        if end < 0:
            return []
        self._offset += end + 1
        return [line for line in map(bytes.strip, data[:end].splitlines()) if line]


def _parsed(lines: Iterable[bytes]) -> Iterator[Tuple[Dict, bytes]]:
    """Yield each line that parses, as (record, line)."""
    for line in lines:
        try:
            yield json.loads(line.decode("utf-8")), line
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A line torn by a crash that later appends restored; the
            # record it belonged to was never committed.
            continue


class RunStore:
    """Artifact store for one campaign run directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / _OUTCOMES_DIR).mkdir(exist_ok=True)
        self._append_lock = threading.Lock()
        self._cache: Optional[PersistentVerdictCache] = None
        self._reachability: Optional[PersistentReachabilityCache] = None
        #: Open append handles per file, so per-cell commits don't pay two
        #: opens each; every append still flushes before returning.
        self._handles: Dict[Path, object] = {}
        #: Incremental readers + derived state, so resume/report replay is
        #: linear in file size instead of rescanning whole shards per cell.
        #: Shard lines are kept unparsed, as (idx, line), until a cell loads.
        self._shard_tails: Dict[Path, _JsonlTail] = {}
        self._shard_groups: Dict[Path, Dict[Tuple[str, str], List[Tuple[int, bytes]]]] = {}
        self._completed_tail: Optional[_JsonlTail] = None
        self._completed_markers: Dict[CellKey, CellMarker] = {}
        #: Monotonic per-process attempt salt; combined with the PID it makes
        #: attempt tokens unique across interrupted runs appending to one shard.
        self._attempt_counter = 0

    def close(self) -> None:
        """Close cached append handles (reopened lazily on the next write)."""
        with self._append_lock:
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()
        if self._cache is not None:
            self._cache.close()
        if self._reachability is not None:
            self._reachability.close()

    def _append_lines(self, path: Path, lines: List[str]) -> None:
        """Append pre-serialized lines and flush; caller holds no lock."""
        with self._append_lock:
            handle = self._handles.get(path)
            if handle is None:
                prefix = "\n" if _missing_trailing_newline(path) else ""
                handle = path.open("a", encoding="utf-8")
                if prefix:
                    # Restore the line boundary after a torn tail so the
                    # first new record can't merge with the dead partial line.
                    handle.write(prefix)
                self._handles[path] = handle
            handle.write("".join(line + "\n" for line in lines))
            handle.flush()

    # -- manifest ---------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    def read_manifest(self) -> Optional[Dict]:
        if not self.manifest_path.exists():
            return None
        return json.loads(self.manifest_path.read_text(encoding="utf-8"))

    def write_manifest(self, manifest: Dict) -> None:
        """Write the manifest atomically (tmp file + rename)."""
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2, default=str) + "\n", encoding="utf-8")
        os.replace(tmp, self.manifest_path)

    def begin_run(self, config: Dict, resume_only: bool = False) -> Dict:
        """Open (or create) the manifest for a campaign with ``config``.

        Raises :class:`ResumeMismatchError` when the directory already holds
        a differently-configured campaign, or when ``resume_only`` is set and
        there is nothing to resume.
        """
        digest = config_hash(config)
        existing = self.read_manifest()
        if existing is not None:
            if existing.get("config_hash") != digest:
                raise ResumeMismatchError(
                    f"run directory {self.root} holds campaign "
                    f"{existing.get('config_hash')!r}, requested {digest!r}; "
                    "use a fresh --run-dir or matching configuration"
                )
            manifest = dict(existing)
            manifest["status"] = "running"
            manifest["resumes"] = int(existing.get("resumes", 0)) + (1 if resume_only else 0)
        else:
            if resume_only:
                raise ResumeMismatchError(
                    f"run directory {self.root} has no manifest to resume"
                )
            manifest = {
                # Version 2: the engine backend left the config hash (it is
                # semantics-neutral).  Version-1 run directories therefore
                # hash differently and resume only into a fresh --run-dir.
                "version": 2,
                "config_hash": digest,
                "config": config,
                "status": "running",
                "resumes": 0,
            }
        self.write_manifest(manifest)
        return manifest

    def finish_run(self, stats: Optional[Dict] = None) -> None:
        """Mark the run complete, optionally recording the run's cache stats.

        ``stats`` (verdict / reachability / step-cache hit rates, family
        sweep counters — see
        :meth:`repro.core.scheduler.VerificationService.run_stats`) lands in
        the manifest so ``repro report`` can show cache behaviour long after
        the process that ran the campaign is gone.
        """
        manifest = self.read_manifest()
        if manifest is not None:
            manifest["status"] = "complete"
            if stats is not None:
                manifest["stats"] = stats
            self.write_manifest(manifest)

    # -- persistent verdict cache ----------------------------------------------

    def verdict_cache(self) -> PersistentVerdictCache:
        """The run's persistent verdict cache (one instance per store)."""
        if self._cache is None:
            self._cache = PersistentVerdictCache(self.root / _VERDICTS_NAME)
        return self._cache

    def reachability_cache(self) -> PersistentReachabilityCache:
        """The run's persistent reachability cache (one instance per store).

        Keyed by design fingerprint + engine caps, so warm reruns of a
        campaign skip the reachable-state BFS for every unchanged design.
        """
        if self._reachability is None:
            self._reachability = PersistentReachabilityCache(
                self.root / _REACHABILITY_NAME
            )
        return self._reachability

    # -- outcome shards and the commit log ---------------------------------------

    def shard_path(self, model_name: str, k: int) -> Path:
        return self.root / _OUTCOMES_DIR / f"{_slug(model_name)}-k{k}.jsonl"

    @property
    def completed_path(self) -> Path:
        return self.root / _COMPLETED_NAME

    def record_cell(
        self,
        model_name: str,
        k: int,
        design_name: str,
        outcomes: Sequence[AssertionOutcome],
    ) -> None:
        """Durably record one completed cell.

        Outcome records are appended to the (model, k) shard first; the
        completion marker in ``completed.jsonl`` is the commit point.
        """
        with self._append_lock:
            self._attempt_counter += 1
            attempt = f"{os.getpid()}-{self._attempt_counter}"
        cell = {"model": model_name, "k": k, "design": design_name}
        self._append_lines(
            self.shard_path(model_name, k),
            [
                json.dumps(
                    {
                        **cell,
                        "attempt": attempt,
                        "idx": index,
                        "outcome": outcome_to_json(outcome),
                    },
                    separators=_COMPACT,
                )
                for index, outcome in enumerate(outcomes)
            ],
        )
        self._append_lines(
            self.completed_path,
            [json.dumps({**cell, "attempt": attempt, "count": len(outcomes)}, separators=_COMPACT)],
        )

    def completed_cells(self) -> Dict[CellKey, CellMarker]:
        """All committed cells; the last marker per cell wins.

        Incremental: only commit-log bytes appended since the previous call
        are parsed, so polling this during a campaign stays cheap.
        """
        if self._completed_tail is None:
            self._completed_tail = _JsonlTail(self.completed_path)
        new = self._completed_tail.read_new()
        if new is None:  # the log shrank — rebuild from scratch
            self._completed_markers = {}
            new = self._completed_tail.read_new() or []
        for record, _ in _parsed(new):
            cell: CellKey = (record["model"], record["k"], record["design"])
            self._completed_markers[cell] = CellMarker(
                cell, record["attempt"], record["count"]
            )
        return dict(self._completed_markers)

    def load_cell(
        self, model_name: str, k: int, design_name: str
    ) -> Optional[List[AssertionOutcome]]:
        """Load one committed cell's outcomes, or ``None`` if uncommitted."""
        marker = self.completed_cells().get((model_name, k, design_name))
        if marker is None:
            return None
        return self.load_marked(marker)

    def _shard_records(
        self, model_name: str, k: int
    ) -> Dict[Tuple[str, str], List[Tuple[int, bytes]]]:
        """Shard lines as (idx, line) grouped by (design, attempt), read incrementally."""
        path = self.shard_path(model_name, k)
        tail = self._shard_tails.get(path)
        if tail is None:
            tail = _JsonlTail(path)
            self._shard_tails[path] = tail
            self._shard_groups[path] = {}
        new = tail.read_new()
        if new is None:  # the shard shrank — rebuild from scratch
            self._shard_groups[path] = {}
            new = tail.read_new() or []
        groups = self._shard_groups[path]
        for record, line in _parsed(new):
            groups.setdefault((record["design"], record["attempt"]), []).append(
                (record["idx"], line)
            )
        return groups

    def load_marked(self, marker: CellMarker) -> List[AssertionOutcome]:
        """Load the outcome records committed by ``marker``, in record order.

        The records are parsed here, on every call: the store keeps only
        their lines.
        """
        model_name, k, design_name = marker.cell
        records = sorted(
            self._shard_records(model_name, k).get((design_name, marker.attempt), []),
            key=lambda record: record[0],
        )
        if len(records) != marker.count:
            raise RuntimeError(
                f"cell {marker.cell} committed {marker.count} records but "
                f"{len(records)} are present in {self.shard_path(model_name, k)}"
            )
        return [outcome_from_json(json.loads(line)["outcome"]) for _, line in records]

    def load_matrix(self, held: Optional[EvaluationMatrix] = None) -> EvaluationMatrix:
        """Reassemble the :class:`EvaluationMatrix` of every committed cell.

        Designs appear in commit order within each (model, k) result, which
        matches campaign order because cells are committed as they stream.
        A committed cell that ``held`` (say, the matrix
        :meth:`~repro.core.runtime.CampaignRuntime.run_campaign` returned)
        already holds takes its outcomes from there, so its records are not
        read again.
        """
        loaded = {
            (sweep.model_name, sweep.k, evaluation.design_name): evaluation.outcomes
            for per_model in (held.results.values() if held is not None else ())
            for sweep in per_model.values()
            for evaluation in sweep.designs
        }
        matrix = EvaluationMatrix()
        by_sweep: Dict[Tuple[str, int], ModelKshotResult] = {}
        for cell, marker in self.completed_cells().items():
            model_name, k, design_name = cell
            sweep = by_sweep.get((model_name, k))
            if sweep is None:
                sweep = ModelKshotResult(model_name=model_name, k=k)
                by_sweep[(model_name, k)] = sweep
                matrix.add(sweep)
            evaluation = DesignEvaluation(design_name=design_name)
            outcomes = loaded.get(cell)
            evaluation.outcomes.extend(
                outcomes if outcomes is not None else self.load_marked(marker)
            )
            sweep.designs.append(evaluation)
        return matrix

    # -- the mutation log ---------------------------------------------------------

    @property
    def mutations_path(self) -> Path:
        return self.root / _MUTATIONS_NAME

    def append_mutation_records(self, records: Sequence) -> None:
        """Append mutation verdict records (``MutationRecord`` instances)."""
        self._append_lines(
            self.mutations_path,
            [json.dumps(record.to_json(), separators=_COMPACT) for record in records],
        )

    def append_mutation_marker(
        self,
        design_name: str,
        fingerprint: str,
        assertions: Sequence[str],
        stats: Dict[str, int],
        config: Optional[Dict] = None,
        mutants: Optional[Sequence[str]] = None,
    ) -> None:
        """Commit one design's mutation sweep (all its records are appended).

        ``config`` is the mutation configuration the sweep ran under and
        ``mutants`` the sweep's mutant addresses (``operator@site``); a
        rerun only honours the marker when its config matches, and rebuilds
        the sweep's summary from exactly those addresses.
        """
        self._append_lines(
            self.mutations_path,
            [
                json.dumps(
                    {
                        "kind": "design",
                        "design": design_name,
                        "fingerprint": fingerprint,
                        "assertions": list(assertions),
                        "stats": dict(stats),
                        "config": config,
                        "mutants": list(mutants) if mutants is not None else None,
                    }
                )
            ],
        )

    def load_mutation_log(self):
        """Replay ``mutations.jsonl``: (verdict records, per-design markers).

        The last marker per design wins; verdict records deduplicate by
        content key with the last write winning, matching every other log in
        the store.
        """
        from ..mutate.campaign import MutationRecord

        records: Dict[tuple, MutationRecord] = {}
        markers: Dict[str, Dict] = {}
        for data in _read_jsonl(self.mutations_path):
            kind = data.get("kind", "verdict")
            try:
                if kind == "design":
                    markers[data["design"]] = data
                else:
                    record = MutationRecord.from_json(data)
                    records[record.key] = record
            except (KeyError, TypeError, ValueError):
                continue  # torn or legacy record; rescoring is always safe
        return list(records.values()), markers

    # -- diagnostics -------------------------------------------------------------

    def describe(self) -> Dict:
        """Run-directory summary used by the CLI ``report`` verb."""
        manifest = self.read_manifest() or {}
        cells = self.completed_cells()
        cache = self.verdict_cache()
        return {
            "root": str(self.root),
            "status": manifest.get("status", "absent"),
            "config_hash": manifest.get("config_hash", ""),
            "resumes": manifest.get("resumes", 0),
            "completed_cells": len(cells),
            "persistent_verdicts": len(cache),
        }


def _slug(name: str) -> str:
    """Filesystem-safe shard name component."""
    return "".join(ch if ch.isalnum() else "_" for ch in name).strip("_") or "model"


def _missing_trailing_newline(path: Path) -> bool:
    """True when the file exists, is non-empty, and has a torn last line."""
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return False
    if size == 0:
        return False
    with path.open("rb") as handle:
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


def _read_lines(path: Path) -> Iterable[str]:
    """Yield the file's non-blank lines, stripped; nothing if it is absent."""
    if not path.exists():
        return
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield line


def _read_jsonl(path: Path) -> Iterable[Dict]:
    """Yield parsed records, tolerating a torn final line from a crash."""
    for line in _read_lines(path):
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            # A partially-flushed trailing line; everything before the
            # commit marker is still consistent, so skip it.
            continue
