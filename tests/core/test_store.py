"""Tests for the run-directory artifact store and persistent verdict cache."""

from __future__ import annotations

import json
import sys
import threading

import pytest

import repro.core.store as store_module
from repro.core import PersistentVerdictCache, ResumeMismatchError, RunStore, config_hash
from repro.core.metrics import (
    CEX,
    PASS,
    AssertionOutcome,
    DesignEvaluation,
    EvaluationMatrix,
    ModelKshotResult,
)
from repro.core.store import outcome_from_json, outcome_to_json, proof_from_json, proof_to_json
from repro.fpv.result import Counterexample, ProofResult, ProofStatus, error_result
from repro.mutate.campaign import MutationCampaign
from repro.sva import AssertionSignature, parse_assertion


def _proven(text="(count <= 15);") -> ProofResult:
    return ProofResult(
        status=ProofStatus.PROVEN,
        assertion=parse_assertion(text),
        design_name="counter",
        engine="explicit-state",
        complete=True,
        states_explored=32,
        depth=4,
    )


def _cex() -> ProofResult:
    return ProofResult(
        status=ProofStatus.CEX,
        assertion=parse_assertion("(en == 1) |-> (count == 0);"),
        design_name="counter",
        counterexample=Counterexample(
            cycles=[{"en": 1, "count": 0}, {"en": 1, "count": 1}],
            trigger_cycle=0,
            failed_term="count == 0",
        ),
        reason="refuted at depth 1",
        engine="explicit-state",
    )


class TestSerialization:
    def test_proof_round_trip_proven(self):
        proof = _proven()
        loaded = proof_from_json(proof_to_json(proof))
        assert loaded.status is ProofStatus.PROVEN
        assert loaded.design_name == "counter"
        assert loaded.complete and loaded.states_explored == 32 and loaded.depth == 4
        assert AssertionSignature.of(loaded.assertion) == AssertionSignature.of(proof.assertion)

    def test_proof_round_trip_counterexample(self):
        loaded = proof_from_json(proof_to_json(_cex()))
        assert loaded.status is ProofStatus.CEX
        assert loaded.counterexample is not None
        assert loaded.counterexample.cycles == [{"en": 1, "count": 0}, {"en": 1, "count": 1}]
        assert loaded.counterexample.failed_term == "count == 0"

    def test_proof_round_trip_error_without_assertion(self):
        proof = error_result("no parse", "counter")
        loaded = proof_from_json(proof_to_json(proof))
        assert loaded.status is ProofStatus.ERROR
        assert loaded.assertion is None
        assert loaded.reason == "no parse"

    def test_stored_proof_loads_equal_and_independent(self):
        data = proof_to_json(_cex())
        first, second = proof_from_json(data), proof_from_json(data)
        assert first == second
        assert first.assertion is not second.assertion
        first.assertion.name = "renamed"
        first.assertion.antecedent.clear()
        assert second.assertion.name == ""
        assert second.assertion.antecedent
        assert proof_from_json(data) == second

    def test_stored_text_parsed_once(self, monkeypatch):
        import repro.core.store as store

        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_assertion(text)

        monkeypatch.setattr(store, "parse_assertion", counting_parse)
        store._parse_stored.cache_clear()
        data = proof_to_json(_proven("(count != 11) |-> (count <= 15);"))
        for _ in range(3):
            proof_from_json(data)
        assert parsed == [data["assertion"]]

    def test_unparsable_stored_text_loads_without_assertion_every_time(self):
        import repro.core.store as store

        store._parse_stored.cache_clear()
        data = proof_to_json(_proven())
        data["assertion"] = "assert property (@(posedge clk) count |-> );"
        for _ in range(2):
            loaded = proof_from_json(data)
            assert loaded.assertion is None
            assert loaded.status is ProofStatus.PROVEN

    def test_outcome_round_trip(self):
        outcome = AssertionOutcome(
            design_name="counter",
            model_name="GPT-4o",
            k=5,
            raw_text="(count <= 15)",
            corrected_text="(count <= 15);",
            category=PASS,
            proof=_proven(),
            correction_applied=True,
        )
        loaded = outcome_from_json(outcome_to_json(outcome))
        assert loaded.design_name == "counter"
        assert loaded.model_name == "GPT-4o"
        assert loaded.k == 5
        assert loaded.category == PASS
        assert loaded.correction_applied
        assert loaded.proof.status is ProofStatus.PROVEN


class TestConfigHash:
    def test_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestPersistentVerdictCache:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        cache = PersistentVerdictCache(path)
        cache.put("counter:abc", "(count <= 15)", _proven())
        assert cache.stats()["entries"] == 1

        reopened = PersistentVerdictCache(path)
        assert reopened.loaded_entries == 1
        hit = reopened.get("counter:abc", "(count <= 15)")
        assert hit is not None and hit.status is ProofStatus.PROVEN
        assert reopened.stats()["hits"] == 1

    def test_normalises_whitespace_like_memory_cache(self, tmp_path):
        cache = PersistentVerdictCache(tmp_path / "v.jsonl")
        cache.put("d", "a   ==  1", _proven())
        reopened = PersistentVerdictCache(tmp_path / "v.jsonl")
        assert reopened.get("d", "a == 1") is not None

    def test_last_write_wins_on_replay(self, tmp_path):
        path = tmp_path / "v.jsonl"
        cache = PersistentVerdictCache(path)
        cache.put("d", "x", _proven())
        cache.put("d", "x", _cex())
        reopened = PersistentVerdictCache(path)
        assert reopened.get("d", "x").status is ProofStatus.CEX
        assert reopened.loaded_entries == 1

    def test_tolerates_torn_trailing_line(self, tmp_path):
        path = tmp_path / "v.jsonl"
        cache = PersistentVerdictCache(path)
        cache.put("d", "x", _proven())
        with path.open("a") as handle:
            handle.write('{"design": "d", "text": "y", "proof"')  # torn write
        reopened = PersistentVerdictCache(path)
        assert reopened.loaded_entries == 1
        assert reopened.get("d", "x") is not None

    @pytest.mark.parametrize(
        "record",
        [
            {"design": "d", "text": "y"},
            {"design": "d", "text": "y", "proof": {**proof_to_json(_proven()), "status": "bogus"}},
        ],
        ids=["missing-proof", "bogus-status"],
    )
    def test_skips_malformed_records(self, tmp_path, record):
        path = tmp_path / "v.jsonl"
        PersistentVerdictCache(path).put("d", "x", _proven())
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        reopened = PersistentVerdictCache(path)
        assert reopened.loaded_entries == len(reopened) == reopened.stats()["entries"] == 1
        assert reopened.get("d", "y") is None  # recomputed, not served
        assert reopened.get("d", "x") == _replayed(_proven())
        reopened.put("d", "y", _cex())
        assert PersistentVerdictCache(path).get("d", "y") == _replayed(_cex())

    def test_a_verdict_that_fails_to_parse_on_its_hit_is_recomputed(self, tmp_path):
        path = tmp_path / "v.jsonl"
        proof = {**proof_to_json(_cex()), "counterexample": {"cycles": [[1]]}}
        path.write_text(json.dumps({"design": "d", "text": "y", "proof": proof}) + "\n")
        cache = PersistentVerdictCache(path)
        assert len(cache) == 1  # indexed: only its status is checked on open
        assert cache.get("d", "y") is None
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 1}


def _replayed(proof: ProofResult) -> ProofResult:
    """``proof`` as the store gives it back (its assertion re-parsed)."""
    return proof_from_json(proof_to_json(proof))


def _counting_proof_parse(monkeypatch):
    parsed = []

    def counting(data):
        parsed.append(data)
        return proof_from_json(data)

    monkeypatch.setattr(store_module, "proof_from_json", counting)
    return parsed


class TestVerdictsParsedOnDemand:
    @pytest.fixture()
    def stored(self, tmp_path):
        path = tmp_path / "v.jsonl"
        cache = PersistentVerdictCache(path)
        cache.put_many([("d", "x", _proven()), ("d", "y", _cex()), ("e", "x", _proven())])
        cache.close()
        return path

    def test_unparsed_entries_are_counted(self, stored, monkeypatch):
        parsed = _counting_proof_parse(monkeypatch)
        cache = PersistentVerdictCache(stored)
        assert cache.loaded_entries == len(cache) == cache.stats()["entries"] == 3
        assert parsed == []
        cache.get("d", "y")
        assert len(parsed) == 1
        assert cache.loaded_entries == len(cache) == cache.stats()["entries"] == 3

    def test_hit_on_an_unparsed_entry_counts_as_a_hit(self, stored, monkeypatch):
        parsed = _counting_proof_parse(monkeypatch)
        cache = PersistentVerdictCache(stored)
        assert cache.get("d", "y") == _replayed(_cex())
        assert cache.get("d", "y") == _replayed(_cex())
        assert cache.get("d", "z") is None
        assert cache.stats() == {"entries": 3, "hits": 2, "misses": 1}
        assert len(parsed) == 1  # parsed on the first hit only

    def test_put_replaces_an_unparsed_line(self, stored, monkeypatch):
        parsed = _counting_proof_parse(monkeypatch)
        cache = PersistentVerdictCache(stored)
        cache.put("d", "x", _cex())
        cache.put_many([("e", "x", _cex())])
        assert len(cache) == 3
        assert cache.get("d", "x") == cache.get("e", "x") == _cex()
        assert parsed == []
        cache.close()
        reopened = PersistentVerdictCache(stored)
        assert reopened.loaded_entries == len(reopened) == 3
        assert reopened.get("d", "x") == reopened.get("e", "x") == _replayed(_cex())

    def test_threads_hitting_one_unparsed_key_agree(self, stored, monkeypatch):
        parsed = _counting_proof_parse(monkeypatch)
        cache = PersistentVerdictCache(stored)
        barrier = threading.Barrier(8)
        results = []

        def hit():
            barrier.wait(timeout=10)
            results.append(cache.get("d", "y"))

        threads = [threading.Thread(target=hit) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [_replayed(_cex())] * 8
        assert len(parsed) == 1  # one thread parsed it; the rest hit the parse
        assert cache.stats() == {"entries": 3, "hits": 8, "misses": 0}


def _outcomes(design, count, model="M", k=1):
    return [
        AssertionOutcome(
            design_name=design,
            model_name=model,
            k=k,
            raw_text=f"raw {index}",
            corrected_text=f"corrected {index}",
            category=PASS if index % 2 == 0 else CEX,
            proof=_proven() if index % 2 == 0 else _cex(),
        )
        for index in range(count)
    ]


class TestRunStore:
    def test_record_and_load_cell(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_cell("M", 1, "counter", _outcomes("counter", 3))
        assert set(store.completed_cells()) == {("M", 1, "counter")}
        loaded = store.load_cell("M", 1, "counter")
        assert [o.raw_text for o in loaded] == ["raw 0", "raw 1", "raw 2"]
        assert [o.category for o in loaded] == [PASS, CEX, PASS]

    def test_uncommitted_records_are_invisible(self, tmp_path):
        store = RunStore(tmp_path)
        # Simulate a crash between the outcome append and the commit marker.
        shard = store.shard_path("M", 1)
        with shard.open("a") as handle:
            handle.write(
                json.dumps(
                    {
                        "model": "M", "k": 1, "design": "counter",
                        "attempt": "dead-1", "idx": 0,
                        "outcome": outcome_to_json(_outcomes("counter", 1)[0]),
                    }
                )
                + "\n"
            )
        assert store.completed_cells() == {}
        assert store.load_cell("M", 1, "counter") is None

    def test_append_after_torn_tail_keeps_new_records_intact(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_cell("M", 1, "counter", _outcomes("counter", 2))
        store.close()
        # A crash tears the shard mid-record; the next process appends more.
        shard = store.shard_path("M", 1)
        with shard.open("a") as handle:
            handle.write('{"model": "M", "k": 1, "design": "arb2", "att')
        resumed = RunStore(tmp_path)
        resumed.record_cell("M", 1, "arb2", _outcomes("arb2", 2))
        # The torn line is dead, but neither committed cell lost a record.
        assert [o.raw_text for o in resumed.load_cell("M", 1, "counter")] == ["raw 0", "raw 1"]
        assert [o.raw_text for o in resumed.load_cell("M", 1, "arb2")] == ["raw 0", "raw 1"]

    def test_incremental_reads_see_records_from_other_store_instances(self, tmp_path):
        reader = RunStore(tmp_path)
        assert reader.completed_cells() == {}
        writer = RunStore(tmp_path)
        writer.record_cell("M", 1, "counter", _outcomes("counter", 2))
        assert set(reader.completed_cells()) == {("M", 1, "counter")}
        writer.record_cell("M", 1, "arb2", _outcomes("arb2", 1))
        assert len(reader.completed_cells()) == 2
        assert len(reader.load_cell("M", 1, "arb2")) == 1

    def test_loading_a_marker_twice_gives_equal_outcomes(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_cell("M", 1, "counter", _outcomes("counter", 3))
        marker = store.completed_cells()[("M", 1, "counter")]
        first = store.load_marked(marker)
        assert store.load_marked(marker) == first
        assert store.load_cell("M", 1, "counter") == first
        assert store.load_cell("M", 1, "counter") == first
        assert [outcome.proof for outcome in first] == [
            _replayed(outcome.proof) for outcome in _outcomes("counter", 3)
        ]

    def test_recommitted_cell_uses_latest_attempt(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_cell("M", 1, "counter", _outcomes("counter", 2))
        store.record_cell("M", 1, "counter", _outcomes("counter", 3))
        loaded = store.load_cell("M", 1, "counter")
        assert len(loaded) == 3

    def test_load_matrix_reassembles_cells(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_cell("M", 1, "counter", _outcomes("counter", 2))
        store.record_cell("M", 1, "arb2", _outcomes("arb2", 4))
        store.record_cell("M", 5, "counter", _outcomes("counter", 1, k=5))
        matrix = store.load_matrix()
        assert matrix.model_names == ["M"]
        assert matrix.k_values == [1, 5]
        assert matrix.get("M", 1).num_assertions == 6
        assert matrix.get("M", 5).num_assertions == 1

    def test_manifest_lifecycle_and_mismatch(self, tmp_path):
        store = RunStore(tmp_path)
        config = {"models": ["M"], "k_values": [1]}
        manifest = store.begin_run(config)
        assert manifest["status"] == "running"
        store.finish_run()
        assert store.read_manifest()["status"] == "complete"

        # Same config resumes; a different one is refused.
        again = RunStore(tmp_path)
        again.begin_run(config, resume_only=True)
        with pytest.raises(ResumeMismatchError):
            again.begin_run({"models": ["other"], "k_values": [1]})

    def test_resume_only_requires_manifest(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ResumeMismatchError):
            store.begin_run({"a": 1}, resume_only=True)

    def test_describe_summarises_run(self, tmp_path):
        store = RunStore(tmp_path)
        store.begin_run({"a": 1})
        store.record_cell("M", 1, "counter", _outcomes("counter", 2))
        summary = store.describe()
        assert summary["status"] == "running"
        assert summary["completed_cells"] == 1


def _cell(model, k, design, texts):
    """A cell's outcomes: each text passes unless it starts with ``!``."""
    return [
        AssertionOutcome(
            design_name=design,
            model_name=model,
            k=k,
            raw_text=text,
            corrected_text=text.lstrip("!"),
            category=CEX if text.startswith("!") else PASS,
            proof=_cex() if text.startswith("!") else _proven(),
        )
        for text in texts
    ]


class TestPassedAssertions:
    #: Cells in commit order, which differs from campaign order (models
    #: A then B, k 1 then 5, designs d1 then d2).  Equal texts up to
    #: whitespace keep the first committed spelling.
    COMMITS = [
        ("B", 1, "d2", ["b  ==  1", "!c == 0"]),
        ("A", 5, "d1", ["a ==  1", "z == 2"]),
        ("A", 1, "d2", ["b == 1", "y == 3"]),
        ("B", 1, "d1", ["a == 1"]),
        ("A", 1, "d1", ["x == 0", "a  == 1"]),
    ]

    def test_matrix_lists_equal_the_stored_lists_in_order(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        for model, k, design, texts in self.COMMITS:
            store.record_cell(model, k, design, _cell(model, k, design, texts))
        cells = {(model, k, design): texts for model, k, design, texts in self.COMMITS}
        # A cell whose batch failed is in the campaign matrix but uncommitted.
        cells[("B", 5, "d1")] = ["w == 9"]
        matrix = EvaluationMatrix()
        for model in ("A", "B"):
            for k in (1, 5):
                sweep = ModelKshotResult(model_name=model, k=k)
                for design in ("d1", "d2"):
                    texts = cells.get((model, k, design))
                    if texts is not None:
                        evaluation = DesignEvaluation(design_name=design)
                        evaluation.outcomes.extend(_cell(model, k, design, texts))
                        sweep.designs.append(evaluation)
                matrix.add(sweep)

        stored = MutationCampaign.passed_assertions(store.load_matrix())
        assert stored == {
            "d2": ["b  ==  1", "y == 3"],
            "d1": ["a == 1", "z == 2", "x == 0"],
        }
        assert list(stored) == ["d2", "d1"]
        loaded = []
        parse = store_module.outcome_from_json
        monkeypatch.setattr(
            store_module, "outcome_from_json", lambda data: loaded.append(data) or parse(data)
        )
        held = MutationCampaign.passed_assertions(store.load_matrix(matrix))
        assert held == stored
        assert list(held) == list(stored)
        assert loaded == []  # every committed cell came from the matrix
