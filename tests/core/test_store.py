"""Tests for the run-directory artifact store and persistent verdict cache."""

from __future__ import annotations

import json

import pytest

from repro.core import PersistentVerdictCache, ResumeMismatchError, RunStore, config_hash
from repro.core.metrics import CEX, PASS, AssertionOutcome
from repro.core.store import outcome_from_json, outcome_to_json, proof_from_json, proof_to_json
from repro.fpv.result import Counterexample, ProofResult, ProofStatus, error_result
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
