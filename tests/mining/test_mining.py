"""Unit and integration tests for the assertion miners and ranking."""

import pytest

from repro.fpv import FormalEngine, ProofStatus, TraceChecker
from repro.mining import (
    AssertionMiner,
    AssertionRanker,
    Atom,
    GoldMineConfig,
    GoldMineMiner,
    HarmConfig,
    HarmMiner,
    MinerConfig,
    candidate_atoms,
    mine_verified_assertions,
    mining_targets,
    trace_atoms,
)
from repro.sim import Simulator, Trace


@pytest.fixture(scope="module")
def arb2_trace(arb2_design):
    return Simulator(arb2_design).run(cycles=300, seed=7)


class TestDataset:
    def test_candidate_atoms_single_bit(self, arb2_design):
        atoms = candidate_atoms(arb2_design, "req1")
        assert {(a.signal, a.value) for a in atoms} == {("req1", 0), ("req1", 1)}

    def test_candidate_atoms_wide_signal_uses_bits(self, corpus):
        design = corpus.design("counter16")
        atoms = candidate_atoms(design, "count")
        assert all(atom.bit is not None for atom in atoms)

    def test_trace_atoms_restricted_to_observed(self, arb2_design, arb2_trace):
        atoms = trace_atoms(arb2_design, "gnt_", arb2_trace)
        assert {a.value for a in atoms} <= {0, 1}

    def test_atom_expression(self):
        assert str(Atom("sig", 1).expr()) == "(sig == 1)"
        assert str(Atom("bus", 1, bit=2).expr()) == "(bus[2] == 1)"

    def test_atom_column_counts_cycles_where_it_holds(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        atom = Atom("gnt1", 1)
        column = checker.column(atom.expr(), arb2_trace)
        holds = [value == 1 for value in arb2_trace.column("gnt1")]
        assert column.bit_count() == sum(holds)
        assert 0 < column.bit_count() < arb2_trace.num_cycles
        assert column == sum(1 << cycle for cycle, bit in enumerate(holds) if bit)
        empty = Trace(signals=list(arb2_design.model.signals))
        assert checker.column(atom.expr(), empty) == 0

    def test_delayed_label_has_one_row_fewer(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        label = checker.column(Atom("gnt_", 1).expr(), arb2_trace) >> 1
        rows = arb2_trace.num_cycles - 1
        assert label.bit_length() <= rows
        assert label == sum(
            1 << cycle
            for cycle in range(rows)
            if arb2_trace.value("gnt_", cycle + 1) == 1
        )

    def test_bit_atoms_on_wide_signals(self, corpus):
        design = corpus.design("counter16")
        model = design.model
        trace = Trace(signals=list(model.signals))
        for cycle in range(64):
            row = {name: 0 for name in model.signals}
            row["count"] = (cycle * 2741) & model.signals["count"].mask
            trace.append(row)
        checker = TraceChecker(design.model)
        atoms = trace_atoms(design, "count", trace)
        assert atoms and all(atom.bit is not None for atom in atoms)
        for atom in atoms:
            column = checker.column(atom.expr(), trace)
            expected = [
                (value >> atom.bit) & 1 == atom.value for value in trace.column("count")
            ]
            assert column.bit_count() == sum(expected)

    def test_mining_targets_order(self, arb2_design):
        targets = mining_targets(arb2_design)
        assert targets[0] in ("gnt1", "gnt2")
        assert "gnt_" in targets


class TestGoldMine:
    def test_mines_candidates_for_arbiter(self, arb2_design, arb2_trace):
        candidates = GoldMineMiner(arb2_design).mine(arb2_trace)
        assert candidates
        rendered = [c.body_text() for c in candidates]
        assert any("gnt1" in text for text in rendered)

    def test_candidates_hold_on_the_mining_trace(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        for candidate in GoldMineMiner(arb2_design).mine(arb2_trace)[:10]:
            assert checker.check(candidate, arb2_trace).holds

    def test_max_depth_limits_antecedent_size(self, arb2_design, arb2_trace):
        config = GoldMineConfig(max_depth=1)
        for candidate in GoldMineMiner(arb2_design, config).mine(arb2_trace):
            assert len(candidate.antecedent) <= 1


class TestHarm:
    def test_mines_supported_templates(self, arb2_design, arb2_trace):
        candidates = HarmMiner(arb2_design).mine(arb2_trace)
        assert candidates
        sources = {c.source_text for c in candidates}
        assert any(s.startswith("harm:") for s in sources)

    def test_min_support_filters_rare_antecedents(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        config = HarmConfig(min_support=20)
        for candidate in HarmMiner(arb2_design, config).mine(arb2_trace):
            assert checker.check(candidate, arb2_trace).triggers >= 20


class TestRanking:
    def test_ranking_orders_by_score(self, arb2_design, arb2_trace):
        miner = HarmMiner(arb2_design)
        ranked = AssertionRanker(arb2_design).rank(miner.mine(arb2_trace), arb2_trace)
        scores = [item.score for item in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_top_selects_requested_count(self, arb2_design, arb2_trace):
        candidates = HarmMiner(arb2_design).mine(arb2_trace)
        top = AssertionRanker(arb2_design).top(candidates, arb2_trace, 3)
        assert len(top) == min(3, len(candidates))


class TestEndToEndMiner:
    def test_miner_produces_verified_assertions(self, arb2_design):
        report = AssertionMiner(arb2_design).mine()
        assert report.num_candidates > 0
        assert 0 < report.num_verified <= report.num_candidates
        assert len(report.selected) <= MinerConfig().max_assertions

    def test_selected_assertions_are_actually_proven(self, arb2_design):
        engine = FormalEngine(arb2_design)
        for assertion in mine_verified_assertions(arb2_design)[:6]:
            assert engine.check(assertion).status is ProofStatus.PROVEN

    def test_verification_can_be_disabled(self, arb2_design):
        config = MinerConfig(verify=False)
        report = AssertionMiner(arb2_design, config).mine()
        assert report.proof_results == []
        assert report.verified == report.candidates
