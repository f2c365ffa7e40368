"""Tests for the mutation operator library."""

from __future__ import annotations

import pytest

from repro.bench.corpus import get_corpus
from repro.hdl.design import Design
from repro.mutate import (
    apply_mutation,
    enumerate_mutants,
    mutation_sites,
    operator_names,
)
from repro.mutate.semantic import SemanticContext
from repro.sim import vector

_COUNTER = """\
module small_counter(clk, rst, en, count, wrap);
  input clk, rst, en;
  output [2:0] count;
  output wrap;
  reg [2:0] count;
  assign wrap = count == 7;
  always @(posedge clk or posedge rst)
    if (rst)
      count <= 0;
    else if (en)
      count <= count + 1;
endmodule
"""


@pytest.fixture()
def counter():
    return Design.from_source(_COUNTER, category="sequential")


class TestSiteEnumeration:
    def test_sites_are_deterministic(self, counter):
        assert mutation_sites(counter) == mutation_sites(counter)

    def test_every_default_operator_finds_a_site(self, counter):
        present = {site.operator for site in mutation_sites(counter)}
        assert present == set(operator_names())

    def test_unknown_operator_is_rejected(self, counter):
        with pytest.raises(KeyError, match="unknown mutation operator"):
            mutation_sites(counter, ["not-an-operator"])

    def test_operator_subset_restricts_sites(self, counter):
        sites = mutation_sites(counter, ["reset-flip"])
        assert len(sites) == 1
        assert sites[0].operator == "reset-flip"
        assert "flip reset polarity" in sites[0].description

    def test_enumeration_leaves_the_golden_ast_untouched(self, counter):
        from repro.hdl import ast as hdl_ast

        assign = counter.module.items_of(hdl_ast.ContinuousAssign)[0]
        always = counter.module.items_of(hdl_ast.AlwaysBlock)[0]
        before = (id(assign.value), id(always.body.condition))
        mutation_sites(counter)
        enumerate_mutants(counter, limit=3)
        assert (id(assign.value), id(always.body.condition)) == before


class TestApplyMutation:
    def test_bin_swap_changes_the_operator(self, counter):
        sites = mutation_sites(counter, ["bin-swap"])
        swap = next(s for s in sites if "'=='" in s.description)
        mutant = apply_mutation(counter, "bin-swap", swap.index)
        assert "count != 7" in mutant.source

    def test_reset_flip_negates_the_guard(self, counter):
        mutant = apply_mutation(counter, "reset-flip", 0)
        assert "if ((!rst))" in mutant.source

    def test_stuck_driver_freezes_the_assign(self, counter):
        sites = mutation_sites(counter, ["stuck-driver"])
        wrap_site = next(s for s in sites if "wrap" in s.description)
        mutant = apply_mutation(counter, "stuck-driver", wrap_site.index)
        assert "assign wrap = " in mutant.source
        assert "count == 7" not in mutant.source

    def test_mutants_are_content_addressed(self, counter):
        golden_fp = counter.fingerprint
        seen = {golden_fp}
        for site in mutation_sites(counter)[:8]:
            mutant = apply_mutation(counter, site.operator, site.index)
            fp = mutant.fingerprint
            assert fp not in seen, "mutant fingerprint collides"
            seen.add(fp)
            again = apply_mutation(counter, site.operator, site.index)
            assert again.fingerprint == fp

    def test_out_of_range_site_raises(self, counter):
        with pytest.raises(IndexError):
            apply_mutation(counter, "reset-flip", 99)

    def test_width_one_literals_mutate_once(self):
        # +1 and -1 wrap to the same value on a 1-bit literal; emitting both
        # would double-count the identical mutant in every kill tally.
        design = Design.from_source(
            "module m(a, y);\n  input a;\n  output y;\n"
            "  assign y = a ^ 1'b1;\nendmodule\n"
        )
        sites = mutation_sites(design, ["const-offset"])
        assert len(sites) == 1
        fingerprints = {
            apply_mutation(design, s.operator, s.index).fingerprint
            for s in sites
        }
        assert len(fingerprints) == len(sites)


class TestEnumerateMutants:
    def test_all_mutants_carry_witnesses(self, counter):
        mutants, stats = enumerate_mutants(counter)
        assert stats.viable == len(mutants) > 0
        assert all(m.witness is not None for m in mutants)
        assert stats.stillborn + stats.equivalent + stats.viable + stats.truncated == stats.sites

    def test_limit_caps_round_robin_across_operators(self, counter):
        mutants, stats = enumerate_mutants(counter, limit=5)
        assert len(mutants) == 5
        assert stats.truncated > 0
        assert len({m.operator for m in mutants}) >= 3

    def test_semantic_filter_can_be_disabled(self, counter):
        unfiltered, _ = enumerate_mutants(counter, semantic_filter=False, limit=4)
        assert all(m.witness is None for m in unfiltered)

    def test_mutant_ids_are_stable_addresses(self, counter):
        mutants, _ = enumerate_mutants(counter, limit=6)
        for mutant in mutants:
            rebuilt = apply_mutation(counter, mutant.operator, mutant.site)
            assert rebuilt.source == mutant.design.source
            assert mutant.mutant_id == f"{mutant.operator}@{mutant.site}"


class TestSemanticRouting:
    """The lockstep filter batches only where ``batch_simulation_pays``."""

    @pytest.mark.parametrize(
        "name, batched",
        [("wide_accum96", False), ("wide_cmp80", True), ("decoder64", False)],
    )
    def test_differences_match_per_candidate(self, monkeypatch, name, batched):
        """``decoder64`` is multi-limb with a reachable space small enough to
        sweep, so its candidates are compared on the sweep, not on traces
        (and every one of them differs)."""
        corpus = "assertionbench" if name == "decoder64" else "assertionbench-wide"
        design = get_corpus(corpus).design(name)
        candidates, _ = enumerate_mutants(design, semantic_filter=False, limit=10)
        mutants = [candidate.design for candidate in candidates]
        calls = []
        family_simulate = vector._FamilyMixin.family_simulate

        def counting(self, members, stimuli, cycles):
            calls.append(len(members))
            return family_simulate(self, members, stimuli, cycles)

        monkeypatch.setattr(vector._FamilyMixin, "family_simulate", counting)
        batch = SemanticContext(design).differences(mutants)
        assert bool(calls) is batched
        reference = SemanticContext(design)
        assert batch == [reference.difference(mutant) for mutant in mutants]
        assert any(witness is not None for witness in batch)
        if name == "decoder64":
            assert {witness.method for witness in batch} == {"state-sweep"}
        else:
            # Both outcomes occur: witnesses and equivalent candidates.
            assert None in batch

    @pytest.mark.parametrize("name, lowered", [("wide_accum96", 0), ("wide_cmp80", 1)])
    def test_stepped_wave_lowers_no_family_off_soa(self, monkeypatch, name, lowered):
        """Stepped batches pay only on SoA, and no design with a signal too
        wide for int64 lowers to SoA: a sequential wide wave is refused from
        the model without lowering a family kernel.  A cycle-independent
        design batches on any plan, so its wave still lowers one."""
        design = get_corpus("assertionbench-wide").design(name)
        candidates, _ = enumerate_mutants(design, semantic_filter=False, limit=10)
        calls = []
        lower_family = vector.lower_family

        def counting(golden, mutants):
            calls.append(len(mutants))
            return lower_family(golden, mutants)

        monkeypatch.setattr(vector, "lower_family", counting)
        SemanticContext(design).differences([candidate.design for candidate in candidates])
        assert len(calls) == lowered
