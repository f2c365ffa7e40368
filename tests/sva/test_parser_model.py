"""Unit tests for the SVA parser and assertion model."""

import pytest

from repro.hdl import Identifier, Number
from repro.llm.cots import _UNSUPPORTED_SVA_SNIPPETS
from repro.sva import (
    NON_OVERLAPPED,
    OVERLAPPED,
    Assertion,
    AssertionSignature,
    SequenceTerm,
    SvaSyntaxError,
    SvaUnsupportedError,
    deduplicate,
    parse_assertion,
    parse_assertions,
    split_assertion_lines,
)


class TestParsing:
    def test_simple_overlapped_implication(self):
        assertion = parse_assertion("(req1 == 1 && req2 == 0) |-> (gnt1 == 1);")
        assert assertion.implication == OVERLAPPED
        assert len(assertion.antecedent) == 2
        assert len(assertion.consequent) == 1
        assert assertion.signals() == {"req1", "req2", "gnt1"}

    def test_non_overlapped_implication(self):
        assertion = parse_assertion("(a == 1) |=> (b == 0);")
        assert assertion.implication == NON_OVERLAPPED

    def test_delay_offsets(self):
        assertion = parse_assertion("(a == 1) ##2 (b == 1) |-> ##1 (c == 1);")
        offsets = sorted(term.offset for term in assertion.antecedent)
        assert offsets == [0, 2]
        assert assertion.consequent[0].offset == 1

    def test_assert_property_wrapper_and_label(self):
        assertion = parse_assertion(
            "p_handshake: assert property (@(posedge clk) (req == 1) |=> (ack == 1));"
        )
        assert assertion.name == "p_handshake"
        assert assertion.clock == "clk"
        assert assertion.clock_edge == "posedge"

    def test_disable_iff(self):
        assertion = parse_assertion(
            "assert property (@(posedge clk) disable iff (rst) (a == 1) |-> (b == 1));"
        )
        assert assertion.disable_iff is not None
        assert "rst" in assertion.signals()

    def test_bare_boolean_becomes_invariant(self):
        assertion = parse_assertion("(count <= 15)")
        assert assertion.antecedent[0].expr == Number(1)
        assert len(assertion.consequent) == 1

    def test_unsupported_operator_rejected(self):
        with pytest.raises(SvaUnsupportedError):
            parse_assertion("s_eventually (a == 1);")
        with pytest.raises(SvaUnsupportedError):
            parse_assertion("(a == 1)[*3] |-> (b == 1);")
        with pytest.raises(SvaUnsupportedError):
            parse_assertion("(a == 1) WITHIN (b == 1)")

    @pytest.mark.parametrize(
        "text, signals",
        [
            ("data_within |-> ready", {"data_within", "ready"}),
            ("(THROUGHOUT_n == 1) |=> (s_until2 == 0)", {"THROUGHOUT_n", "s_until2"}),
        ],
    )
    def test_operator_name_inside_identifier_is_legal(self, text, signals):
        assert parse_assertion(text).signals() == signals

    @pytest.mark.parametrize("template", _UNSUPPORTED_SVA_SNIPPETS)
    def test_cots_unsupported_templates_rejected(self, template):
        with pytest.raises(SvaUnsupportedError):
            parse_assertion(template.format(sig="req", other="gnt"))

    def test_garbage_rejected(self):
        with pytest.raises(SvaSyntaxError):
            parse_assertion("this is not an assertion at all")

    def test_empty_text_rejected(self):
        with pytest.raises(SvaSyntaxError):
            parse_assertion("   ")

    def test_missing_consequent_rejected(self):
        with pytest.raises(SvaSyntaxError):
            parse_assertion("(a == 1) |-> ;")

    def test_missing_delay_count_rejected(self):
        with pytest.raises(SvaSyntaxError):
            parse_assertion("(a == 1) ## (b == 1) |-> (c == 1);")

    def test_parse_assertions_block_and_line_splitting(self):
        text = """
        // a comment line
        (a == 1) |-> (b == 1);
        (b == 0) |=> (c == 1);
        """
        assert len(split_assertion_lines(text)) == 2
        assertions = parse_assertions(text)
        assert len(assertions) == 2


class TestSemanticsModel:
    def test_consequent_shift_overlapped(self):
        assertion = parse_assertion("(a == 1) ##1 (b == 1) |-> (c == 1);")
        # |-> evaluates the consequent where the antecedent match ends
        assert assertion.consequent_shift == 1
        assert assertion.temporal_depth == 1

    def test_consequent_shift_non_overlapped(self):
        assertion = parse_assertion("(a == 1) ##1 (b == 1) |=> (c == 1);")
        assert assertion.consequent_shift == 2
        assert assertion.temporal_depth == 2

    def test_is_combinational(self):
        assert parse_assertion("(a == 1) |-> (b == 1);").is_combinational
        assert not parse_assertion("(a == 1) |=> (b == 1);").is_combinational

    def test_to_sva_round_trips(self):
        original = parse_assertion("(a == 1) ##1 (b == 0) |=> (c == 1);")
        reparsed = parse_assertion(original.to_sva())
        assert AssertionSignature.of(original) == AssertionSignature.of(reparsed)

    def test_simple_constructor(self):
        assertion = Assertion.simple(
            Identifier("a"), Identifier("b"), clock="clk", name="p1"
        )
        assert assertion.clock == "clk"
        assert "assert property" in assertion.to_sva()

    def test_invalid_implication_rejected(self):
        with pytest.raises(ValueError):
            Assertion(
                antecedent=[SequenceTerm(0, Identifier("a"))],
                consequent=[SequenceTerm(0, Identifier("b"))],
                implication="->",
            )

    def test_deduplicate(self):
        first = parse_assertion("(a == 1) |-> (b == 1);")
        second = parse_assertion("(a == 1) |-> (b == 1);")
        third = parse_assertion("(a == 0) |-> (b == 1);")
        unique = deduplicate([first, second, third])
        assert len(unique) == 2
