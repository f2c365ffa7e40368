"""Shared fixtures: reference designs, corpus, and knowledge base.

Expensive artefacts (the corpus, mined assertion pools) are session-scoped so
the whole suite builds them once.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.bench import AssertionBenchCorpus, DesignKnowledgeBase, build_icl_examples
from repro.hdl import Design

# With ``CI`` set, every hypothesis test draws the same examples on every run,
# so a CI failure reproduces locally with ``CI=1``.  Example counts stay as
# each test sets them.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

ARB2_SOURCE = """
module arb2(clk, rst, req1, req2, gnt1, gnt2);
  input clk, rst, req1, req2;
  output gnt1, gnt2;
  reg gnt_;
  reg gnt1, gnt2;
  always @(posedge clk or posedge rst)
    if (rst)
      gnt_ <= 0;
    else
      gnt_ <= gnt1;
  always @(*)
    if (gnt_)
      begin
        gnt1 = req1 & ~req2;
        gnt2 = req2;
      end
    else
      begin
        gnt1 = req1;
        gnt2 = req2 & ~req1;
      end
endmodule
"""

COUNTER_SOURCE = """
module counter #(parameter WIDTH = 4) (
  input clk,
  input rst,
  input en,
  output reg [WIDTH-1:0] count
);
  always @(posedge clk or posedge rst) begin
    if (rst)
      count <= 0;
    else if (en)
      count <= count + 1;
  end
endmodule
"""

ADDER_SOURCE = """
module adder(a, b, sum, carry);
  input [3:0] a, b;
  output [3:0] sum;
  output carry;
  wire [4:0] total;
  assign total = a + b;
  assign sum = total[3:0];
  assign carry = total[4];
endmodule
"""


@pytest.fixture(scope="session")
def arb2_design() -> Design:
    return Design.from_source(ARB2_SOURCE, name="arb2")


@pytest.fixture(scope="session")
def counter_design() -> Design:
    return Design.from_source(COUNTER_SOURCE, name="counter")


@pytest.fixture(scope="session")
def adder_design() -> Design:
    return Design.from_source(ADDER_SOURCE, name="adder")


@pytest.fixture(scope="session")
def corpus() -> AssertionBenchCorpus:
    return AssertionBenchCorpus()


@pytest.fixture(scope="session")
def knowledge(corpus) -> DesignKnowledgeBase:
    return DesignKnowledgeBase()


@pytest.fixture(scope="session")
def icl_examples(corpus, knowledge):
    return build_icl_examples(corpus, knowledge)
