"""repro: reproduction of "Are LLMs Ready for Practical Adoption for Assertion
Generation?" (DATE 2025).

The package implements the paper's two contributions — the **AssertionBench**
benchmark/evaluation framework and the fine-tuned **AssertionLLM** generator —
together with every substrate they depend on, built from scratch:

* :mod:`repro.hdl`      — Verilog-subset frontend (lexer, parser, elaboration)
* :mod:`repro.sim`      — cycle-accurate simulator, stimulus, traces, VCD
* :mod:`repro.analysis` — CDFG / variable-dependency / cone-of-influence graphs
* :mod:`repro.sva`      — SystemVerilog Assertion subset, checker, corrector
* :mod:`repro.fpv`      — formal property verification engine (JasperGold substitute)
* :mod:`repro.mining`   — GoldMine/HARM-style assertion miners and ranking
* :mod:`repro.llm`      — prompts, simulated COTS LLMs, trainable AssertionLLM
* :mod:`repro.bench`    — the AssertionBench corpus registry and ICE construction
* :mod:`repro.mutate`   — mutation operators and kill-rate assertion scoring
* :mod:`repro.core`     — campaign runtime, run store, metrics, figure/table reports
* :mod:`repro.cli`      — ``python -m repro`` run / mutate / resume / report / list-corpora
"""

from . import analysis, bench, core, fpv, hdl, llm, mining, mutate, sim, sva

__version__ = "0.3.0"

__all__ = [
    "analysis",
    "bench",
    "core",
    "fpv",
    "hdl",
    "llm",
    "mining",
    "mutate",
    "sim",
    "sva",
    "__version__",
]
