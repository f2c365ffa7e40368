"""AssertionBench design corpus and the pluggable corpus registry.

The paper's benchmark (Section III) has a training set of five fundamental
designs (Arbiter, Half Adder, Full Adder, T flip-flop, Full Subtractor) whose
formally verified assertions seed the in-context examples, and a test set of
100 OpenCores designs, split between combinational and sequential, spanning
10 to ~1150 lines of code and covering communication controllers, RNGs for
security hardware, arithmetic datapaths, state machines, and flow-control
hardware.  This module assembles an equivalent corpus from the synthesizable
builders in :mod:`repro.bench.designs` (the substitution is documented in
DESIGN.md).

Corpora are looked up by name through the module-level registry
(:func:`register_corpus` / :func:`get_corpus` / :func:`list_corpora`), so
campaigns, the CLI, and tests all agree on what "assertionbench" or
"assertionbench-smoke" means.  Design construction is memoized process-wide:
a builder's source text is synthesized once per spec, and the parsed +
elaborated :class:`~repro.hdl.design.Design` is cached by source hash, so
building a second corpus instance (another suite, another evaluator, a
benchmark fixture) costs dictionary lookups instead of re-elaboration.

For multi-process campaigns a corpus can be split by design with
:meth:`AssertionBenchCorpus.shard`: shard *i of n* keeps every *n*-th test
design (training designs are replicated into every shard because every
worker needs the ICE pool).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..hdl.design import Design, source_fingerprint
from .designs import arithmetic, basic, comm, fsm, memory, sequential, wide


@dataclass(frozen=True)
class CorpusSpec:
    """Recipe for one corpus design."""

    name: str
    category: str
    functionality: str
    builder: Callable[[], str]
    split: str = "test"


def _spec(name, category, functionality, builder, split="test") -> CorpusSpec:
    return CorpusSpec(name, category, functionality, builder, split)


#: The five training designs (Section III of the paper).
TRAINING_SPECS: List[CorpusSpec] = [
    _spec("arb2", "arbitration", "2-port arbiter", basic.arb2, "train"),
    _spec("half_adder", "arithmetic", "Half adder", basic.half_adder, "train"),
    _spec("full_adder", "arithmetic", "Full adder", basic.full_adder, "train"),
    _spec("t_flip_flop", "storage", "T flip-flop", basic.t_flip_flop, "train"),
    _spec("full_subtractor", "arithmetic", "Full subtractor", basic.full_subtractor, "train"),
]


#: The 100 test designs, ordered roughly by category.
TEST_SPECS: List[CorpusSpec] = [
    # -- small combinational blocks -------------------------------------------------
    _spec("d_flip_flop", "storage", "D flip-flop with enable", basic.d_flip_flop),
    _spec("mux4_w2", "datapath", "4-to-1 multiplexer, 2-bit", partial(basic.mux4, 2)),
    _spec("mux4_w8", "datapath", "4-to-1 multiplexer, 8-bit", partial(basic.mux4, 8)),
    _spec("decoder4", "datapath", "2-to-4 decoder", partial(basic.decoder, 2)),
    _spec("decoder8", "datapath", "3-to-8 decoder", partial(basic.decoder, 3)),
    _spec("decoder16", "datapath", "4-to-16 decoder", partial(basic.decoder, 4)),
    _spec("priority_encoder4", "datapath", "4-line priority encoder", partial(basic.priority_encoder, 2)),
    _spec("priority_encoder8", "datapath", "8-line priority encoder", partial(basic.priority_encoder, 3)),
    _spec("comparator8", "datapath", "8-bit magnitude comparator", partial(basic.comparator, 8)),
    _spec("parity_gen8", "coding", "8-bit parity generator", partial(basic.parity_generator, 8)),
    _spec("gray_encoder4", "coding", "4-bit binary-to-Gray encoder", partial(basic.gray_encoder, 4)),
    _spec("inputReg", "storage", "Registered input stage", partial(basic.input_register, 8)),
    _spec("bitNegator", "datapath", "Registered bitwise negator", partial(basic.bit_negator, 8)),
    _spec("clean_rst", "infrastructure", "Reset synchroniser", basic.clean_reset),
    _spec("tcReset", "infrastructure", "Terminal-count reset generator", basic.tc_reset),
    # -- arithmetic datapaths ----------------------------------------------------------
    _spec("rca4", "arithmetic", "4-bit ripple-carry adder", partial(arithmetic.ripple_carry_adder, 4)),
    _spec("rca8", "arithmetic", "8-bit ripple-carry adder", partial(arithmetic.ripple_carry_adder, 8)),
    _spec("rca16", "arithmetic", "16-bit ripple-carry adder", partial(arithmetic.ripple_carry_adder, 16)),
    _spec("rca32", "arithmetic", "32-bit ripple-carry adder", partial(arithmetic.ripple_carry_adder, 32)),
    _spec("csel_adder8", "arithmetic", "8-bit carry-select adder", partial(arithmetic.carry_select_adder, 8)),
    _spec("csel_adder16", "arithmetic", "16-bit carry-select adder", partial(arithmetic.carry_select_adder, 16)),
    _spec("alu4", "arithmetic", "4-bit ALU", partial(arithmetic.alu, 4)),
    _spec("alu8", "arithmetic", "8-bit ALU", partial(arithmetic.alu, 8)),
    _spec("alu16", "arithmetic", "16-bit ALU", partial(arithmetic.alu, 16)),
    _spec("qadd", "arithmetic", "Fixed-point saturating adder", partial(arithmetic.qadd, 16)),
    _spec("multiplier4", "arithmetic", "4-bit shift-add multiplier", partial(arithmetic.shift_add_multiplier, 4)),
    _spec("multiplier8", "arithmetic", "8-bit shift-add multiplier", partial(arithmetic.shift_add_multiplier, 8)),
    _spec("barrel_shifter8", "datapath", "8-bit barrel shifter", partial(arithmetic.barrel_shifter, 8)),
    _spec("barrel_shifter16", "datapath", "16-bit barrel shifter", partial(arithmetic.barrel_shifter, 16)),
    _spec("barrel_shifter32", "datapath", "32-bit barrel shifter", partial(arithmetic.barrel_shifter, 32)),
    _spec("sat_accum8", "arithmetic", "Saturating accumulator, 8-bit", partial(arithmetic.saturating_accumulator, 8)),
    _spec("abs_diff8", "arithmetic", "Absolute difference unit", partial(arithmetic.abs_diff, 8)),
    _spec("mtx_trps_4x4", "dsp", "4x4 matrix transpose", partial(arithmetic.matrix_transpose, 4, 4)),
    _spec("mtx_trps_8x8_dpsra", "dsp", "8x8 matrix transpose", partial(arithmetic.matrix_transpose, 8, 4)),
    _spec("fht_1d_x8", "dsp", "8-point fast Hartley transform stage", partial(arithmetic.fht_butterfly, 8, 8)),
    _spec("fht_1d_x16", "dsp", "16-point fast Hartley transform stage", partial(arithmetic.fht_butterfly, 16, 8)),
    # -- counters, shift registers, RNGs ---------------------------------------------------
    _spec("counter", "sequential", "4-bit up counter", partial(sequential.up_counter, 4)),
    _spec("counter8", "sequential", "8-bit up counter", partial(sequential.up_counter, 8)),
    _spec("counter16", "sequential", "16-bit up counter", partial(sequential.up_counter, 16)),
    _spec("updown_counter4", "sequential", "4-bit up/down counter", partial(sequential.up_down_counter, 4)),
    _spec("mod10_counter", "sequential", "Decade counter", partial(sequential.mod_counter, 10, 4)),
    _spec("mod6_counter", "sequential", "Modulo-6 counter", partial(sequential.mod_counter, 6, 3)),
    _spec("gray_counter4", "sequential", "4-bit Gray-code counter", partial(sequential.gray_counter, 4)),
    _spec("gray_counter6", "sequential", "6-bit Gray-code counter", partial(sequential.gray_counter, 6)),
    _spec("shift_reg8", "sequential", "8-stage shift register", partial(sequential.shift_register, 8)),
    _spec("shift_reg16", "sequential", "16-stage shift register", partial(sequential.shift_register, 16)),
    _spec("shift_reg32", "sequential", "32-stage shift register", partial(sequential.shift_register, 32)),
    _spec("lfsr8", "security", "8-bit LFSR random number generator", partial(sequential.lfsr, 8)),
    _spec("lfsr16", "security", "16-bit LFSR random number generator", partial(sequential.lfsr, 16)),
    _spec("prng_small", "security", "4-bank pattern generator", partial(sequential.prng_bank, 4, 8)),
    _spec("ca_prng", "security", "Compact pattern generator", partial(sequential.prng_bank, 32, 28)),
    _spec("eth_clockgen", "infrastructure", "Programmable clock divider", partial(sequential.clock_divider, 3)),
    _spec("pwm4", "control", "4-bit pulse-width modulator", partial(sequential.pwm_generator, 4)),
    _spec("watchdog4", "control", "4-bit watchdog timer", partial(sequential.watchdog_timer, 4)),
    _spec("debouncer3", "control", "Switch debouncer", partial(sequential.debouncer, 3)),
    _spec("reg_int_sim", "control", "Interrupt status register", partial(sequential.register_with_interrupt, 8)),
    _spec("phasecomparator", "mixed-signal", "Phase/frequency comparator", sequential.phase_comparator),
    # -- finite state machines -------------------------------------------------------------
    _spec("seq_detect_1011", "fsm", "Sequence detector for 1011", partial(fsm.sequence_detector, "1011")),
    _spec("seq_detect_110", "fsm", "Sequence detector for 110", partial(fsm.sequence_detector, "110")),
    _spec("seq_detect_10110", "fsm", "Sequence detector for 10110", partial(fsm.sequence_detector, "10110")),
    _spec("traffic_light", "fsm", "Traffic light controller", fsm.traffic_light),
    _spec("vending_machine", "fsm", "Vending machine controller", fsm.vending_machine),
    _spec("handshake_ctrl", "fsm", "Four-phase handshake controller", fsm.handshake_controller),
    _spec("uart_tx", "communication", "UART transmitter", partial(fsm.uart_tx, 8)),
    _spec("rxStateMachine", "communication", "Serial receiver state machine", partial(fsm.rx_state_machine, 8)),
    _spec("mem_ctrl_fsm", "fsm", "SRAM controller FSM", fsm.memory_controller_fsm),
    _spec("elevator4", "fsm", "4-floor elevator controller", partial(fsm.elevator_controller, 4)),
    _spec("flow_ctrl", "flow-control", "Credit-based flow controller", partial(fsm.flow_control, 4)),
    _spec("crc_control_unit", "communication", "CRC datapath control unit", fsm.crc_control_unit),
    # -- coding and communication ------------------------------------------------------------
    _spec("crc5_gen", "communication", "CRC-5 generator", partial(comm.crc_generator, 5, 4)),
    _spec("crc8_gen", "communication", "CRC-8 generator", partial(comm.crc_generator, 8, 8)),
    _spec("crc16_gen", "communication", "CRC-16 generator", partial(comm.crc_generator, 16, 8)),
    _spec("crc32_gen", "communication", "CRC-32 generator", partial(comm.crc_generator, 32, 8)),
    _spec("can_crc", "communication", "CAN bus CRC-15", comm.can_crc),
    _spec("eth_l3_checksum", "communication", "Ones-complement checksum", partial(comm.checksum_unit, 8)),
    _spec("hamming_encoder", "coding", "Hamming(7,4) encoder", comm.hamming_encoder),
    _spec("hamming_decoder", "coding", "Hamming(7,4) decoder", comm.hamming_decoder),
    _spec("scrambler7", "coding", "Self-synchronising scrambler", partial(comm.scrambler, 7)),
    _spec("manchester_encoder", "coding", "Manchester encoder", comm.manchester_encoder),
    _spec("MAC_tx_Ctrl", "communication", "Ethernet MAC transmit controller", comm.mac_tx_ctrl),
    _spec("ge_1000baseX_rx", "communication", "1000BASE-X PCS receive synchroniser", comm.ge_1000basex_rx),
    _spec("PSGBusArb", "arbitration", "Fixed-priority bus arbiter", partial(comm.bus_arbiter, 4)),
    _spec("PSGOutputSummer", "dsp", "Registered channel summer", partial(comm.output_summer, 3, 8)),
    _spec("cavlc_read_total_coeffs", "video", "Video encoder coefficient table", partial(comm.cavlc_coeff_table, 16, 64)),
    _spec("cavlc_read_total_zeros", "video", "Video encoder total-zeros table", comm.cavlc_zeros_table),
    _spec("key_expander", "security", "Block-cipher key schedule", partial(comm.key_expander, 16, 4)),
    _spec("can_register_asyn_syn", "communication", "CAN register with set/clear", comm.can_register_async),
    # -- storage and interconnect ----------------------------------------------------------------
    _spec("fifo_mem", "storage", "Synchronous FIFO", partial(memory.fifo_mem, 4, 4)),
    _spec("fifo_mem8", "storage", "Synchronous FIFO, 8 deep", partial(memory.fifo_mem, 8, 8)),
    _spec("eth_fifo", "storage", "FIFO with status flags", partial(memory.eth_fifo, 4, 8)),
    _spec("stack_lifo", "storage", "LIFO stack", partial(memory.stack, 4, 4)),
    _spec("register_file", "storage", "Register file, 2R1W", partial(memory.register_file, 4, 4)),
    _spec("rr_arbiter4", "arbitration", "Round-robin arbiter, 4 ports", partial(memory.round_robin_arbiter, 4)),
    _spec("node", "network-on-chip", "Mesh router node", partial(memory.noc_node, 4)),
    _spec("decoder64", "datapath", "6-to-64 decoder", partial(basic.decoder, 6)),
    _spec("mtx_trps_12x12", "dsp", "12x12 matrix transpose", partial(arithmetic.matrix_transpose, 12, 4)),
    _spec("ge_prng_mid", "security", "16-bank pattern generator", partial(sequential.prng_bank, 16, 16)),
    _spec("cavlc_read_levels", "video", "Video encoder level decode table", partial(comm.cavlc_coeff_table, 16, 16)),
    _spec("register_file16", "storage", "Register file, 16 entries", partial(memory.register_file, 16, 8)),
    _spec("sync2", "infrastructure", "2-stage synchroniser", partial(memory.synchronizer, 2, 1)),
]


# ---------------------------------------------------------------------------
# Memoized design construction
# ---------------------------------------------------------------------------

#: Builder output per spec: synthesizing source is cheap but not free, and
#: every corpus instance shares the module-level spec lists, so one synthesis
#: per spec serves the whole process.  Keyed by the (frozen, hashable) spec
#: itself — an id() key could be recycled by the allocator after a custom
#: spec is garbage-collected and silently serve the wrong source.
_SOURCE_CACHE: Dict[CorpusSpec, str] = {}
#: Parsed + elaborated designs keyed by (source hash, identity fields).  Two
#: corpus instances (or two differently-named corpora sharing a builder)
#: reuse one elaboration as long as the source and metadata agree.
_DESIGN_CACHE: Dict[Tuple[str, str, str, str], Design] = {}
_BUILD_LOCK = threading.Lock()


def build_design(spec: CorpusSpec) -> Design:
    """Synthesize, parse, and elaborate one spec, memoized process-wide."""
    with _BUILD_LOCK:
        source = _SOURCE_CACHE.get(spec)
    if source is None:
        source = spec.builder()
        with _BUILD_LOCK:
            _SOURCE_CACHE[spec] = source
    key = (source_fingerprint(source), spec.name, spec.functionality, spec.category)
    with _BUILD_LOCK:
        design = _DESIGN_CACHE.get(key)
    if design is None:
        design = Design.from_source(
            source,
            name=spec.name,
            functionality=spec.functionality,
            category=spec.category,
        )
        with _BUILD_LOCK:
            design = _DESIGN_CACHE.setdefault(key, design)
    return design


def build_cache_stats() -> Dict[str, int]:
    """Sizes of the process-wide memoization tables (for tests/diagnostics)."""
    with _BUILD_LOCK:
        return {"sources": len(_SOURCE_CACHE), "designs": len(_DESIGN_CACHE)}


class AssertionBenchCorpus:
    """Lazily built collection of the benchmark's designs.

    Designs are built on first access and memoized process-wide (see
    :func:`build_design`), so constructing many corpus instances does not
    re-synthesize or re-elaborate identical source.
    """

    def __init__(self, specs: Optional[Sequence[CorpusSpec]] = None):
        self._specs: List[CorpusSpec] = list(specs) if specs is not None else (
            TRAINING_SPECS + TEST_SPECS
        )
        self._by_name: Dict[str, CorpusSpec] = {spec.name: spec for spec in self._specs}

    # -- access --------------------------------------------------------------------

    @property
    def specs(self) -> List[CorpusSpec]:
        return list(self._specs)

    def names(self, split: Optional[str] = None) -> List[str]:
        return [spec.name for spec in self._specs if split is None or spec.split == split]

    def design(self, name: str) -> Design:
        """Build (or fetch from the process-wide cache) one design by name."""
        spec = self._by_name.get(name)
        if spec is None:
            raise KeyError(f"no corpus design named {name!r}")
        return build_design(spec)

    def training_designs(self) -> List[Design]:
        """The five training designs used for ICE construction."""
        return [self.design(spec.name) for spec in self._specs if spec.split == "train"]

    def test_designs(self, limit: Optional[int] = None) -> List[Design]:
        """The test designs, optionally truncated to the first ``limit``."""
        names = [spec.name for spec in self._specs if spec.split == "test"]
        if limit is not None:
            names = names[:limit]
        return [self.design(name) for name in names]

    def all_designs(self) -> List[Design]:
        return [self.design(spec.name) for spec in self._specs]

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return (self.design(spec.name) for spec in self._specs)

    # -- sharding ---------------------------------------------------------------------

    def shard(self, index: int, count: int) -> "AssertionBenchCorpus":
        """Shard ``index`` of ``count``: every ``count``-th test design.

        Training designs are replicated into every shard (each worker needs
        the full ICE pool); test designs are dealt round-robin so shard sizes
        differ by at most one and the union of all shards is the full corpus.
        """
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} outside [0, {count})")
        train = [spec for spec in self._specs if spec.split == "train"]
        test = [spec for spec in self._specs if spec.split == "test"]
        return AssertionBenchCorpus(train + test[index::count])

    # -- reports ---------------------------------------------------------------------

    def loc_by_design(self, split: str = "test") -> Dict[str, int]:
        """Design name -> lines of code (Figure 3 data)."""
        return {design.name: design.loc for design in self._iter_split(split)}

    def representative_designs(self, count: int = 5) -> List[Design]:
        """The ``count`` largest test designs (Table I rows)."""
        designs = sorted(self._iter_split("test"), key=lambda d: -d.loc)
        return designs[:count]

    def split_counts(self) -> Dict[str, int]:
        """Number of combinational vs sequential designs in the test set."""
        counts = {"combinational": 0, "sequential": 0}
        for design in self._iter_split("test"):
            counts[design.design_type] += 1
        return counts

    def _iter_split(self, split: str):
        for spec in self._specs:
            if spec.split == split:
                yield self.design(spec.name)


# ---------------------------------------------------------------------------
# The corpus registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    """One registered corpus: a named, lazily-invoked factory."""

    name: str
    factory: Callable[[], AssertionBenchCorpus]
    description: str = ""


class CorpusRegistry:
    """Name -> corpus factory mapping shared by campaigns, CLI, and tests."""

    def __init__(self):
        self._entries: Dict[str, CorpusEntry] = {}
        self._lock = threading.Lock()

    def register(
        self,
        name: str,
        factory: Callable[[], AssertionBenchCorpus],
        description: str = "",
        replace: bool = False,
    ) -> None:
        with self._lock:
            if name in self._entries and not replace:
                raise ValueError(f"corpus {name!r} is already registered")
            self._entries[name] = CorpusEntry(name, factory, description)

    def get(
        self, name: str, shard: Optional[Tuple[int, int]] = None
    ) -> AssertionBenchCorpus:
        """Build the named corpus, optionally sharded as ``(index, count)``."""
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(sorted(self._entries))
            raise KeyError(f"no corpus named {name!r} (registered: {known})")
        corpus = entry.factory()
        if shard is not None:
            corpus = corpus.shard(*shard)
        return corpus

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> List[CorpusEntry]:
        with self._lock:
            return [self._entries[name] for name in sorted(self._entries)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries


#: The process-wide registry.  Module-level helpers below are the public API.
CORPUS_REGISTRY = CorpusRegistry()

DEFAULT_CORPUS = "assertionbench"
SMOKE_CORPUS = "assertionbench-smoke"


def register_corpus(
    name: str,
    factory: Callable[[], AssertionBenchCorpus],
    description: str = "",
    replace: bool = False,
) -> None:
    """Register a corpus factory under ``name`` in the process-wide registry."""
    CORPUS_REGISTRY.register(name, factory, description, replace=replace)


def get_corpus(
    name: str = DEFAULT_CORPUS, shard: Optional[Tuple[int, int]] = None
) -> AssertionBenchCorpus:
    """Look up a registered corpus by name (optionally sharded)."""
    return CORPUS_REGISTRY.get(name, shard=shard)


def list_corpora() -> List[CorpusEntry]:
    """All registered corpora, sorted by name."""
    return CORPUS_REGISTRY.entries()


def _smoke_specs() -> List[CorpusSpec]:
    return TRAINING_SPECS + TEST_SPECS[:6]


def _split_specs(design_type_prefixes: Sequence[str]) -> List[CorpusSpec]:
    keep = [
        spec
        for spec in TEST_SPECS
        if any(spec.category.startswith(prefix) for prefix in design_type_prefixes)
    ]
    return TRAINING_SPECS + keep


register_corpus(
    DEFAULT_CORPUS,
    AssertionBenchCorpus,
    "Full AssertionBench: 5 training + 100 test designs (paper Section III)",
)
register_corpus(
    SMOKE_CORPUS,
    lambda: AssertionBenchCorpus(_smoke_specs()),
    "CI smoke subset: 5 training + 6 small test designs",
)
register_corpus(
    "assertionbench-arithmetic",
    lambda: AssertionBenchCorpus(_split_specs(["arithmetic", "dsp"])),
    "Arithmetic and DSP datapaths only",
)
register_corpus(
    "assertionbench-control",
    lambda: AssertionBenchCorpus(_split_specs(["fsm", "control", "flow-control", "arbitration"])),
    "State machines, arbiters, and control blocks only",
)

#: Designs whose reachable state × input space the FPV engine sweeps
#: explicitly under its default caps — the workload of the vectorized-kernel
#: benchmark (``benchmarks/test_bench_fpv_kernel.py``).  Sequential designs
#: with enumerable inputs and small state vectors; the heavy sweeps
#: (``watchdog4``, ``pwm4``, ``eth_clockgen``, ``MAC_tx_Ctrl``) dominate.
_FPV_KERNEL_NAMES = [
    "arb2",
    "t_flip_flop",
    "d_flip_flop",
    "counter",
    "updown_counter4",
    "mod10_counter",
    "mod6_counter",
    "gray_counter4",
    "gray_counter6",
    "pwm4",
    "watchdog4",
    "debouncer3",
    "eth_clockgen",
    "seq_detect_1011",
    "seq_detect_110",
    "seq_detect_10110",
    "traffic_light",
    "vending_machine",
    "handshake_ctrl",
    "mem_ctrl_fsm",
    "elevator4",
    "flow_ctrl",
    "MAC_tx_Ctrl",
    "rr_arbiter4",
    "phasecomparator",
]


def _fpv_kernel_specs() -> List[CorpusSpec]:
    keep = set(_FPV_KERNEL_NAMES)
    return [spec for spec in TRAINING_SPECS + TEST_SPECS if spec.name in keep]


register_corpus(
    "assertionbench-fpv-kernel",
    lambda: AssertionBenchCorpus(_fpv_kernel_specs()),
    "Explicit-state sweep designs driving the FPV kernel benchmark",
)

register_corpus(
    "assertionbench-mutation",
    lambda: AssertionBenchCorpus(_fpv_kernel_specs()),
    "Mutation-analysis workload: designs whose mutants stay exhaustively checkable",
)

#: Wide-datapath family: every design carries operands past the 64-bit packed
#: ceiling, so the whole corpus exercises the multi-limb lowering strategy.
#: Zero scalar fallbacks across this corpus is a CI-gated invariant.
WIDE_SPECS: List[CorpusSpec] = [
    _spec("wide_counter100", "wide-arithmetic", "100-bit strided up counter", partial(wide.wide_counter, 100, 1)),
    _spec("wide_counter128", "wide-arithmetic", "128-bit strided up counter", partial(wide.wide_counter, 128, 2)),
    _spec("wide_accum100", "wide-arithmetic", "100-bit add/sub accumulator", partial(wide.wide_accumulator, 100, 16, 3)),
    _spec("wide_accum96", "wide-arithmetic", "96-bit add/sub accumulator", partial(wide.wide_accumulator, 96, 24, 4)),
    _spec("wide_cmp100", "wide-datapath", "100-bit magnitude comparator", partial(wide.wide_compare, 100, 5)),
    _spec("wide_cmp80", "wide-datapath", "80-bit magnitude comparator", partial(wide.wide_compare, 80, 6)),
    _spec("wide_checksum96", "wide-coding", "96-bit bus running checksum", partial(wide.wide_checksum, 96, 16, 7)),
    _spec("wide_checksum128", "wide-coding", "128-bit bus running checksum", partial(wide.wide_checksum, 128, 16, 8)),
    _spec("wide_mul40x40", "wide-arithmetic", "40x40 full-precision multiplier", partial(wide.wide_multiplier, 40)),
    _spec("wide_mul48x48", "wide-arithmetic", "48x48 full-precision multiplier", partial(wide.wide_multiplier, 48)),
    _spec("pow_lfsr72", "wide-security", "72-bit power-map pattern generator", partial(wide.pow_lfsr, 72, 9)),
    _spec("pow_lfsr80", "wide-security", "80-bit power-map pattern generator", partial(wide.pow_lfsr, 80, 10)),
    _spec("wide_shift80", "wide-datapath", "80-bit dynamic barrel shifter", partial(wide.wide_shifter, 80)),
    _spec("wide_shift100", "wide-datapath", "100-bit dynamic barrel shifter", partial(wide.wide_shifter, 100)),
    _spec("wide_mux96", "wide-datapath", "96-bit constant-bank mux", partial(wide.wide_mux_bank, 96, 4, 11)),
]

register_corpus(
    "assertionbench-wide",
    lambda: AssertionBenchCorpus(WIDE_SPECS),
    "Wide-operand designs (>64-bit) driving the multi-limb lowering path",
)


def load_corpus() -> AssertionBenchCorpus:
    """Load the full AssertionBench corpus (5 training + 100 test designs)."""
    return get_corpus(DEFAULT_CORPUS)
