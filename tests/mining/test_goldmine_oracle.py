"""Property test: columnar GoldMine equals the row-wise algorithm it replaced.

GoldMine grows its decision trees on per-atom cycle bitmasks.  The oracle
below is the textbook row-wise formulation: tabulate one tuple of atom
truths per cycle, then split lists of row indices on information gain.  On
random small designs and traces — narrow signals that get one equality atom
per value and wider ones past the 8-value limit that get per-bit atoms —
both must mine the same candidates in the same order.

``REPRO_FULL=1`` raises the example count for the nightly run.
"""

import math
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import coi_features
from repro.hdl import Design
from repro.mining import Atom, GoldMineConfig, GoldMineMiner, mining_targets, trace_atoms
from repro.sim import Simulator, Trace

_EXAMPLES = 1000 if os.environ.get("REPRO_FULL") == "1" else 200


def _truth(atom, row):
    raw = row[atom.signal]
    if atom.bit is not None:
        raw = (raw >> atom.bit) & 1
    return raw == atom.value


def _entropy(labels):
    entropy = 0.0
    for count in (sum(labels), len(labels) - sum(labels)):
        if count:
            p = count / len(labels)
            entropy -= p * math.log2(p)
    return entropy


def _reference_target(design, trace, target, delay, config):
    features = [
        atom
        for name in coi_features(design, target.signal)
        for atom in trace_atoms(design, name, trace)
    ]
    table = [
        (tuple(_truth(a, trace.row(c)) for a in features), _truth(target, trace.row(c + delay)))
        for c in range(trace.num_cycles - delay)
    ]
    positives = sum(label for _, label in table)
    if not features or len(table) < config.min_leaf_support or positives in (0, len(table)):
        return []
    paths = []

    def grow(rows, depth, used, path):
        labels = [table[i][1] for i in rows]
        support, positives = len(labels), sum(labels)
        purity = max(positives, support - positives) / support if support else 0.0
        best, best_gain = None, 1e-9
        if depth < config.max_depth and support >= config.min_leaf_support and purity < config.min_purity:
            for index in range(len(features)):
                true = [table[i][1] for i in rows if table[i][0][index]]
                false = [table[i][1] for i in rows if not table[i][0][index]]
                if index in used or not true or not false:
                    continue
                total = len(true) + len(false)
                gain = _entropy(labels) - (
                    len(true) / total * _entropy(true) + len(false) / total * _entropy(false)
                )
                if gain > best_gain:
                    best, best_gain = index, gain
        if best is None:
            if positives * 2 >= support and path and purity >= config.min_purity:
                if support >= config.min_leaf_support:
                    paths.append((path, support))
            return
        atom = features[best]
        grow([i for i in rows if table[i][0][best]], depth + 1, used | {best}, path + [atom])
        if atom.bit is not None or atom.value in (0, 1):
            negated = Atom(atom.signal, 1 - atom.value, bit=atom.bit)
            grow([i for i in rows if not table[i][0][best]], depth + 1, used | {best}, path + [negated])

    grow(list(range(len(table))), 0, frozenset(), [])
    paths.sort(key=lambda item: (-item[1], len(item[0])))
    arrow = "|=>" if delay else "|->"
    return [
        f"{' && '.join(f'({a})' for a in path)} {arrow} ({target})"
        for path, _ in paths[: config.max_assertions_per_target]
    ]


def reference_goldmine(design, trace, config):
    """Row-wise GoldMine: candidate bodies in mining order."""
    bodies = []
    for signal in mining_targets(design)[: config.max_targets]:
        delays = (0, 1) if config.mine_next_cycle and design.model.signals[signal].is_state else (0,)
        for target in trace_atoms(design, signal, trace):
            for delay in delays:
                bodies.extend(_reference_target(design, trace, target, delay, config))
    return bodies


@st.composite
def designs_and_traces(draw):
    """A registered target fed by a combinational output and 1-5 signals."""
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    names = [f"s{i}" for i in range(len(widths))]
    op = draw(st.sampled_from(["^", "&", "|"]))
    decls = [f"  input [{w - 1}:0] {n};" for n, w in zip(names[1:], widths[1:])]
    inputs = f" {op} ".join(names[1:]) or "~s0"
    source = "\n".join(
        [
            f"module m(clk, {', '.join(names)}, y);",
            "  input clk;",
            f"  output reg [{widths[0] - 1}:0] s0;",
            "  output y;",
            *decls,
            f"  assign y = ^(s0 {op} {names[-1]});",
            f"  always @(posedge clk) s0 <= {inputs};",
            "endmodule",
        ]
    )
    design = Design.from_source(source, name="m")
    cycles = draw(st.integers(8, 64))
    if draw(st.booleans()):
        trace = Simulator(design).run(cycles=cycles, seed=draw(st.integers(0, 2**16)))
    else:
        model = design.model
        trace = Trace(signals=list(model.signals))
        for _ in range(cycles):
            trace.append(
                {name: draw(st.integers(0, model.signals[name].mask)) for name in model.signals}
            )
    return design, trace


@settings(
    settings.get_profile("ci"),
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    case=designs_and_traces(),
    max_depth=st.integers(1, 3),
    min_leaf_support=st.integers(1, 6),
    min_purity=st.sampled_from([1.0, 0.9, 0.75, 0.6]),
    per_target=st.integers(1, 6),
    next_cycle=st.booleans(),
)
def test_goldmine_matches_row_wise_oracle(
    case, max_depth, min_leaf_support, min_purity, per_target, next_cycle
):
    design, trace = case
    config = GoldMineConfig(
        max_depth=max_depth,
        min_leaf_support=min_leaf_support,
        min_purity=min_purity,
        max_assertions_per_target=per_target,
        mine_next_cycle=next_cycle,
    )
    mined = [a.body_text() for a in GoldMineMiner(design, config).mine(trace)]
    assert mined == reference_goldmine(design, trace, config)
