"""Static-analysis graphs over an elaborated design.

The paper (Observation 4) points out that the design insight LLMs lack is
exactly what classic assertion-generation tools compute from auxiliary
artifacts: the Control-Data Flow Graph (CDFG), the Variable Dependency Graph
(VDG), and the Cone of Influence (COI).  These structures also guide the
GoldMine-style miner's feature selection (:mod:`repro.mining.goldmine`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..hdl import ast
from ..hdl.design import Design
from ..hdl.elaborate import RtlModel

#: Variable-dependency edges, ``(source, target) -> kind`` with kind ``data``
#: or ``control``, in first-insertion order.  A later rule for the same pair
#: overwrites the kind, as re-adding an edge to a ``DiGraph`` does.
EdgeMap = Dict[Tuple[str, str], str]


def _model_of(design_or_model) -> RtlModel:
    if isinstance(design_or_model, Design):
        return design_or_model.model
    return design_or_model


# ---------------------------------------------------------------------------
# Variable dependency graph
# ---------------------------------------------------------------------------


def _dependency_edges(model: RtlModel) -> EdgeMap:
    """Collect the VDG edges: ``(a, b)`` means signal ``b`` depends on ``a``.

    Dependencies come from continuous assignments, combinational always
    blocks, and sequential always blocks (including control dependencies
    through if/case conditions).
    """
    edges: EdgeMap = {}
    for assign in model.assigns:
        for source in assign.supports:
            edges[(source, assign.target_name)] = "data"

    known = set(model.signals)
    for process in model.comb_processes + model.seq_processes:
        _add_statement_dependencies(edges, process.body, frozenset(), known)
    return edges


def _add_statement_dependencies(
    edges: EdgeMap,
    stmt: ast.Stmt,
    control: frozenset,
    known: Set[str],
) -> None:
    if isinstance(stmt, ast.Block):
        for inner in stmt.statements:
            _add_statement_dependencies(edges, inner, control, known)
    elif isinstance(stmt, ast.Assignment):
        targets = _target_names(stmt.target)
        sources = set(stmt.value.signals()) & known
        for target in targets:
            for source in sources:
                edges[(source, target)] = "data"
            for source in control:
                edges[(source, target)] = "control"
    elif isinstance(stmt, ast.If):
        condition_signals = frozenset(set(stmt.condition.signals()) & known)
        _add_statement_dependencies(edges, stmt.then_body, control | condition_signals, known)
        if stmt.else_body is not None:
            _add_statement_dependencies(
                edges, stmt.else_body, control | condition_signals, known
            )
    elif isinstance(stmt, ast.Case):
        condition_signals = frozenset(set(stmt.subject.signals()) & known)
        for item in stmt.items:
            _add_statement_dependencies(edges, item.body, control | condition_signals, known)
        if stmt.default is not None:
            _add_statement_dependencies(edges, stmt.default, control | condition_signals, known)


def _target_names(expr: ast.Expr) -> Set[str]:
    if isinstance(expr, ast.Identifier):
        return {expr.name}
    if isinstance(expr, (ast.BitSelect, ast.PartSelect)):
        return _target_names(expr.base)
    if isinstance(expr, ast.Concat):
        names: Set[str] = set()
        for part in expr.parts:
            names |= _target_names(part)
        return names
    return set()


def variable_dependency_graph(design_or_model):
    """The VDG as a ``DiGraph``: an edge ``a -> b`` means ``b`` depends on ``a``.

    Every signal is a node and each edge carries its ``kind`` (``data`` or
    ``control``).  The cone queries below walk the same edges as plain dicts,
    so only this function, :func:`control_data_flow_graph` and
    :func:`sequential_depth` import the graph library.
    """
    import networkx as nx

    model = _model_of(design_or_model)
    graph = nx.DiGraph()
    graph.add_nodes_from(model.signals)
    graph.add_edges_from(
        (source, target, {"kind": kind})
        for (source, target), kind in _dependency_edges(model).items()
    )
    return graph


# ---------------------------------------------------------------------------
# Cone of influence
# ---------------------------------------------------------------------------


def _adjacency(edges: Iterable[Tuple[str, str]], forward: bool) -> Dict[str, List[str]]:
    """Successor lists (``forward``) or predecessor lists of an edge map."""
    adjacency: Dict[str, List[str]] = {}
    for source, target in edges:
        if forward:
            adjacency.setdefault(source, []).append(target)
        else:
            adjacency.setdefault(target, []).append(source)
    return adjacency


def _reach(adjacency: Dict[str, List[str]], start: str) -> Set[str]:
    """``start`` plus every node reachable from it through ``adjacency``."""
    seen = {start}
    stack = [start]
    while stack:
        for node in adjacency.get(stack.pop(), ()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def cone_of_influence(design_or_model, target: str) -> Set[str]:
    """All signals that can influence ``target`` (its transitive fan-in)."""
    model = _model_of(design_or_model)
    if target not in model.signals:
        raise KeyError(f"unknown signal {target!r}")
    return _reach(_adjacency(_dependency_edges(model), forward=False), target)


def fanout_cone(design_or_model, source: str) -> Set[str]:
    """All signals that ``source`` can influence (its transitive fan-out)."""
    model = _model_of(design_or_model)
    if source not in model.signals:
        raise KeyError(f"unknown signal {source!r}")
    return _reach(_adjacency(_dependency_edges(model), forward=True), source)


# ---------------------------------------------------------------------------
# Control-data flow graph
# ---------------------------------------------------------------------------


def control_data_flow_graph(design_or_model):
    """Build a CDFG ``DiGraph`` with one node per process/assign and per signal.

    Node kinds: ``signal``, ``assign``, ``comb``, ``seq``.  Edges run from
    signals into the processes that read them and from processes to the
    signals they drive, so graph reachability answers both COI and fan-out
    questions at process granularity.
    """
    import networkx as nx

    model = _model_of(design_or_model)
    graph = nx.DiGraph()
    for name in model.signals:
        graph.add_node(("signal", name), kind="signal", name=name)

    for index, assign in enumerate(model.assigns):
        node = ("assign", index)
        graph.add_node(node, kind="assign", target=assign.target_name)
        for source in assign.supports:
            graph.add_edge(("signal", source), node)
        graph.add_edge(node, ("signal", assign.target_name))

    for index, process in enumerate(model.comb_processes):
        node = ("comb", index)
        graph.add_node(node, kind="comb", targets=sorted(process.targets))
        for source in process.supports:
            graph.add_edge(("signal", source), node)
        for target in process.targets:
            graph.add_edge(node, ("signal", target))

    for index, process in enumerate(model.seq_processes):
        node = ("seq", index)
        graph.add_node(
            node, kind="seq", targets=sorted(process.targets), clock=process.clock
        )
        for source in process.supports:
            graph.add_edge(("signal", source), node)
        for target in process.targets:
            graph.add_edge(node, ("signal", target))

    return graph


# ---------------------------------------------------------------------------
# Derived summaries
# ---------------------------------------------------------------------------


def influence_ranking(design_or_model) -> List[str]:
    """Rank signals by how many other signals they influence (descending)."""
    model = _model_of(design_or_model)
    successors = _adjacency(_dependency_edges(model), forward=True)
    # The fan-out cone includes the signal itself; its descendants do not.
    scores = {name: len(_reach(successors, name)) - 1 for name in model.signals}
    return sorted(model.signals, key=lambda name: (-scores[name], name))


def coi_features(
    design_or_model, target: str, include_state: bool = True
) -> List[str]:
    """Candidate antecedent signals for mining assertions about ``target``.

    Returns the cone of influence restricted to primary inputs and (optionally)
    state registers, excluding clocks — these are the observable quantities a
    GoldMine-style decision tree may branch on.
    """
    model = _model_of(design_or_model)
    cone = cone_of_influence(model, target)
    features = []
    for name in model.signals:
        if name not in cone or name == target:
            continue
        if name in model.clocks:
            continue
        signal = model.signals[name]
        if signal.kind == "input" or (include_state and signal.is_state):
            features.append(name)
    return features


def sequential_depth(design_or_model, source: str, target: str) -> Optional[int]:
    """Minimum number of register stages on a path from ``source`` to ``target``.

    Returns ``None`` when no path exists.  No miner calls it; it builds the
    networkx VDG and so imports networkx inside the function.
    """
    import networkx as nx

    model = _model_of(design_or_model)
    graph = variable_dependency_graph(model)
    if source not in graph or target not in graph:
        return None
    if not nx.has_path(graph, source, target):
        return None
    state = set(model.state_regs)
    best: Optional[int] = None
    for path in nx.all_shortest_paths(graph, source, target):
        depth = sum(1 for node in path[1:] if node in state)
        if best is None or depth < best:
            best = depth
    return best
