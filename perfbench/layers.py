"""Layer tracer for the benchmark's traced runs.

``install()`` wraps the public entry points of each ``repro`` layer (module)
with a span recorder.  A span is ``[name, start, end, parent, info]``: the
entry point's name, its ``perf_counter`` interval, the index of the span
that was open when it was called (``-1`` at the top) and a small value the
entry point's result or arguments yield (a count, a status list, the run
statistics).  Spans stay in memory; ``Tracer.dump`` writes them out once the
CLI verb has returned, and ``summarize`` turns one process's spans into the
per-layer metrics the benchmark reports.

Functions are wrapped where their callers look them up: every loaded
``repro`` module attribute bound to the original function is replaced, so
``repro.cli.build_icl_examples`` and ``repro.mutate.campaign.enumerate_mutants``
are traced as well as the lazily imported ``repro.fpv.incremental.check_family``
the scheduler calls.  Methods are wrapped on their class.  Nothing under
``src/`` is modified.
"""

import functools
import importlib
import importlib.abc
import json
import sys
import threading
import time


def _length(args, kwargs, result):
    return len(result)


def _arg_length(position, keyword):
    def info(args, kwargs, result):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return len(value)

    return info


def _statuses(args, kwargs, result):
    return [[proof.status.value, bool(proof.complete)] for proof in result]


def _family_statuses(args, kwargs, result):
    return [[proof.status.value, bool(proof.complete)] for member in result for proof in member]


def _reachable(args, kwargs, result):
    return result.count


def _mutant_stats(args, kwargs, result):
    return result[1].as_dict()


def _correction_ok(args, kwargs, result):
    return int(result.ok)


def _generated_lines(args, kwargs, result):
    return len(result.lines)


def _run_stats(args, kwargs, result):
    return result


def _loaded_entries(args, kwargs, result):
    return result.loaded_entries


def _mutation_log(args, kwargs, result):
    return len(result[0])


#: (span name, module, attribute, info extractor).  The span name's prefix
#: up to the last dot is the layer; see ``perfbench/README.md`` for the
#: metric each span feeds.
ENTRY_POINTS = (
    ("bench.corpus.get", "repro.bench.corpus", "get_corpus", None),
    ("bench.corpus.test", "repro.bench.corpus", "AssertionBenchCorpus.test_designs", _length),
    ("bench.corpus.train", "repro.bench.corpus", "AssertionBenchCorpus.training_designs", _length),
    ("bench.icl.build", "repro.bench.icl", "build_icl_examples", None),
    ("mining.mine", "repro.mining.miner", "AssertionMiner.mine", None),
    ("mining.goldmine", "repro.mining.goldmine", "GoldMineMiner.mine", None),
    ("mining.harm", "repro.mining.harm", "HarmMiner.mine", None),
    ("mining.rank", "repro.mining.ranking", "AssertionRanker.top", None),
    ("llm.generate", "repro.llm.cots", "SimulatedCotsLLM.generate", _generated_lines),
    ("sva.correct", "repro.sva.corrector", "SyntaxCorrector.correct", _correction_ok),
    ("sva.parse", "repro.sva.parser", "parse_assertion", None),
    ("core.scheduler.check_design", "repro.core.scheduler",
     "VerificationService.check_design", _arg_length(2, "assertions")),
    ("core.scheduler.check_families", "repro.core.scheduler",
     "VerificationService.check_families", None),
    ("core.scheduler.run_stats", "repro.core.scheduler", "VerificationService.run_stats", _run_stats),
    ("fpv.check_batch", "repro.fpv.engine", "FormalEngine.check_batch", _statuses),
    ("fpv.reachability", "repro.fpv.engine", "FormalEngine.explore_reachability", None),
    ("fpv.reachability", "repro.fpv.transition", "enumerate_reachable", _reachable),
    ("fpv.family", "repro.fpv.incremental", "check_family", _family_statuses),
    ("fpv.trace_check", "repro.fpv.trace_check", "TraceChecker.check", None),
    ("sim.run", "repro.sim.simulator", "Simulator.run", None),
    ("sim.simulate_batch", "repro.sim.vector", "simulate_batch", None),
    ("sim.simulate_batch", "repro.sim.vector", "_FamilyMixin.family_simulate", None),
    ("sim.plan", "repro.sim.vector", "plan_model", None),
    ("mutate.enumerate", "repro.mutate.operators", "enumerate_mutants", _mutant_stats),
    ("mutate.semantic", "repro.mutate.semantic", "SemanticContext.differences", None),
    ("mutate.apply", "repro.mutate.operators", "apply_mutation", None),
    ("core.store.write", "repro.core.store", "RunStore.record_cell", _arg_length(4, "outcomes")),
    ("core.store.write", "repro.core.store", "RunStore.append_mutation_records",
     _arg_length(1, "records")),
    ("core.store.write", "repro.core.store", "RunStore.append_mutation_marker", None),
    ("core.store.write", "repro.core.store", "RunStore.finish_run", None),
    ("core.store.read", "repro.core.store", "RunStore.completed_cells", None),
    ("core.store.read", "repro.core.store", "RunStore.load_marked", _length),
    ("core.store.read", "repro.core.store", "RunStore.load_matrix", None),
    ("core.store.read", "repro.core.store", "RunStore.load_mutation_log", _mutation_log),
    ("core.store.verdict_cache", "repro.core.store", "RunStore.verdict_cache", _loaded_entries),
    ("core.store.reachability_cache", "repro.core.store", "RunStore.reachability_cache",
     _loaded_entries),
    ("core.reports.render", "repro.core.reports", "accuracy_matrix_report", None),
    ("core.reports.render", "repro.core.reports", "mutation_kill_report", None),
    ("core.reports.render", "repro.core.reports", "mutation_category_report", None),
    ("core.reports.render", "repro.core.reports", "mutation_generation_report", None),
    ("core.reports.render", "repro.core.reports", "weak_assertion_report", None),
    ("core.runtime.run_campaign", "repro.core.runtime", "CampaignRuntime.run_campaign", None),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, function, info):
        spans, lock, local = self.spans, self._lock, self._local

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _patch(tracer, module, entries):
    for name, _, attribute, info in entries:
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, member, tracer.wrap(name, owner.__dict__[member], info))
            continue
        original = getattr(module, member)
        traced = tracer.wrap(name, original, info)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] == "repro" and getattr(loaded, member, None) is original:
                setattr(loaded, member, traced)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Wraps a module's entry points right after its first import.

    Importing a module only to wrap it would charge the traced run for
    imports the untraced run may never make (``repro.sim.vector`` pulls in
    NumPy, which the compiled-backend ``repro run`` path never loads).
    """

    def __init__(self, pending):
        self._pending = pending

    def find_spec(self, fullname, path, target=None):
        if fullname not in self._pending:
            return None
        for finder in sys.meta_path:
            if finder is not self and hasattr(finder, "find_spec"):
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    break
        else:
            return None
        patch = self._pending.pop(fullname)
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install():
    """Wrap every entry point in ``ENTRY_POINTS`` and return the tracer."""
    tracer = Tracer()
    importlib.import_module("repro.cli")
    by_module = {}
    for entry in ENTRY_POINTS:
        by_module.setdefault(entry[1], []).append(entry)
    pending = {}
    for module_name, entries in by_module.items():
        if module_name in sys.modules:
            _patch(tracer, sys.modules[module_name], entries)
        else:
            pending[module_name] = functools.partial(_patch, tracer, entries=entries)
    if pending:
        sys.meta_path.insert(0, _PatchOnImport(pending))
    return tracer


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _hit_ratio(counters):
    return _ratio(counters.get("hits", 0), counters.get("hits", 0) + counters.get("misses", 0))


def _add_counters(total, counters):
    for key, value in counters.items():
        if isinstance(value, dict):
            _add_counters(total.setdefault(key, {}), value)
        elif isinstance(value, int):
            total[key] = total.get(key, 0) + value


def unit(metric):
    """The unit a metric of ``summarize`` is reported in."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def summarize(processes):
    """Per-layer metrics of a group of processes: times in seconds, counts, ratios.

    ``processes`` holds one ``(spans, wall_s)`` pair per traced process,
    ``wall_s`` being its launch-to-exit time; what no span covers of it is
    ``unattributed_s``.  Self time of a span is its duration minus the
    durations of its direct children, so the self times of all spans plus
    ``unattributed_s`` add up to the summed ``wall_s``.  Ratios are taken
    over the whole group.
    """
    spans, stats, wall_s = [], {}, 0.0
    for process_spans, process_wall_s in processes:
        offset = len(spans)
        spans += [
            [name, start, end, parent + offset if parent >= 0 else -1, info]
            for name, start, end, parent, info in process_spans
        ]
        reported = [info for name, *_, info in process_spans if name == "core.scheduler.run_stats"]
        if reported:
            _add_counters(stats, reported[-1])
        wall_s += process_wall_s
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s, count, infos = {}, {}, {}
    under_mining = [False] * len(spans)
    mining_sim_s = mining_fpv_s = 0.0
    for index, (name, start, end, parent, info) in enumerate(spans):
        own = end - start - children[index]
        self_s[name] = self_s.get(name, 0.0) + own
        count[name] = count.get(name, 0) + 1
        infos.setdefault(name, []).append(info)
        if parent >= 0:
            under_mining[index] = under_mining[parent] or spans[parent][0].startswith("mining.")
        if under_mining[index] and name == "sim.run":
            mining_sim_s += own
        if under_mining[index] and name.startswith("fpv."):
            mining_fpv_s += own

    def seconds(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def values(name):
        return [info for info in infos.get(name, ()) if info is not None]

    mining_verdicts = [
        status
        for (name, _, _, _, info), mined in zip(spans, under_mining)
        if mined and name == "fpv.check_batch" and info
        for status, _ in info
    ]
    verdicts = [item for info in values("fpv.check_batch") + values("fpv.family") for item in info]
    enumerations = values("mutate.enumerate")
    candidates = sum(s["viable"] + s["stillborn"] + s["equivalent"] for s in enumerations)
    viable = sum(s["viable"] for s in enumerations)
    corrections = values("sva.correct")
    family = stats.get("family", {})
    plans = stats.get("lowering", {}).get("plans", {})
    # Each store caches its loaded caches, so every call of a process reports
    # the same count: take it once per process.
    cache_entries = sum(
        max([info for name, *_, info in process_spans if name == cache and info is not None] or [0])
        for process_spans, _ in processes
        for cache in ("core.store.verdict_cache", "core.store.reachability_cache")
    )
    return {
        "bench.corpus.build_s": seconds("bench.corpus.get", "bench.corpus.test", "bench.corpus.train"),
        "bench.corpus.designs": sum(values("bench.corpus.test") + values("bench.corpus.train")),
        "bench.icl.build_s": seconds("bench.icl.build"),
        "mining.self_s": seconds("mining.mine"),
        "mining.designs": count.get("mining.mine", 0),
        "mining.sim_s": mining_sim_s,
        "mining.goldmine_s": seconds("mining.goldmine"),
        "mining.harm_s": seconds("mining.harm"),
        "mining.rank_s": seconds("mining.rank"),
        "mining.fpv_s": mining_fpv_s,
        "mining.fpv_checks": len(mining_verdicts),
        "mining.proven_ratio": _ratio(mining_verdicts.count("proven"), len(mining_verdicts)),
        "llm.self_s": seconds("llm.generate"),
        "llm.generations": count.get("llm.generate", 0),
        "llm.lines": sum(values("llm.generate")),
        "sva.correct_s": seconds("sva.correct"),
        "sva.lines": len(corrections),
        "sva.parsed_ratio": _ratio(sum(corrections), len(corrections)),
        "sva.parse_s": seconds("sva.parse"),
        "sva.parses": count.get("sva.parse", 0),
        "core.scheduler.check_design_s": seconds("core.scheduler.check_design"),
        "core.scheduler.assertions": sum(values("core.scheduler.check_design")),
        "core.scheduler.verdict_hit_ratio": _hit_ratio(stats.get("verdict_cache", {})),
        "core.scheduler.reachability_hit_ratio": _hit_ratio(stats.get("reachability_cache", {})),
        "core.scheduler.step_hit_ratio": _hit_ratio(stats.get("step_cache", {})),
        "core.scheduler.check_families_s": seconds("core.scheduler.check_families"),
        "core.scheduler.family_members": family.get("members", 0),
        "core.scheduler.memo_reused": family.get("memo_reused", 0),
        "core.scheduler.delta_escape_states": family.get("delta_escape_states", 0),
        "fpv.check_batch_s": seconds("fpv.check_batch"),
        "fpv.reachability_s": seconds("fpv.reachability"),
        "fpv.reachable_states": sum(values("fpv.reachability")),
        "fpv.family_s": seconds("fpv.family"),
        "fpv.trace_check_s": seconds("fpv.trace_check"),
        "fpv.trace_checks": count.get("fpv.trace_check", 0),
        "fpv.complete_ratio": _ratio(sum(complete for _, complete in verdicts), len(verdicts)),
        "fpv.plan.soa": plans.get("soa", 0) + family.get("family_soa_members", 0),
        "fpv.plan.multilimb": plans.get("multilimb", 0) + family.get("family_multilimb_members", 0),
        "fpv.plan.bitsliced": plans.get("bitsliced", 0),
        "sim.run_s": seconds("sim.run"),
        "sim.runs": count.get("sim.run", 0),
        "sim.simulate_batch_s": seconds("sim.simulate_batch"),
        "sim.plan_s": seconds("sim.plan"),
        "mutate.enumerate_s": seconds("mutate.enumerate"),
        "mutate.semantic_s": seconds("mutate.semantic"),
        "mutate.apply_s": seconds("mutate.apply"),
        "mutate.candidates": candidates,
        "mutate.viable": viable,
        "mutate.viable_ratio": _ratio(viable, candidates),
        "core.store.write_s": seconds("core.store.write"),
        "core.store.records_written": sum(values("core.store.write")),
        "core.store.read_s": seconds("core.store.read"),
        "core.store.records_read": sum(values("core.store.read")),
        "core.store.cache_load_s": seconds("core.store.verdict_cache", "core.store.reachability_cache"),
        "core.store.cache_entries": cache_entries,
        "core.reports.render_s": seconds("core.reports.render"),
        "core.runtime.run_campaign_s": seconds("core.runtime.run_campaign"),
        "unattributed_s": wall_s - sum(self_s.values()),
    }
