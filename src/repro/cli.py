"""Command-line driver for durable evaluation campaigns.

``python -m repro`` exposes five verbs:

``run``
    Start (or idempotently continue) a campaign in ``--run-dir``: pick a
    registered corpus, the COTS models, and the k-shot settings, then stream
    generate → correct → verify with per-design checkpointing.  Re-invoking
    ``run`` on the same directory with the same configuration resumes it;
    a different configuration is rejected via the manifest's config hash.

``resume``
    Strict resume: requires an existing manifest (refuses to start fresh)
    and continues exactly where the previous process stopped — committed
    cells load from the outcome shards, and regenerated assertions of
    interrupted cells replay their verdicts from the persistent cache.

``mutate``
    Everything ``run`` does, followed by the mutation-analysis stage: every
    FPV-passing assertion is re-verified against systematically corrupted
    variants of its design (see :mod:`repro.mutate`) and scored by kill
    rate.  Verdicts stream into the run directory's ``mutations.jsonl`` and
    reruns resume.

``report``
    Rebuild the :class:`~repro.core.metrics.EvaluationMatrix` from a run
    directory and render the paper's accuracy tables (no FPV work); with
    ``--mutation``, render the kill-rate tables from ``mutations.jsonl``.

``list-corpora``
    Show every corpus registered in :mod:`repro.bench.corpus`.

Example::

    python -m repro run --run-dir runs/nightly --corpus assertionbench \
        --designs 32 --k 1,5 --workers 4
    python -m repro mutate --run-dir runs/nightly --max-mutants 32
    python -m repro resume --run-dir runs/nightly
    python -m repro report --run-dir runs/nightly --mutation
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .bench.corpus import DEFAULT_CORPUS, SMOKE_CORPUS, get_corpus, list_corpora
from .bench.icl import build_icl_examples
from .bench.knowledge import DesignKnowledgeBase
from .core.pipeline import PipelineConfig
from .core.reports import (
    accuracy_matrix_report,
    figure7_model_comparison,
    mutation_category_report,
    mutation_generation_report,
    mutation_kill_report,
    weak_assertion_report,
)
from .core.runtime import CampaignRuntime, campaign_config
from .core.scheduler import BATCH_FAILURE_ENGINE
from .core.store import ResumeMismatchError, RunStore
from .llm.cots import SimulatedCotsLLM
from .llm.profiles import COTS_PROFILES
from .mutate import MutationCampaign, MutationConfig, MutationSummary, operator_names
from .sim.compile import BACKENDS, VECTORIZED

__all__ = ["main", "build_parser"]


def _parse_k_values(text: str) -> Tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid k list {text!r}; expected e.g. '1,5'")
    if not values:
        raise argparse.ArgumentTypeError("at least one k value is required")
    return values


def _parse_shard(text: str) -> Tuple[int, int]:
    try:
        index_text, count_text = text.split("/", 1)
        return int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid shard {text!r}; expected 'index/count' like '0/4'"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Durable LLM-assertion evaluation campaigns over AssertionBench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_campaign_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--run-dir", default="runs/campaign", help="run directory (created if missing)")
        p.add_argument("--corpus", default=DEFAULT_CORPUS, help="registered corpus name")
        p.add_argument("--designs", type=int, default=None, metavar="N",
                       help="evaluate only the first N test designs")
        p.add_argument("--k", type=_parse_k_values, default=(1, 5), metavar="K1,K2",
                       help="comma-separated k-shot settings (default 1,5)")
        p.add_argument("--models", nargs="*", default=None, metavar="NAME",
                       help="COTS model names to run (default: all four)")
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="FPV worker processes (default REPRO_FPV_WORKERS)")
        p.add_argument("--shard", type=_parse_shard, default=None, metavar="I/N",
                       help="evaluate test-design shard I of N (multi-machine runs)")
        p.add_argument("--no-corrector", action="store_true",
                       help="disable the syntax corrector stage")

    run_parser = sub.add_parser("run", help="start or continue a campaign")
    add_campaign_arguments(run_parser)
    run_parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: tiny corpus, two models, k=1",
    )

    mutate_parser = sub.add_parser(
        "mutate",
        help="run (or resume) a campaign, then score passing assertions by kill rate",
    )
    add_campaign_arguments(mutate_parser)
    mutate_parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: tiny corpus, two models, k=1",
    )
    mutate_parser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="force one FPV evaluation backend (default: REPRO_EVAL_BACKEND, "
             "else vectorized-first with transparent compiled fallback)",
    )
    mutate_parser.add_argument(
        "--operators", nargs="*", default=None, metavar="NAME",
        help=f"mutation operators to apply (default: {' '.join(operator_names())})",
    )
    mutate_parser.add_argument(
        "--max-mutants", type=int, default=None, metavar="N",
        help="cap viable mutants per design, round-robin across operators "
             "(default 64; 16 in --smoke)",
    )
    mutate_parser.add_argument(
        "--no-semantic-filter", action="store_true",
        help="keep mutants with no detectable difference from the golden design",
    )
    mutate_parser.add_argument(
        "--no-family", action="store_true",
        help="disable family-batched verification (reference per-mutant path; "
             "verdict outcomes are identical, only slower)",
    )
    mutate_parser.add_argument(
        "--no-witness-screen", action="store_true",
        help="disable the difference-witness kill pre-screen",
    )

    resume_parser = sub.add_parser(
        "resume",
        help="strictly resume an interrupted campaign from its manifest",
    )
    resume_parser.add_argument("--run-dir", required=True)
    resume_parser.add_argument("--workers", type=int, default=None, metavar="N",
                               help="override FPV worker processes for this resume")

    report_parser = sub.add_parser("report", help="render tables from a run directory")
    report_parser.add_argument("--run-dir", required=True)
    report_parser.add_argument(
        "--mutation", action="store_true",
        help="render the mutation kill-rate tables from mutations.jsonl",
    )

    sub.add_parser("list-corpora", help="list registered corpora")
    return parser


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def _campaign(
    args: argparse.Namespace,
    resume_only: bool,
    corpus_name: Optional[str] = None,
    k_values: Optional[Sequence[int]] = None,
    num_designs: Optional[int] = "unset",  # type: ignore[assignment]
    model_names: Optional[List[str]] = None,
    shard: Optional[Tuple[int, int]] = None,
    use_corrector: Optional[bool] = None,
    mutation: Optional[MutationConfig] = None,
) -> int:
    corpus_name = corpus_name if corpus_name is not None else args.corpus
    k_values = k_values if k_values is not None else args.k
    num_designs = args.designs if num_designs == "unset" else num_designs
    model_names = model_names if model_names is not None else args.models
    shard = shard if shard is not None else getattr(args, "shard", None)
    if getattr(args, "smoke", False):
        corpus_name = SMOKE_CORPUS
        k_values = (1,)
        num_designs = None
        if model_names is None:
            model_names = [COTS_PROFILES[0].name, COTS_PROFILES[1].name]

    try:
        corpus = get_corpus(corpus_name, shard=shard)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    profiles = COTS_PROFILES
    if model_names is not None:
        known = {profile.name: profile for profile in COTS_PROFILES}
        missing = [name for name in model_names if name not in known]
        if missing:
            print(
                f"error: unknown model(s) {missing}; available: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        profiles = [known[name] for name in model_names]

    pipeline_config = PipelineConfig()
    if use_corrector is None:
        use_corrector = not getattr(args, "no_corrector", False)
    pipeline_config.use_syntax_corrector = use_corrector
    if args.workers is not None:
        pipeline_config.workers = max(1, args.workers)
    if getattr(args, "backend", None):
        pipeline_config.engine.backend = args.backend

    knowledge = DesignKnowledgeBase()
    examples = build_icl_examples(corpus, knowledge)
    k_max = max(k_values, default=0)
    try:
        examples.for_k(k_max)
    except ValueError:
        print(
            f"error: --k {k_max} needs {k_max} in-context examples but corpus "
            f"{corpus_name!r} has {len(examples.examples)}",
            file=sys.stderr,
        )
        return 2
    generators = [SimulatedCotsLLM(profile, knowledge) for profile in profiles]
    designs = corpus.test_designs(limit=num_designs)

    store = RunStore(args.run_dir)
    manifest_payload = campaign_config(
        generators,
        k_values,
        designs,
        pipeline_config,
        extra={
            "corpus": corpus_name,
            "shard": list(shard) if shard else None,
            "num_designs": num_designs,
        },
    )
    try:
        store.begin_run(manifest_payload, resume_only=resume_only)
    except ResumeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    already_done = len(store.completed_cells())
    total_cells = len(generators) * len(k_values) * len(designs)
    verb = "Resuming" if (resume_only or already_done) else "Running"
    print(
        f"{verb} campaign in {store.root}: {len(generators)} models x "
        f"{len(k_values)} k x {len(designs)} designs = {total_cells} cells "
        f"({already_done} already committed)"
    )

    summary: Optional[MutationSummary] = None
    with CampaignRuntime(config=pipeline_config, store=store) as runtime:
        matrix = runtime.run_campaign(generators, k_values, designs, examples)
        if mutation is not None:
            campaign = MutationCampaign(runtime.service, store, mutation)
            summary = campaign.run(
                designs,
                campaign.passed_assertions(store),
                progress=lambda message: print(message),
            )
        run_stats = runtime.service.run_stats()
    # Cells and mutant verdicts whose verification batch failed are left
    # uncommitted.
    open_cells = total_cells - len(store.completed_cells())
    open_mutants = 0
    if summary is not None:
        open_mutants = sum(
            record.engine == BATCH_FAILURE_ENGINE for record in summary.records
        )
    if not (open_cells or open_mutants):
        store.finish_run(stats=run_stats)
    store.close()

    print(accuracy_matrix_report(matrix, "Accuracy matrix").text)
    if summary is not None:
        _print_mutation_summary(summary)
    _print_run_stats(run_stats)
    if open_cells or open_mutants:
        print(
            f"run directory: {store.root} (status: incomplete: verification "
            f"batches failed for {open_cells} cells and {open_mutants} mutant "
            "verdicts; rerunning the command verifies them again)"
        )
        return 1
    print(f"run directory: {store.root} (status: complete)")
    return 0


def _print_run_stats(run_stats: dict) -> None:
    """Render the per-run cache counters (also shown by ``repro report``)."""
    verdicts = run_stats.get("verdict_cache", {})
    print(
        f"\nverdict cache: {verdicts.get('entries', 0)} entries, "
        f"{verdicts.get('hits', 0)} hits, {verdicts.get('misses', 0)} misses"
    )
    reachability = run_stats.get("reachability_cache", {})
    print(
        f"reachability cache: {reachability.get('entries', 0)} entries, "
        f"{reachability.get('hits', 0)} hits, {reachability.get('misses', 0)} misses"
    )
    step = run_stats.get("step_cache", {})
    print(
        f"step cache: {step.get('hits', 0)} hits, {step.get('misses', 0)} misses"
    )
    family = run_stats.get("family", {})
    if family.get("members"):
        print(
            f"family sweep: {family.get('members', 0)} mutants "
            f"({family.get('family_members', 0)} family-batched "
            f"[{family.get('family_soa_members', 0)} soa, "
            f"{family.get('family_multilimb_members', 0)} multilimb], "
            f"{family.get('fallback_members', 0)} fallback), "
            f"{family.get('memo_reused', 0)} memo-reused verdicts, "
            f"{family.get('screen_kills', 0)} witness-screen kills, "
            f"{family.get('delta_escape_states', 0)} delta escape states"
        )
    lowering = run_stats.get("lowering", {})
    plans = lowering.get("plans") or {}
    if plans:
        breakdown = ", ".join(
            f"{count} {plan}" for plan, count in sorted(plans.items())
        )
        print(
            f"vector lowering: {breakdown} "
            f"({lowering.get('fallback_designs', 0)} scalar fallbacks)"
        )
        for name, reason in sorted((lowering.get("fallback_reasons") or {}).items()):
            print(f"  fallback {name}: {reason}")


def _print_mutation_summary(summary: MutationSummary) -> None:
    counts = summary.outcome_counts()
    print()
    print(mutation_kill_report(summary).text)
    print()
    print(mutation_category_report(summary).text)
    print()
    print(weak_assertion_report(summary).text)
    if summary.design_stats:
        print()
        print(mutation_generation_report(summary).text)
    print(
        f"\nmutation outcomes: {len(summary)} verdicts — "
        f"{counts['killed']} killed, {counts['survived']} survived, "
        f"{counts['timeout']} timeout, {counts['error']} error"
    )


def _resume(args: argparse.Namespace) -> int:
    """Rebuild the campaign from the run directory's manifest and continue."""
    store = RunStore(args.run_dir)
    manifest = store.read_manifest()
    if manifest is None:
        print(f"error: run directory {store.root} has no manifest to resume", file=sys.stderr)
        return 3
    config = manifest.get("config", {})
    if not config.get("models"):
        # e.g. a run directory written by ExperimentSuite — its manifest
        # identifies a suite, not a CLI campaign, so there is nothing the
        # CLI can faithfully reconstruct.
        print(
            f"error: {store.root} was not written by `repro run`; "
            "resume it with the tool that created it",
            file=sys.stderr,
        )
        return 3
    return _campaign(
        args,
        resume_only=True,
        corpus_name=config.get("corpus", DEFAULT_CORPUS),
        k_values=tuple(config.get("k_values", (1, 5))),
        num_designs=config.get("num_designs"),
        model_names=list(config["models"]),
        shard=tuple(config["shard"]) if config.get("shard") else None,
        use_corrector=config.get("use_syntax_corrector", True),
    )


def _mutate(args: argparse.Namespace) -> int:
    limit = args.max_mutants
    if limit is None:
        limit = 16 if args.smoke else MutationConfig().limit_per_design
    mutation = MutationConfig(
        operators=list(args.operators) if args.operators is not None else None,
        limit_per_design=max(1, limit) if limit is not None else None,
        semantic_filter=not args.no_semantic_filter,
        family_batching=not args.no_family,
        witness_screen=not args.no_witness_screen,
    )
    try:
        # Fail fast on unknown operator names (the library is the single
        # validator) before the generate/verify campaign spends any work.
        mutation.identity()
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.backend is None and not os.environ.get("REPRO_EVAL_BACKEND"):
        # The issue-scale workload (mutants x assertions) is what the array
        # kernel was built for; designs it cannot lower fall back to the
        # compiled sweep transparently, and verdicts are backend-identical,
        # so this never changes results or breaks resume.
        args.backend = VECTORIZED
    return _campaign(args, resume_only=False, mutation=mutation)


def _report(args: argparse.Namespace) -> int:
    store = RunStore(args.run_dir)
    manifest = store.read_manifest()
    if manifest is None:
        print(f"error: {store.root} has no manifest", file=sys.stderr)
        return 2
    summary = store.describe()
    print(
        f"run {summary['root']}: status={summary['status']} "
        f"config={summary['config_hash']} cells={summary['completed_cells']} "
        f"verdicts={summary['persistent_verdicts']} resumes={summary['resumes']}"
    )
    recorded_stats = manifest.get("stats")
    if recorded_stats:
        _print_run_stats(recorded_stats)
    if args.mutation:
        records, markers = store.load_mutation_log()
        if not records:
            print("no mutation verdicts recorded yet (run `python -m repro mutate`)")
            return 0
        _print_mutation_summary(
            MutationSummary.from_records(
                records,
                {name: marker.get("stats", {}) for name, marker in markers.items()},
            )
        )
        return 0
    matrix = store.load_matrix()
    if not matrix.model_names:
        print("no committed cells yet")
        return 0
    print(accuracy_matrix_report(matrix, "Accuracy matrix").text)
    for k in matrix.k_values:
        print()
        print(figure7_model_comparison(matrix, k).text)
    return 0


def _list_corpora() -> int:
    rows = []
    for entry in list_corpora():
        corpus = get_corpus(entry.name)
        rows.append(
            f"{entry.name:28s} {len(corpus.names('train')):2d} train "
            f"+ {len(corpus.names('test')):3d} test  {entry.description}"
        )
    print("\n".join(rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _campaign(args, resume_only=False)
        if args.command == "mutate":
            return _mutate(args)
        if args.command == "resume":
            return _resume(args)
        if args.command == "report":
            return _report(args)
        if args.command == "list-corpora":
            return _list_corpora()
    except BrokenPipeError:
        # Output was piped into a closed reader (e.g. `| head`); not an error.
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")
