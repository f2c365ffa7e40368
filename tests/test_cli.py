"""Tests for the ``python -m repro`` campaign CLI."""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.core import RunStore, scheduler


def _failing_batch(*args):
    raise RuntimeError("injected batch failure")


two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="the worker pool needs two cores"
)


@pytest.fixture()
def smoke_run(tmp_path, capsys):
    run_dir = tmp_path / "smoke"
    code = main(["run", "--smoke", "--run-dir", str(run_dir)])
    out = capsys.readouterr().out
    assert code == 0
    return run_dir, out


class TestRun:
    def test_smoke_run_completes_and_persists(self, smoke_run):
        run_dir, out = smoke_run
        assert "Accuracy matrix" in out
        assert "verdict cache" in out
        store = RunStore(run_dir)
        manifest = store.read_manifest()
        assert manifest["status"] == "complete"
        assert store.completed_cells()
        assert len(store.verdict_cache()) > 0

    def test_rerun_resumes_idempotently(self, smoke_run, capsys):
        run_dir, _ = smoke_run
        before = RunStore(run_dir).completed_cells()
        assert main(["run", "--smoke", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Resuming" in out
        assert RunStore(run_dir).completed_cells().keys() == before.keys()

    def test_changed_config_is_rejected(self, smoke_run, capsys):
        run_dir, _ = smoke_run
        code = main(["run", "--run-dir", str(run_dir), "--corpus",
                     "assertionbench-smoke", "--k", "5"])
        assert code == 3
        assert "use a fresh --run-dir" in capsys.readouterr().err

    def test_unknown_corpus_and_model_are_reported(self, tmp_path, capsys):
        assert main(["run", "--run-dir", str(tmp_path / "x"), "--corpus", "nope"]) == 2
        assert "no corpus named" in capsys.readouterr().err
        assert main(["run", "--run-dir", str(tmp_path / "y"), "--corpus",
                     "assertionbench-smoke", "--models", "NotAModel"]) == 2
        assert "unknown model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corpus, k_args, k, available",
        [("assertionbench-mutation", [], 5, 2), ("assertionbench-wide", ["--k", "0,1"], 1, 0)],
    )
    def test_k_beyond_icl_examples_is_a_clean_error(
        self, tmp_path, capsys, corpus, k_args, k, available
    ):
        run_dir = tmp_path / "run"
        assert main(["run", "--run-dir", str(run_dir), "--corpus", corpus, *k_args]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            f"error: --k {k} needs {k} in-context examples but corpus "
            f"{corpus!r} has {available}"
        ]
        assert not run_dir.exists()


class TestResume:
    def test_resume_reconstructs_campaign_from_manifest(self, smoke_run, capsys):
        run_dir, _ = smoke_run
        assert main(["resume", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Resuming" in out
        assert "already committed" in out

    @two_cores
    def test_failed_batches_leave_the_run_incomplete_until_resumed(
        self, tmp_path, capsys, monkeypatch
    ):
        run_dir = tmp_path / "run"
        monkeypatch.setattr(scheduler, "_check_design_batch", _failing_batch)
        assert main(["run", "--smoke", "--workers", "2", "--run-dir", str(run_dir)]) == 1
        assert "status: incomplete" in capsys.readouterr().out
        store = RunStore(run_dir)
        assert store.read_manifest()["status"] == "running"
        assert not store.completed_cells()

        monkeypatch.undo()
        assert main(["resume", "--workers", "2", "--run-dir", str(run_dir)]) == 0
        assert "status: complete" in capsys.readouterr().out
        assert RunStore(run_dir).read_manifest()["status"] == "complete"

    def test_resume_without_manifest_fails(self, tmp_path, capsys):
        assert main(["resume", "--run-dir", str(tmp_path / "empty")]) == 3
        assert "no manifest" in capsys.readouterr().err

    def test_resume_matches_uninterrupted_report(self, smoke_run, capsys):
        run_dir, first_out = smoke_run
        main(["resume", "--run-dir", str(run_dir)])
        resumed_out = capsys.readouterr().out
        first_table = first_out[first_out.index("Accuracy matrix"):].splitlines()[:6]
        resumed_table = resumed_out[resumed_out.index("Accuracy matrix"):].splitlines()[:6]
        assert first_table == resumed_table


class TestReport:
    def test_report_renders_committed_matrix(self, smoke_run, capsys):
        run_dir, _ = smoke_run
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "status=complete" in out
        assert "Accuracy matrix" in out
        assert "Comparison of generated-assertion accuracy" in out

    def test_report_without_manifest_fails(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path / "none")]) == 2
        assert "no manifest" in capsys.readouterr().err


class TestMutate:
    @pytest.fixture()
    def mutate_run(self, tmp_path, capsys):
        run_dir = tmp_path / "mutsmoke"
        code = main(["mutate", "--smoke", "--run-dir", str(run_dir),
                     "--max-mutants", "6"])
        out = capsys.readouterr().out
        assert code == 0
        return run_dir, out

    def test_smoke_mutate_scores_and_persists(self, mutate_run):
        run_dir, out = mutate_run
        assert "Mutation kill rate per assertion" in out
        assert "Mutation score distribution per corpus category" in out
        assert "Weakest assertions by kill rate" in out
        assert "mutation outcomes:" in out
        store = RunStore(run_dir)
        assert store.mutations_path.exists()
        records, markers = store.load_mutation_log()
        assert records and markers

    def test_mutate_rerun_resumes_from_the_log(self, mutate_run, capsys):
        run_dir, first_out = mutate_run
        assert main(["mutate", "--smoke", "--run-dir", str(run_dir),
                     "--max-mutants", "6"]) == 0
        out = capsys.readouterr().out
        assert "mutating" not in out  # every design marker short-circuits
        first_table = first_out[first_out.index("Mutation kill rate"):]
        resumed_table = out[out.index("Mutation kill rate"):]
        assert first_table.splitlines()[:10] == resumed_table.splitlines()[:10]

    def test_mutate_parses_each_committed_record_once(
        self, mutate_run, capsys, monkeypatch
    ):
        run_dir, _ = mutate_run
        from repro.core import store as store_module

        parsed = []
        parse = store_module.outcome_from_json
        monkeypatch.setattr(
            store_module, "outcome_from_json", lambda data: parsed.append(data) or parse(data)
        )
        assert main(["mutate", "--smoke", "--run-dir", str(run_dir),
                     "--max-mutants", "6"]) == 0
        capsys.readouterr()
        committed = RunStore(run_dir).completed_cells().values()
        assert len(parsed) == sum(marker.count for marker in committed) > 0

    @two_cores
    def test_failed_mutant_batches_leave_the_run_incomplete_until_rerun(
        self, tmp_path, capsys, monkeypatch
    ):
        command = ["mutate", "--smoke", "--workers", "2", "--run-dir",
                   str(tmp_path / "run"), "--max-mutants", "6"]
        monkeypatch.setattr(scheduler, "_check_family_job", _failing_batch)
        assert main(command) == 1
        out = capsys.readouterr().out
        assert "status: incomplete" in out and "for 0 cells and" in out
        store = RunStore(tmp_path / "run")
        assert store.read_manifest()["status"] == "running"
        assert store.load_mutation_log() == ([], {})

        monkeypatch.undo()
        assert main(command) == 0
        assert "status: complete" in capsys.readouterr().out
        records, markers = RunStore(tmp_path / "run").load_mutation_log()
        assert records and markers

    def test_report_mutation_renders_the_log(self, mutate_run, capsys):
        run_dir, _ = mutate_run
        assert main(["report", "--run-dir", str(run_dir), "--mutation"]) == 0
        out = capsys.readouterr().out
        assert "Mutation kill rate per assertion" in out
        assert "Weakest assertions by kill rate" in out

    def test_report_mutation_without_log_explains(self, smoke_run, capsys):
        run_dir, _ = smoke_run
        assert main(["report", "--run-dir", str(run_dir), "--mutation"]) == 0
        assert "no mutation verdicts recorded yet" in capsys.readouterr().out

    def test_unknown_operator_is_rejected(self, tmp_path, capsys):
        code = main(["mutate", "--smoke", "--run-dir", str(tmp_path / "x"),
                     "--operators", "nope"])
        assert code == 2
        assert "unknown mutation operator" in capsys.readouterr().err


class TestListCorpora:
    def test_lists_registered_corpora(self, capsys):
        assert main(["list-corpora"]) == 0
        out = capsys.readouterr().out
        assert "assertionbench" in out
        assert "assertionbench-smoke" in out
        assert "100 test" in out


class TestShardedRuns:
    def test_shards_cover_the_corpus_without_overlap(self, tmp_path, capsys):
        matrices = []
        for index in range(2):
            run_dir = tmp_path / f"shard{index}"
            code = main([
                "run", "--run-dir", str(run_dir),
                "--corpus", "assertionbench-smoke",
                "--shard", f"{index}/2", "--k", "1", "--models", "GPT-4o",
            ])
            assert code == 0
            matrices.append(RunStore(run_dir).load_matrix())
            capsys.readouterr()
        designs0 = {d.design_name for d in matrices[0].get("GPT-4o", 1).designs}
        designs1 = {d.design_name for d in matrices[1].get("GPT-4o", 1).designs}
        assert designs0 and designs1
        assert not (designs0 & designs1)
        assert len(designs0 | designs1) == 6
