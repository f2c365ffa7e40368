"""The repository benchmark: the ``repro`` CLI verbs users wait for, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 30 --trace 0

Each workload runs real CLI verbs (``repro.cli.main``), one fresh interpreter
per invocation and one invocation at a time: a closed loop with one client,
``REPRO_FPV_WORKERS=1`` and no process beyond the child.  A *round* is the
workload's list of invocations; rounds repeat until ``--seconds`` is used up
and the run reports medians over rounds.  Every invocation's output is
checked against ``perfbench/expected.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics — the end-to-end metrics with ``--trace 0``, the per-layer metrics of
``perfbench/layers.py`` with ``--trace 1``.  See ``perfbench/README.md``.

Run directories a workload starts from (``fixtures``) are built once per
checkout by the code under test and copied per invocation; they and every
per-run directory live under ``.bench_build/perfbench`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected.json"
RUN_DIR = "{run_dir}"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402

#: Shards of the campaign-cold corpus; a round runs every one of them.
COLD_SHARDS = 3
#: Fixture sets kept per checkout, so runs that alternate two commits reuse both.
KEEP_FIXTURES = 2


class Workload:
    """One set of CLI invocations; ``fixture`` builds the run dir they start from.

    Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
    """

    def __init__(self, name, invocations, fixture=None):
        self.name = name
        self.invocations = invocations
        self.fixture = fixture


# A cold round covers every shard: shard costs differ by up to 2x, so a
# seed-chosen single shard would make the run-to-run spread a property of the
# seed, not the code.  No workload reads the seed.
COLD_ROUND = [
    (f"{shard}/{COLD_SHARDS}",
     ["run", "--run-dir", RUN_DIR, "--corpus", "assertionbench-control", "--k", "1,5",
      "--shard", f"{shard}/{COLD_SHARDS}"])
    for shard in range(COLD_SHARDS)
]


MUTATION_ARGS = ["--corpus", "assertionbench-mutation", "--k", "1,2"]
WIDE_ARGS = ["--corpus", "assertionbench-wide", "--k", "0", "--designs", "6"]

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("campaign-cold", COLD_ROUND),
        Workload(
            "mutate-stage",
            [("", ["mutate", "--run-dir", RUN_DIR, *MUTATION_ARGS])],
            fixture=["run", "--run-dir", RUN_DIR, *MUTATION_ARGS],
        ),
        Workload(
            "mutate-wide",
            [("", ["mutate", "--run-dir", RUN_DIR, *WIDE_ARGS, "--max-mutants", "8"])],
            fixture=["run", "--run-dir", RUN_DIR, *WIDE_ARGS],
        ),
    )
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env():
    """The environment every CLI invocation runs in, whatever the caller's."""
    env = dict(os.environ)
    for name in ("REPRO_EVAL_BACKEND", "REPRO_VECTOR_PLAN", "REPRO_SMOKE", "REPRO_FULL"):
        env.pop(name, None)
    env["REPRO_FPV_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def invoke(cli_args, run_dir, scratch, trace):
    """Run one CLI verb in a fresh interpreter; return its timings and output."""
    out_path = scratch / "child.json"
    trace_path = scratch / "trace.json"
    for path in (out_path, trace_path):
        if path.exists():
            path.unlink()
    args = [arg.replace(RUN_DIR, str(run_dir)) for arg in cli_args]
    command = [sys.executable, str(HERE / "child.py"), str(out_path)]
    if trace:
        command.append(str(trace_path))
    command += ["--", *args]
    with open(scratch / "stdout.txt", "w+") as stdout:
        start = time.perf_counter()
        completed = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=stdout, stderr=subprocess.PIPE, text=True
        )
        wall = time.perf_counter() - start
        stdout.seek(0)
        text = stdout.read()
    record = json.loads(out_path.read_text()) if out_path.exists() else {}
    result = {
        "exit": completed.returncode,
        "wall_s": wall,
        "setup_s": record["setup_end"] - start if record.get("setup_end") else None,
        "rss_mb": record.get("maxrss_kb", 0) / 1024.0,
        "stdout": text,
        "stderr": completed.stderr,
    }
    if trace and trace_path.exists():
        result["spans"] = json.loads(trace_path.read_text())
    return result


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

_CELLS = re.compile(r"= (\d+) cells \(\d+ already committed\)")
_OUTCOMES = re.compile(
    r"mutation outcomes: (\d+) verdicts \S+ (\d+) killed, (\d+) survived, "
    r"(\d+) timeout, (\d+) error"
)


def printed_table(stdout, title):
    """The printed table under ``title``: title, header, rule and rows."""
    lines = stdout.splitlines()
    start = lines.index(title)
    end = lines.index("", start) if "" in lines[start:] else len(lines)
    return lines[start:end]


def observe(stdout):
    """The facts of one invocation's output that the checks compare."""
    observed = {"cells": int(_CELLS.search(stdout).group(1))}
    matrix = printed_table(stdout, "Accuracy matrix")
    observed["verdicts"] = sum(int(row.split()[-4]) for row in matrix[3:])
    observed["matrix_sha256"] = hashlib.sha256("\n".join(matrix).encode()).hexdigest()
    outcomes = _OUTCOMES.search(stdout)
    if outcomes:
        total, killed, survived, timeout, error = (int(value) for value in outcomes.groups())
        observed["mutation_verdicts"] = total
        observed["outcomes"] = {
            "killed": killed, "survived": survived, "timeout": timeout, "error": error,
        }
        rows = printed_table(stdout, "Mutant generation per design")[3:]
        observed["mutants"] = sum(int(row.split()[2]) for row in rows)
    return observed


def operations(observed):
    """Operations one invocation delivered: mutation verdicts, else assertion verdicts."""
    return observed.get("mutation_verdicts", observed["verdicts"])


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def source_key():
    """Hash of the program's sources and the fixture commands; fixtures are keyed by it."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    digest.update(json.dumps([workload.fixture for workload in WORKLOADS.values()]).encode())
    return digest.hexdigest()[:16]


def fixtures():
    """Build every workload's starting run dir once per checkout and source."""
    key = f"fixtures-{source_key()}"
    target = WORK / key
    if (target / "ready").exists():
        os.utime(target / "ready")
        return target
    # Keep the most recently used sets; a new one is about to join them.
    ready = sorted(WORK.glob("fixtures-*/ready"), key=lambda path: path.stat().st_mtime)
    for stale in ready[: max(0, len(ready) - (KEEP_FIXTURES - 1))]:
        shutil.rmtree(stale.parent)
    building = Path(tempfile.mkdtemp(prefix="building-", dir=WORK))
    try:
        for workload in WORKLOADS.values():
            if workload.fixture is None:
                continue
            result = invoke(workload.fixture, building / workload.name, building, trace=False)
            if result["exit"] != 0:
                raise RuntimeError(
                    f"building the {workload.name} fixture failed:\n{result['stderr']}"
                )
        (building / "ready").write_text("")
        building.rename(target)
    finally:
        shutil.rmtree(building, ignore_errors=True)
    return target


# ---------------------------------------------------------------------------
# Rounds and metrics
# ---------------------------------------------------------------------------


def run_round(workload, fixture_root, scratch, expected, trace):
    """Run one round; return its invocations' measurements and check verdicts."""
    invocations = []
    for label, cli_args in workload.invocations:
        run_dir = scratch / "run"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        if workload.fixture is not None:
            shutil.copytree(fixture_root / workload.name, run_dir)
        result = invoke(cli_args, run_dir, scratch, trace)
        want = expected.get(workload.name, {}).get(label)
        try:
            result["observed"] = observe(result["stdout"])
            problems = check(workload, label, result, want)
        except (ValueError, AttributeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if result["exit"] != 0:
            problems.append(f"exit code {result['exit']}: {result['stderr'][-2000:]}")
        result["problems"] = problems
        result["label"] = label
        result["run_dir_bytes"] = sum(
            path.stat().st_size for path in run_dir.rglob("*") if path.is_file()
        )
        invocations.append(result)
    return invocations


def check(workload, label, result, want):
    """Differences between one invocation's output and the recorded one."""
    if want is None:
        return [f"no expected output recorded for {workload.name} {label!r}"]
    observed = result["observed"]
    return [
        f"{key}: expected {value!r}, got {observed.get(key)!r}"
        for key, value in want.items()
        if observed.get(key) != value
    ]


def round_summary(invocations):
    wall = sum(item["wall_s"] for item in invocations)
    observed = [item.get("observed", {}) for item in invocations]
    return {
        "wall_s": wall,
        "cells_per_s": sum(item.get("cells", 0) for item in observed) / wall,
        "verdicts_per_s": sum(operations(item) for item in observed if item) / wall,
    }


def end_to_end(untraced):
    summaries = [round_summary(invocations) for invocations in untraced]
    flat = [item for invocations in untraced for item in invocations]
    setups = [item["setup_s"] for item in flat if item["setup_s"] is not None]
    return {
        "wall_s": (statistics.median(s["wall_s"] for s in summaries), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cells_per_s": (statistics.median(s["cells_per_s"] for s in summaries), "1/s"),
        "verdicts_per_s": (statistics.median(s["verdicts_per_s"] for s in summaries), "1/s"),
        "peak_rss_mb": (max(item["rss_mb"] for item in flat), "MB"),
    }


def per_layer(untraced, traced):
    """Median over traced rounds of each layer metric, plus the tracing overhead."""
    rounds = []
    for invocations in traced:
        metrics = layers.summarize([(item.get("spans", []), item["wall_s"]) for item in invocations])
        metrics["core.store.run_dir_bytes"] = sum(item["run_dir_bytes"] for item in invocations)
        rounds.append(metrics)
    traced_wall = statistics.median(round_summary(r)["wall_s"] for r in traced)
    untraced_wall = statistics.median(round_summary(r)["wall_s"] for r in untraced)
    result = {
        name: (statistics.median(metrics[name] for metrics in rounds), layers.unit(name))
        for name in rounds[0]
    }
    result["trace.wall_s"] = (traced_wall, "s")
    result["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return result


def measure(workload, seconds, trace, expected):
    WORK.mkdir(parents=True, exist_ok=True)
    # Every workload builds all fixtures if they are missing, so the one-off
    # build lands on the first run in a checkout, whichever workload it is.
    fixture_root = fixtures()
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        rounds = []
        start = time.perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 1
            rounds.append((traced, run_round(workload, fixture_root, scratch, expected, traced)))
            if len(rounds) >= (2 if trace else 1) and time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the output; no workload's inputs depend on it")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())
    rounds = measure(workload, args.seconds, bool(args.trace), expected)
    invocations = [item for _, round_ in rounds for item in round_]

    attempted = failed = 0
    correct = True
    for item in invocations:
        # An invocation whose output is unreadable still counts the operations it owed.
        owed = item.get("observed") or expected.get(workload.name, {}).get(item["label"])
        ops = operations(owed) if owed else 1
        attempted += ops
        if item["problems"]:
            correct = False
            failed += ops
            print(f"check failed ({workload.name} {item['label']!r}): "
                  + "; ".join(item["problems"]), file=sys.stderr)
        elif "observed" in item:
            failed += item["observed"].get("outcomes", {}).get("error", 0)

    untraced = [round_ for traced, round_ in rounds if not traced]
    if not any(item["setup_s"] for round_ in untraced for item in round_):
        print(f"error: no {workload.name} invocation reached the campaign", file=sys.stderr)
        return 1
    metrics = end_to_end(untraced) if not args.trace else per_layer(
        untraced, [round_ for traced, round_ in rounds if traced]
    )
    print(f"{workload.name} seed={args.seed}: {len(rounds)} rounds, "
          f"{len(invocations)} invocations, {attempted} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
