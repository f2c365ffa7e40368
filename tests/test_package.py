"""Package-level contracts: what a ``repro`` verb imports, and the version."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]

#: Libraries that neither importing the CLI nor ``repro run`` may load:
#: networkx serves only the graph-returning analysis APIs, NumPy only the
#: vectorized backend.
HEAVY = ("networkx", "numpy")

PROBE = """
import json, sys
import repro.cli
code = repro.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
print(json.dumps({"exit": code, "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)


def _fresh_interpreter(args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a new process that imports ``repro`` from this tree."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def _probe(*cli_args: str) -> dict:
    """Run ``repro.cli`` in a fresh interpreter and report the heavy modules it loaded."""
    done = _fresh_interpreter(["-c", PROBE, *cli_args], timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestImportHygiene:
    def test_importing_the_cli_loads_no_heavy_library(self):
        assert _probe()["loaded"] == []

    def test_a_run_shard_loads_no_heavy_library(self, tmp_path):
        result = _probe(
            "run",
            "--run-dir",
            str(tmp_path / "run"),
            "--corpus",
            "assertionbench-control",
            "--k",
            "1,5",
            "--shard",
            "0/3",
        )
        assert result == {"exit": 0, "loaded": []}


@pytest.mark.filterwarnings("ignore:Support for .* is still .beta.")
def test_package_version_is_the_one_in_repro():
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyproject.read_configuration(ROOT / "pyproject.toml", expand=True)
    assert config["project"]["version"] == repro.__version__


GUARD_CONFTEST = """
import importlib.util

spec = importlib.util.spec_from_file_location("tier1_conftest", %r)
tier1 = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tier1)
tier1.TEST_TIMEOUT_S = 0.5
_hang_guard = tier1._hang_guard
"""

GUARDED_TESTS = """
import time

def test_hangs():
    time.sleep(60)

def test_quick():
    pass
"""


def test_hang_guard_fails_a_hanging_test(tmp_path):
    tier1_conftest = Path(__file__).with_name("conftest.py")
    (tmp_path / "conftest.py").write_text(GUARD_CONFTEST % str(tier1_conftest))
    (tmp_path / "test_guarded.py").write_text(GUARDED_TESTS)
    done = _fresh_interpreter(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)], timeout=60, cwd=tmp_path
    )
    assert done.returncode == 1, done.stdout
    assert "ran past the 0.5 s per-test bound" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
