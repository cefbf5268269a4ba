"""Bench JSON provenance: ``git_dirty`` says whether ``git_sha`` names
the tree a ``BENCH_<name>.json`` was measured on."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None, reason="needs the git executable"
)


@pytest.fixture(scope="module")
def bench_conftest():
    """``benchmarks/conftest.py`` loaded as a plain module."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True, timeout=30,
    )


@pytest.fixture()
def repo(tmp_path, monkeypatch):
    """A one-commit repository with a source file and a result archive."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    root = tmp_path / "repo"
    (root / "benchmarks" / "results").mkdir(parents=True)
    (root / "src.py").write_text("x = 1\n")
    (root / "benchmarks" / "results" / "BENCH_a.json").write_text("{}\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "init")
    return root


def test_clean_tree_is_not_dirty(bench_conftest, repo):
    (repo / "untracked.py").write_text("y = 2\n")
    assert bench_conftest._git_dirty(repo) is False


def test_edited_result_archive_is_not_dirty(bench_conftest, repo):
    (repo / "benchmarks" / "results" / "BENCH_a.json").write_text("[]\n")
    assert bench_conftest._git_dirty(repo) is False


def test_edited_tracked_file_is_dirty(bench_conftest, repo):
    (repo / "src.py").write_text("x = 2\n")
    assert bench_conftest._git_dirty(repo) is True


def test_outside_a_checkout_is_unknown(bench_conftest, tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_conftest._git_dirty(plain) is None


def test_emit_records_the_flag(bench_conftest, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
    bench_conftest.emit("probe", "table", {"speedup": (2.0, "x")})
    payload = json.loads((tmp_path / "BENCH_probe.json").read_text())
    assert payload["schema"] == 2
    assert payload["git_dirty"] in (True, False, None)
    assert bench_conftest.load_bench(tmp_path / "BENCH_probe.json") == {
        "speedup": 2.0
    }
