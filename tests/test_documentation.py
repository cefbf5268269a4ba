"""Documentation consistency: the repo's promises stay true."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Repo paths a document may name, with the directory each resolves in.
_DOC_PATHS = (
    (re.compile(r"\bbench_\w+\.py"), ROOT / "benchmarks"),
    (re.compile(r"\bBENCH_\w+\.json"), ROOT / "benchmarks" / "results"),
    (re.compile(r"\btests/[\w/]+\.py"), ROOT),
)


@pytest.fixture(scope="module")
def design():
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments():
    return (ROOT / "EXPERIMENTS.md").read_text()


@pytest.fixture(scope="module")
def readme():
    return (ROOT / "README.md").read_text()


def _bench_files():
    return sorted(p.name for p in (ROOT / "benchmarks").glob("bench_*.py"))


def test_core_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (ROOT / name).exists(), name


def test_every_bench_indexed_in_design(design):
    for bench in _bench_files():
        assert bench in design, f"{bench} missing from DESIGN.md"


def test_every_bench_indexed_in_experiments(experiments):
    for bench in _bench_files():
        assert bench in experiments, f"{bench} missing from EXPERIMENTS.md"


def test_design_confirms_paper_identity(design):
    # The reproduction protocol requires recording the title match.
    assert "No title collision" in design or "matches the title" in design


def test_examples_listed_in_readme(readme):
    for example in sorted((ROOT / "examples").glob("*.py")):
        assert example.name in readme, f"{example.name} missing from README"


def test_readme_commands_reference_real_paths(readme):
    assert "pytest tests/" in readme
    assert "pytest benchmarks/ --benchmark-only" in readme
    assert "REPRO_SCALE=full" in readme


def test_experiments_covers_every_paper_artifact(experiments):
    for artifact in (
        "Fig 1", "Table 2", "Table 3", "Sec 4", "Fig 4a", "Fig 4b",
        "Fig 4c", "Fig 4d", "Fig 5", "Fig 6a", "Fig 6b", "Fig 7",
        "Fig 8", "Fig 10", "Fig 11", "Fig 12a", "Fig 12d", "Sec 3.6",
    ):
        assert artifact in experiments, f"{artifact} missing from EXPERIMENTS.md"


@pytest.mark.parametrize("document", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_documents_name_only_existing_paths(document):
    text = (ROOT / document).read_text()
    for pattern, base in _DOC_PATHS:
        for name in sorted(set(pattern.findall(text))):
            assert (base / name).exists(), f"{document} names missing {name}"


def test_example_imports_resolve():
    """Every name an example imports from ``repro`` exists (read from the
    source, so no example runs)."""
    for example in sorted((ROOT / "examples").glob("*.py")):
        for node in ast.walk(ast.parse(example.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = []
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
                names = [alias.name for alias in node.names]
            else:
                continue
            for module_name in modules:
                if module_name.split(".")[0] != "repro":
                    continue
                module = importlib.import_module(module_name)
                for name in names:
                    assert hasattr(module, name), (
                        f"{example.name}: {module_name}.{name} does not exist"
                    )
