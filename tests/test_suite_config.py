"""The test settings of ``pyproject.toml`` and the root ``conftest.py`` themselves."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from monotri.evaluate import MEMO_ROUTES, METHODS, EvalCache

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PLAIN_TEST = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5, deadline=None)
@given(st.integers())
def test_meant_to_fail(n):
    assert n != n


def test_after_it():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # With every warning an error, a warning raised in hypothesis's report
    # hook of a failing property stopped pytest with INTERNALERROR before
    # the next test ran.
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY_THEN_PLAIN_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_the_session_writes_no_bytecode():
    # set by the root conftest.py before any test module is imported
    assert sys.dont_write_bytecode
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"


def _unreferenced_imports(path: Path) -> set[str]:
    """Names that the module at ``path`` imports and never refers to."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_only_the_tracer_keeps_unused_imports():
    # bench/tracing.py patches these names on the modules that import them,
    # so each stays imported there though the module does not call it.
    package = Path(__file__).resolve().parents[1] / "src" / "monotri"
    unused = {f"{path.stem}.{name}"
              for path in package.glob("*.py") if path.name != "__init__.py"
              for name in _unreferenced_imports(path)}
    assert unused == {"cli.sc_statistic", "evaluate.enumerate_mt"}


def test_only_the_row_walks_charge_budgets():
    # rows.walk_stream and rows.walk_totals charge every budget; the other
    # modules pass them expansions and charging rules.
    package = Path(__file__).resolve().parents[1] / "src" / "monotri"
    for message in ("row generation budget exhausted", "triangle budget exhausted"):
        assert [path.name for path in sorted(package.glob("*.py")) if message in path.read_text()] == ["rows.py"]


def test_the_tracer_caches_exactly_the_memoized_routes():
    # bench/tracing.py gives a traced alpha call without a cache one of its
    # own on the routes of CACHED_METHODS; it is read here, not imported.
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text())
    cached, = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(target, "id", None) for target in node.targets] == ["CACHED_METHODS"]]
    memoized = set()
    for method in METHODS:
        try:
            EvalCache(method)
        except ValueError:
            continue
        memoized.add(method)
    assert set(cached) == set(MEMO_ROUTES) == memoized
