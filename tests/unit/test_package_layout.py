"""``src/`` ships only the product: no package module imports the
frozen oracles under ``tests/`` or the gate scripts under
``benchmarks/perf/``.  Both directories are on ``sys.path`` under
pytest, so such an import would pass here and fail in an installed
package."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _top_level_names(directory):
    """The module and package names ``directory`` offers on a path."""
    names = {path.stem for path in directory.glob("*.py")}
    names.update(path.name for path in directory.iterdir()
                 if (path / "__init__.py").exists())
    return names


def _imported_roots(path):
    """The top-level names ``path`` imports (relative imports aside)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_package_imports_no_oracle_or_gate_script():
    outside = (
        _top_level_names(ROOT / "tests")
        | _top_level_names(ROOT / "benchmarks" / "perf")
        | {"tests", "benchmarks", "perfbench"}
    )
    assert {"oracle", "run_bench", "obs_smoke"} <= outside
    modules = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(modules) > 50
    found = {
        (str(path.relative_to(ROOT)), name)
        for path in modules
        for name in _imported_roots(path)
        if name in outside
    }
    assert found == set()
