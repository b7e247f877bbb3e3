import ast
import subprocess
import sys
from pathlib import Path

import demandcast
from conftest import FIXTURE_CSV
from demandcast.cli import main

PACKAGE_ROOT = Path(demandcast.__file__).resolve().parent.parent
SRC = Path(demandcast.__file__).resolve().parent

# src/ runs its recursions on scipy.linalg and its normal CDF on math, so
# these load only through scipy.optimize, which only fit imports
UNUSED_SCIPY = ("scipy.signal", "scipy.special")


def _loaded_after(statements: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after running ``statements``."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE_ROOT)!r})\n{statements}\n"
        f"print('loaded=' + ','.join(m for m in {modules!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("loaded=")
    return [m for m in last.removeprefix("loaded=").split(",") if m]


def test_import_leaves_filter_and_optimizer_stack_unloaded():
    # ingest and diagnostics run without them; estimation loads scipy.linalg
    # and scipy.optimize on first use
    lazy = (*UNUSED_SCIPY, "scipy.optimize", "scipy.stats", "scipy.linalg")
    assert _loaded_after("import demandcast", lazy) == []


def test_forecast_and_diagnose_leave_optimizer_and_special_functions_unloaded(tmp_path):
    fit_args = ["fit", "--input", str(FIXTURE_CSV), "--out-dir", str(tmp_path), "--spec", "1,0,0"]
    assert main(fit_args) == 0
    commands = [
        ["diagnose", "--input", str(FIXTURE_CSV), "--out-dir", str(tmp_path)],
        ["forecast", "--input", str(FIXTURE_CSV), "--out-dir", str(tmp_path), "--horizon", "14"],
    ]
    statements = "from demandcast.cli import main\n" + "\n".join(
        f"assert main({args!r}) == 0" for args in commands
    )
    unused = (*UNUSED_SCIPY, "scipy.stats", "scipy.optimize")
    assert _loaded_after(statements, unused) == []


def _scipy_submodules_named(tree: ast.AST) -> set[str]:
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            named.add(node.module)
            named |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            named.add(f"{node.value.id}.{node.attr}")
    return {name for name in named for module in UNUSED_SCIPY if (name + ".").startswith(module + ".")}


def test_no_module_names_scipy_signal_or_special():
    # fit loads scipy.special through scipy.optimize, so no run of the fit
    # path could catch a use of either returning
    named = {
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _scipy_submodules_named(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert named == set()


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used | exported]


def test_every_module_level_import_is_used_or_exported():
    unused = [entry for path in sorted(SRC.glob("*.py")) for entry in _unused_imports(path)]
    assert unused == []
