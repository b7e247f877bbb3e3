import ast
import subprocess
import sys
from pathlib import Path

import demandcast

PACKAGE_ROOT = Path(demandcast.__file__).resolve().parent.parent


def test_import_leaves_filter_and_optimizer_stack_unloaded():
    # ingest and diagnostics run without them; estimation loads them on first use
    lazy = ("scipy.signal", "scipy.optimize", "scipy.stats", "scipy.linalg")
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE_ROOT)!r}); import demandcast; "
        f"print(' '.join(m for m in {lazy!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == ""


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
    src = Path(demandcast.__file__).resolve().parent
    unused = [entry for path in sorted(src.glob("*.py")) for entry in _unused_imports(path)]
    assert unused == []
