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
