"""Scratch workspace for the chaos drills: removed on success, kept on failure.

``tools/search_chaos.py``, ``tools/campaign_chaos.py`` and
``tools/distributed_smoke.py`` each run in a fresh temporary directory.  A
passing drill leaves nothing behind; a failing (or crashing) drill keeps its
stores and checkpoints and prints where they are, so the failure can be
inspected.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable


def run_in_workspace(prefix: str, drill: Callable[[Path], int]) -> int:
    """Run ``drill(workspace)``; remove the workspace only if it returns 0."""
    base = Path(tempfile.mkdtemp(prefix=prefix))
    print(f"workspace: {base}")
    code = 1
    try:
        code = drill(base)
    finally:
        if code == 0:
            shutil.rmtree(base, ignore_errors=True)
        else:
            print(f"workspace kept for debugging: {base}", file=sys.stderr)
    return code
