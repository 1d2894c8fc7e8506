"""Puts the package source and the repository root on the import path, as
run.py does, so ``python3 -m pytest perfbench`` works from the root."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for p in (str(ROOT), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)
