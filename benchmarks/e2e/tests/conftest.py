"""Tests of the end-to-end benchmark (not part of tier-1).

Run with ``python -m pytest benchmarks/e2e/tests`` from the repo root.
The benchmark's modules are plain files beside ``run.py``; put that
directory and ``src`` first on the path, as running ``run.py`` does.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

for entry in (str(ROOT / "src"), str(E2E)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
# ``trace`` is also a standard-library module; make sure ours wins.
sys.modules.pop("trace", None)
