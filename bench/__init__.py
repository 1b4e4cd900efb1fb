"""Repo benchmark: four full-stack workloads, end-to-end metrics with
bounds, and an outside-in per-layer trace.  See ``bench/README.md``.

The benchmark command cannot set ``PYTHONPATH``, so importing this
package puts the checkout's ``src/`` first on ``sys.path``; the
benchmark then measures the ``repro`` of the checkout it was started in
and nothing installed elsewhere.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
