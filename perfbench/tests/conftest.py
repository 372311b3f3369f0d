"""Import path for the perfbench tests: ``python -m pytest -q perfbench``.

The benchmark's modules sit flat in ``perfbench/`` (``run.py`` is run as a
script) and import the program from ``src/``.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]
