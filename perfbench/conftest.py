"""Make the program importable for the benchmark's own tests.

Run them with ``python -m pytest perfbench -q`` from the repository root.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
