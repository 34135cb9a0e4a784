"""Put the checkout and its ``src`` on the path for the benchmark tests.

Run: ``python3 -m pytest perfbench -q`` from the repository root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)
