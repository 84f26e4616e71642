"""Make the benchmark modules and the lvim sources importable by the tests."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

for path in (os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
