"""Put the benchmark modules and the library source on the import path."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
