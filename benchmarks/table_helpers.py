"""Settings and output of the ``bench_*`` files.

Every ``bench_*`` file regenerates one table or figure of the paper at
the ``REPRO_BENCH_SCALE`` problem scale (default ``bench`` — calibrated
so the 80-90% efficiency columns are reachable, see
``repro.harness.sizes``).  Set ``REPRO_BENCH_SCALE=tiny`` for a fast
smoke run.  Bench files import these by name (``from table_helpers
import emit``); ``conftest.py`` keeps only fixtures, because pytest
loads every ``conftest.py`` outside a package as the one module
``conftest``.
"""

import os

SCALE = os.environ.get("REPRO_BENCH_SCALE", "bench")
PROCESSORS = int(os.environ.get("REPRO_BENCH_PROCESSORS", "2"))
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None


def emit(text: str) -> None:
    """Print a rendered table under pytest's captured output."""
    print("\n" + text)
