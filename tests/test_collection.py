"""One pytest run collects both test trees, in either order.

Each tree's ``conftest.py`` is loaded as the one module ``conftest``, so
a helper imported from it resolves to whichever tree loaded last; the
helpers live in ``sim_helpers`` and ``table_helpers`` instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tests_and_benchmarks_collect_together():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = {
        order: subprocess.Popen(
            [sys.executable, "-m", "pytest", "--collect-only", "-q",
             "-p", "no:cacheprovider", *order],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        for order in (("tests", "benchmarks"), ("benchmarks", "tests"))
    }
    for order, run in runs.items():
        output, _ = run.communicate(timeout=300)
        assert run.returncode == 0, (order, output[-2000:])
