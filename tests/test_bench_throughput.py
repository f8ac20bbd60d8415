"""The throughput benchmark script (`benchmarks/bench_throughput.py`)
measures speedups against the committed, frozen interpreter baseline
and never overwrites it."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ("BENCH_interpreter.json", "BENCH_compiled.json")


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_throughput", ROOT / "benchmarks" / "bench_throughput.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compiled_speedup_divides_by_the_committed_baseline(tmp_path, capsys):
    committed = {name: (ROOT / name).read_bytes() for name in COMMITTED}
    bench = _load_script()
    one_cell = ["--apps", "locus", "--models", "ideal", "--repeats", "1"]
    assert bench.main([*one_cell, "--out-dir", str(tmp_path)]) == 0
    # Both backends ran; the live interpreter report landed in the
    # output directory and the committed files are untouched.
    assert (tmp_path / "BENCH_interpreter.json").exists()
    assert {name: (ROOT / name).read_bytes() for name in COMMITTED} == committed
    [reference] = [
        cell
        for cell in json.loads(committed["BENCH_interpreter.json"])["cells"]
        if (cell["app"], cell["model"]) == ("locus", "ideal")
    ]
    [cell] = json.loads((tmp_path / "BENCH_compiled.json").read_text())["cells"]
    assert cell["speedup_vs_baseline"] == (
        cell["cycles_per_sec"] / reference["cycles_per_sec"]
    )

    # Another machine shape than the baseline's is not compared.
    other = tmp_path / "other"
    assert bench.main([*one_cell, "--level", "2", "--out-dir", str(other)]) == 0
    report = json.loads((other / "BENCH_compiled.json").read_text())
    assert "baseline" not in report
    assert "speedup_vs_baseline" not in report["cells"][0]
