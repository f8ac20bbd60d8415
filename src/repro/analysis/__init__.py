"""Analysis: turning simulation statistics into the paper's tables.

* :mod:`repro.analysis.tablefmt` — plain-text table rendering;
* :mod:`repro.analysis.runlength` — run-length distribution rows
  (Tables 2 and 4);
* :mod:`repro.analysis.efficiency` — the single-processor efficiency
  baseline (the multithreading-level search of Tables 3, 5, 6 and 8 and
  Table 5's reorganisation penalty are
  :class:`~repro.harness.context.ExperimentContext` methods);
* :mod:`repro.analysis.bandwidth` — hit-rate / bits-per-cycle rows
  (Section 6.1's bandwidth table).
"""

from repro.analysis.tablefmt import TextTable
from repro.analysis.asciiplot import efficiency_chart
from repro.analysis.runlength import RUN_BINS, run_length_row
from repro.analysis.efficiency import single_thread_cycles
from repro.analysis.bandwidth import bandwidth_row

__all__ = [
    "TextTable",
    "efficiency_chart",
    "RUN_BINS",
    "run_length_row",
    "single_thread_cycles",
    "bandwidth_row",
]
