"""Shared fixtures for the benchmark harness (settings and ``emit`` live
in ``table_helpers``)."""

import pytest

from repro.harness import ExperimentContext
from table_helpers import CACHE_DIR, PROCESSORS, SCALE, WORKERS


@pytest.fixture(scope="module")
def ctx() -> ExperimentContext:
    context = ExperimentContext(
        scale=SCALE, processors=PROCESSORS, workers=WORKERS, cache=CACHE_DIR
    )
    yield context
    context.close()
