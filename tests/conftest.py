"""Shared test fixtures (helpers live in ``sim_helpers``)."""

from __future__ import annotations

from typing import List

import pytest


@pytest.fixture
def tiny_shared() -> List:
    return list(range(16)) + [0] * 48
