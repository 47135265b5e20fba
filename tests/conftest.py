"""Shared hypothesis strategies and profile for the test suite."""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, settings, strategies as st

# first calls hit cold memo tables, so per-example deadlines are meaningless
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@st.composite
def partitions_st(draw, max_n: int = 24, min_n: int = 0):
    """A random partition; sizes and shapes are both varied."""
    n = draw(st.integers(min_n, max_n))
    parts = []
    remaining = n
    cap = n
    while remaining > 0:
        c = draw(st.integers(1, min(cap, remaining)))
        parts.append(c)
        cap = c
        remaining -= c
    return tuple(parts)


@st.composite
def partition_pairs_st(draw, max_n: int = 18):
    """Two partitions of one common size (label and class)."""
    n = draw(st.integers(0, max_n))
    return (
        draw(partitions_st(max_n=n, min_n=n)),
        draw(partitions_st(max_n=n, min_n=n)),
    )


primes_st = st.sampled_from([2, 3, 5, 7])


@pytest.fixture
def no_decompositions(monkeypatch):
    """Make every pvanish binding of r_decompose raise, so a test can show none is built."""

    def refuse(*args):
        raise AssertionError(f"r_decompose{args} was called")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pvanish" and hasattr(mod, "r_decompose"):
            monkeypatch.setattr(mod, "r_decompose", refuse)
