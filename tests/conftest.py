"""Fixtures shared by the test modules."""

import pytest

from snschan import experiments


@pytest.fixture
def benchmark(benchmark):
    """pytest-benchmark's fixture, with glibc malloc's mmap and trim
    thresholds fixed as every run fixes them
    (`experiments._fix_malloc_thresholds`), so that a kernel's timing does
    not depend on what the tests before it allocated and freed."""
    experiments._fix_malloc_thresholds()
    return benchmark
