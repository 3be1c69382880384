"""Test set-up shared by `tests/` and `bench/`."""

import sys

import pytest


def _clear_solve_cache():
    module = sys.modules.get("waring.decompose")
    if module is not None:
        module._check_solve.cache_clear()


@pytest.fixture(autouse=True)
def cold_solve_cache():
    """Every test starts with the gamma-solve check cache of
    `waring.decompose` cold, as a fresh process does, and leaves it cold, so
    each test that counts or patches `solve_exact` sees every exponent's
    solve run, and an exponent checked with a patched solve stays
    unchecked for the next test."""
    _clear_solve_cache()
    yield
    _clear_solve_cache()
