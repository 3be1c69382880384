"""Test set-up shared by `tests/` and `bench/`."""

import sys

import pytest


def _clear_factor_cache():
    module = sys.modules.get("waring.decompose")
    if module is not None:
        module._factors.cache_clear()


@pytest.fixture(autouse=True)
def cold_factor_cache():
    """Every test starts with the gamma factor cache of `waring.decompose`
    cold, as a fresh process does, and leaves it cold, so factors built by a
    patched `solve_exact` never reach another test."""
    _clear_factor_cache()
    yield
    _clear_factor_cache()
