"""Hypothesis draws the same examples on every run and keeps no database.

The ``explore`` profile, chosen with ``--hypothesis-profile=explore``, draws
new examples on each run, ten times as many for every property that does
not fix its own count, and still keeps no database.

The ``no_realize`` fixture makes any call of ``pingpong.realize`` fail.
The ``cold_configure`` fixture empties the caches of ``pingpong.configure``
and ``twisting.bcc_between``, before the test and after it, for a test that
changes what ``configure`` reads or counts what it calls.
"""

import pytest
from hypothesis import settings

from freevol import pingpong, twisting

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", database=None, max_examples=10 * settings.default.max_examples)
settings.load_profile("deterministic")


@pytest.fixture
def no_realize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a twist word was realized")

    monkeypatch.setattr(pingpong, "realize", refuse)


@pytest.fixture
def cold_configure():
    caches = (pingpong.configure, twisting.bcc_between)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
