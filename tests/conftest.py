"""Hypothesis draws the same examples on every run and keeps no database.

The ``explore`` profile, chosen with ``--hypothesis-profile=explore``, draws
new examples on each run, ten times as many for every property that does
not fix its own count, and still keeps no database.

The ``no_realize`` fixture makes any call of ``pingpong.realize`` fail.
"""

import pytest
from hypothesis import settings

from freevol import pingpong

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", database=None, max_examples=10 * settings.default.max_examples)
settings.load_profile("deterministic")


@pytest.fixture
def no_realize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a twist word was realized")

    monkeypatch.setattr(pingpong, "realize", refuse)
