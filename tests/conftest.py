"""Hypothesis draws the same examples on every run and keeps no database.

The ``no_realize`` fixture makes any call of ``pingpong.realize`` fail.
"""

import pytest
from hypothesis import settings

from freevol import pingpong

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def no_realize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a twist word was realized")

    monkeypatch.setattr(pingpong, "realize", refuse)
