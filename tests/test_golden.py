"""Golden outputs, replayed through ``cli.main`` twice per request in one process.

The second call of a ``pingpong`` request finds its pair configured by the
first, so the cached and the cold paths must print the same bytes.
"""

import pytest

import golden
from freevol import cli

REQUESTS = golden.requests()


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_request_matches_its_golden_output_twice_in_one_process(capsys, name):
    expected = golden.expected(name)
    for _ in range(2):
        code = cli.main(REQUESTS[name])
        assert (code, capsys.readouterr().out) == expected
