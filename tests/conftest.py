"""Shared pytest plumbing for the suite.

The acceptance module records one verdict line per criterion through
``record_verdict``; the terminal-summary hook replays them after the run,
outside pytest's output capture, so the gate can be skimmed at the bottom
of any test log.  ``two_way_group`` is the dyadic grid's group for tests that
build it without a :class:`~clusterperm.model.DyadArray`.
``raises_exactly`` checks a fail-closed error's class and whole message.
The ``fixed`` hypothesis profile derandomizes the property tests and keeps
no example database, so every run draws the same examples.
"""

import pytest
from hypothesis import settings

from clusterperm.permgroup import block_product_group
from clusterperm.rng import AXIS_COLS, AXIS_ROWS

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")

_verdict_lines: list[str] = []


def record_verdict(line: str) -> None:
    _verdict_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _verdict_lines:
        terminalreporter.section("acceptance criteria")
        for line in _verdict_lines:
            terminalreporter.write_line(line)


def two_way_group(n_rows, n_cols, num_perms, seed):
    """The group :func:`~clusterperm.dyadic.dyadic_layout` builds: rows and
    columns of one n_rows x n_cols grid both move."""
    return block_product_group([(0, ((n_rows, AXIS_ROWS), (n_cols, AXIS_COLS)))],
                               num_perms, seed)


def raises_exactly(call, error, message):
    """``call()`` raises ``error`` itself, not a subclass, with ``message``."""
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
