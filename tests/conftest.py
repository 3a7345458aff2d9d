"""Fixtures that several test files share, each computed once per session."""

import pytest


@pytest.fixture(scope="session")
def table1() -> list:
    """Table 1's rows as ``repro table1`` computes them (``run_table1()``:
    seed 7, the full request counts).  The CLI, server-model and claims
    tests all read these."""
    from repro.server.benchmark import run_table1

    return run_table1()
