"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (or an
ablation of one of its design choices, such as the cone angle alpha) and
prints the regenerated rows next to the paper's published numbers, so
running::

    pytest benchmarks/ --benchmark-only -s

shows the full paper-vs-measured comparison while also timing each harness.
The benchmarks use reduced workload sizes (e.g. 10 random networks instead of
the paper's 100) so the whole suite completes in a few minutes; the averages
are already stable at that size.  ``cbtc table1 --networks 100`` runs Table 1
at the paper's full size.
"""

import pytest


def pytest_configure(config):
    # The benchmarks live outside the main test package on purpose; nothing to
    # configure beyond what pytest-benchmark provides.
    pass


@pytest.fixture(scope="session")
def print_section():
    """Print a titled block so benchmark output is easy to scan."""

    def _print(title: str, body: str) -> None:
        print()
        print("=" * 72)
        print(title)
        print("=" * 72)
        print(body)

    return _print
