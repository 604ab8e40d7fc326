from __future__ import annotations

import time

import pytest

from min3gen import Graph, complete_bipartite_3, generate_min3, prism, wheel
from min3gen.cli import main as cli_main
from min3gen.cycles import enumerate_cycles_bruteforce

# Lines recorded by the acceptance suite, replayed after the run so they
# stay visible even though pytest captures test output.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def prism_graph() -> Graph:
    return prism()


@pytest.fixture(scope="session")
def prism_cycles(prism_graph):
    return enumerate_cycles_bruteforce(prism_graph)


@pytest.fixture(scope="session")
def k4() -> Graph:
    return wheel(3)


@pytest.fixture(scope="session")
def k33() -> Graph:
    return complete_bipartite_3(3)


@pytest.fixture(scope="session")
def min3_run():
    """generate_min3(10), the 368 graphs with n <= 10, and its seconds."""
    start = time.perf_counter()
    result = generate_min3(10)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def outputs9(tmp_path_factory):
    """The output directory of `generate --max-n 9`, made once for the
    resume tests; a test that edits it works on a copy."""
    tree = tmp_path_factory.mktemp("outputs9")
    assert cli_main(["generate", "--max-n", "9", "--out", str(tree)]) == 0
    return tree
