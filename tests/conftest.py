import tracemalloc

import pytest

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def peak_bytes():
    """Run f(*args) under tracemalloc; return its result and the peak bytes allocated."""
    def run(f, *args):
        tracemalloc.start()
        try:
            return f(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
