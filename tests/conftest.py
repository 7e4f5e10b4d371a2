import time

import pytest

_SESSION_T0 = time.perf_counter()


@pytest.fixture(scope="session")
def session_elapsed():
    """Callable returning seconds since the pytest session started."""
    return lambda: time.perf_counter() - _SESSION_T0


def pytest_collection_modifyitems(session, config, items):
    # Criterion 10 reads session_elapsed(), so it runs last to time the suite.
    items.sort(key=lambda item: item.name == "test_criterion_10_wall_time")


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.perf_counter() - _SESSION_T0
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(f"total suite wall time: {elapsed:.2f} s")
