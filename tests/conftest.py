"""Shared pytest wiring: acceptance summary lines and the full-run marker."""


_ACCEPTANCE_PREFIX = "tests/test_acceptance.py"
_outcomes = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "full: quantitative reproduction checks on the results of `deepesn benchmark` at its default, "
        "full budget; needs DEEPESN_RESULTS",
    )


def pytest_runtest_logreport(report):
    if _ACCEPTANCE_PREFIX not in report.nodeid:
        return
    name = report.nodeid.split("::", 1)[-1]
    if report.when == "call":
        if hasattr(report, "wasxfail") and report.skipped:
            _outcomes[name] = "FAIL (expected, see notes)"
        elif report.skipped:  # pytest.skip raised inside the test body
            _outcomes[name] = "SKIPPED"
        else:
            _outcomes[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        _outcomes.setdefault(name, "SKIPPED")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_outcomes):
        terminalreporter.write_line(f"ACCEPTANCE {name}: {_outcomes[name]}")
