ACCEPTANCE_PREFIX = "[ACCEPTANCE]"
ACCEPTANCE_LINES = []


def pytest_runtest_logreport(report):
    # Acceptance tests print one PASS line each; collect them from the
    # captured output of passing tests (with -s they appear inline instead).
    if report.when == "call" and report.passed:
        ACCEPTANCE_LINES.extend(
            line for line in report.capstdout.splitlines()
            if line.startswith(ACCEPTANCE_PREFIX)
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
