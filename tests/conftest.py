"""Shared fixtures: the acceptance summary table."""

import pytest

# Lines registered by the acceptance tests, echoed at the end of the session
# so the criterion verdicts survive pytest's output capture.
_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    def report(number: int, name: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {number:2d} [{name}] {verdict}"
        if detail:
            line += f"  ({detail})"
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
