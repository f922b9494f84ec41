import os
from pathlib import Path

# pyproject's pythonpath puts src on this process's path only; the tests that
# spawn `python -m boolprod` need it on the children's path too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")))
)


def _criterion_line(nodeid: str, word: str):
    tail = nodeid.split("::test_criterion_", 1)[1]
    number, _, label = tail.partition("_")
    return int(number), f"{word}: criterion {int(number)} - {label.replace('_', ' ')}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible verdict line per acceptance criterion, pass or fail."""
    lines = []
    for outcome, word in (("passed", "PASS"), ("failed", "FAIL"), ("skipped", "SKIP")):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py::test_criterion_" in report.nodeid:
                lines.append(_criterion_line(report.nodeid, word))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(lines):
        terminalreporter.write_line(line)
