"""Shared reporting: acceptance tests register one verdict line apiece,
and the summary closes with the package's line count (``wc -l``)."""

from pathlib import Path

import pytest

_criterion_lines = []
_SRC = Path(__file__).resolve().parent.parent / "src" / "lvim"


@pytest.fixture
def record():
    return _criterion_lines.append


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
        lines = sum(p.read_bytes().count(b"\n") for p in _SRC.glob("*.py"))
        terminalreporter.write_line(f"wc -l src/lvim/*.py: {lines}")
