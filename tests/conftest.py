import os
import random
from pathlib import Path

import pytest

import cacforge

# Filled by test_acceptance.py; one entry per criterion number.
_acceptance: dict[int, tuple[str, bool]] = {}


def record(num: int, name: str, ok: bool) -> None:
    _acceptance[num] = (name, ok)


def subprocess_env() -> dict:
    """The environment for a child Python that must import this cacforge."""
    src = str(Path(cacforge.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance")
    for num in sorted(_acceptance):
        name, ok = _acceptance[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num} {name}: {verdict}")


@pytest.fixture
def rng():
    return random.Random(0xCAC)
