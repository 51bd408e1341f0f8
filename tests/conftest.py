import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from cruxkit.harness import ToolchainConfig

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "cruxkit" / "data"

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts after capture is released."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _read_jsonl(path: Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                if set(row) != {"meta"}:
                    rows.append(row)
    return rows


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def toy_pairs() -> dict[str, dict]:
    rows = _read_jsonl(DATA_DIR / "toy_corpus" / "pairs.jsonl")
    return {r["id"]: r for r in rows}


@pytest.fixture(scope="session")
def toy_transcripts() -> list[dict]:
    return _read_jsonl(DATA_DIR / "toy_corpus" / "transcripts.jsonl")


@pytest.fixture(scope="session")
def toy_verdicts() -> dict[str, bool]:
    rows = _read_jsonl(DATA_DIR / "toy_corpus" / "verdicts.jsonl")
    return {r["id"]: r["passed"] for r in rows}


@pytest.fixture(scope="session")
def echo_toolchain() -> ToolchainConfig:
    return ToolchainConfig.echo()


@pytest.fixture()
def slices(monkeypatch):
    """``slices(n)`` makes build-dataset split any input into ``n`` slices
    (one per row at most); returns the pids of the children it forks."""
    import cruxkit.spread as spread

    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def force(n):
        monkeypatch.setattr(spread, "MIN_SLICE_ROWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return forked

    monkeypatch.setattr(os, "fork", fork)
    return force
