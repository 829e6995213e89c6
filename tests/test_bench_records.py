"""Every checked-in benchmark record names what it compared, how it ran, and on which versions."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_parent_commands_and_versions(path):
    # a number means nothing without the commit it is measured against, the
    # commands that made it, and the Python, numpy and core count it ran on
    assert path.stem.split("_")[1].isdigit()
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record.get("parent_commit"), str) and record["parent_commit"].strip()
    commands = record.get("commands")
    assert isinstance(commands, list) and commands and all(isinstance(c, str) and c.strip() for c in commands)
    host = record.get("host")
    assert isinstance(host, dict)
    for key in ("python", "numpy"):
        assert isinstance(host.get(key), str) and host[key][:1].isdigit(), key
    assert isinstance(host.get("nproc"), int) and host["nproc"] >= 1
