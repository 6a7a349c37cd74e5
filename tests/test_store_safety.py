"""The store across processes: concurrent writers, and writers killed mid-save."""

import csv
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from fastcloud.cli import main
from fastcloud.registry import Store

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the fastcloud commands of argv[1] (a JSON list of argv lists) once the
# file argv[2] exists; argv[3] names a patch that kills the process at a
# chosen point of a save ("" for none).
CHILD = """
import json, os, signal, sys, time
from fastcloud import cli
commands, go, kill_at = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
if kill_at:
    setattr(os, kill_at, lambda *args: os.kill(os.getpid(), signal.SIGKILL))
while not os.path.exists(go):
    time.sleep(0.001)
sys.exit(max(cli.main(argv) for argv in commands))
"""

TRIPLES = [(f"p{p}", f"c{c}", attribute)
           for p in (1, 2) for c in (1, 2) for attribute in ("availability", "latency")]
QWS_HEADER = ["Service Name", "Availability", "Throughput", "Successability", "Reliability",
              "Latency", "Response Time"]


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def run_children(tmp_path, command_lists, kill_at=""):
    """Start one process per command list together; returns their exit codes."""
    go = tmp_path / "go"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(commands), str(go),
                               kill_at], env=env, stdout=subprocess.DEVNULL)
             for commands in command_lists]
    time.sleep(0.2)  # let every child start before any writes
    go.touch()
    codes = []
    for proc in procs:
        codes.append(proc.wait(timeout=60))
    return codes


@pytest.fixture
def store(tmp_path):
    root = tmp_path / "store"
    slos = tmp_path / "slos.csv"
    write_csv(slos, ["csp_id", "csc_id", "attribute", "value"],
              [triple + (50,) for triple in TRIPLES])
    for argv in (["register-attributes", "--qws-defaults"], ["submit-slo", str(slos)]):
        assert main(["--store", str(root)] + argv) == 0
    return Store(root)


def test_concurrent_writers_lose_no_row(store, tmp_path, capsys):
    command_lists, expected = [], Counter()
    for writer in range(3):  # submit-amv, the store numbering each triple's values
        commands = []
        for batch in range(8):
            rows = [triple + (writer * 100 + batch + k / 10, "")
                    for triple in TRIPLES for k in range(2)]
            expected.update(row[:4] for row in rows)
            path = tmp_path / f"amv-{writer}-{batch}.csv"
            write_csv(path, ["csp_id", "csc_id", "attribute", "value", "sequence"], rows)
            commands.append(["--store", str(store.root), "submit-amv", str(path)])
        command_lists.append(commands)
    for writer in range(2):  # import-qws, each chunk its own service
        commands = []
        for chunk in range(4):
            service = f"svc-{writer}-{chunk}"
            rows = [[service] + [float(10 + chunk + r)] * 6 for r in range(2)]
            for row in rows:
                for attribute in ("availability", "throughput", "successability",
                                  "reliability", "latency", "response_time"):
                    expected[(service, f"{service}/monitor", attribute, row[1])] += 1
            path = tmp_path / f"qws-{writer}-{chunk}.csv"
            write_csv(path, QWS_HEADER, rows)
            commands.append(["--store", str(store.root), "import-qws", str(path)])
        command_lists.append(commands)

    assert run_children(tmp_path, command_lists) == [0] * 5
    registry = store.load()
    stored = Counter((r.csp_id, r.csc_id, r.attribute, r.value) for r in registry.amvs)
    assert stored == expected
    sequences = {}
    for record in registry.amvs:
        sequences.setdefault((record.csp_id, record.csc_id, record.attribute), []).append(
            record.sequence)
    assert all(sorted(seq) == list(range(1, len(seq) + 1)) for seq in sequences.values())


def test_writer_killed_between_temp_write_and_rename(store, tmp_path):
    before = store.load()
    slos_file = store.root / Store.SLOS_FILE
    stored = slos_file.read_bytes()
    path = tmp_path / "new-slos.csv"
    write_csv(path, ["csp_id", "csc_id", "attribute", "value"], [TRIPLES[0] + (70,)])
    argv = ["--store", str(store.root), "submit-slo", str(path)]
    assert run_children(tmp_path, [[argv]], kill_at="replace") == [-signal.SIGKILL]
    assert slos_file.read_bytes() == stored
    assert store.load() == before
    assert list(store.root.glob("*.tmp"))
    # the dead writer's lock is gone with it, and the next writer removes its temp file
    assert main(argv) == 0
    assert store.load().slos[TRIPLES[0]].value == 70
    assert not list(store.root.glob("*.tmp"))


def test_a_writer_removes_the_temp_files_of_dead_writers_alone(store):
    # the names that <file>.*.tmp matches, and names next to them that it does not
    strays = [f"{name}.{middle}.tmp" for name in Store.FILES for middle in ("k2x_9", "", "a.b")]
    others = ["amvs.csv.tmp", "notes.tmp", "slos.csv.bak", "xamvs.csv.1.tmp",
              "attributes.csv.1.tmpx", "notes"]
    for name in strays + others:
        (store.root / name).write_bytes(b"")
    assert {path.name for name in Store.FILES
            for path in store.root.glob(f"{name}.*.tmp")} == set(strays)
    assert main(["--store", str(store.root), "register-attributes", "--qws-defaults"]) == 0
    left = {path.name for path in store.root.iterdir()}
    assert left == {*others, *Store.FILES, Store.LOCK_FILE, Store.SNAPSHOT_FILE}


def test_a_rename_that_fails_leaves_the_old_file_and_no_temp_file(store, monkeypatch):
    slos_file = store.root / Store.SLOS_FILE
    stored = slos_file.read_bytes()

    def failing(source, target):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="^rename refused$"):
        store._replace(Store.SLOS_FILE, ("csp_id", "csc_id", "attribute", "value"),
                       [TRIPLES[0] + (70,)])
    assert slos_file.read_bytes() == stored
    assert not list(store.root.glob("*.tmp"))


def test_writer_killed_mid_append(store, tmp_path):
    amvs_file = store.root / Store.AMVS_FILE
    path = tmp_path / "amv.csv"
    write_csv(path, ["csp_id", "csc_id", "attribute", "value", "sequence"],
              [TRIPLES[0] + (91.25, "")])
    before = store.load()
    stored = amvs_file.read_bytes()
    # killed after its one write, before the fsync: the row is in the file
    argv = ["--store", str(store.root), "submit-amv", str(path)]
    assert run_children(tmp_path, [[argv]], kill_at="fsync") == [-signal.SIGKILL]
    after = store.load()
    assert [(r.value, r.sequence) for r in after.amvs] == [(91.25, 1)]
    appended = amvs_file.read_bytes()
    assert appended[:len(stored)] == stored
    # a write cut short at any byte loads as before, as after, or is refused
    for end in range(len(stored), len(appended) + 1):
        amvs_file.write_bytes(appended[:end])
        try:
            loaded = store.load()
        except ValueError as exc:
            assert f"{Store.AMVS_FILE}: line 2: " in str(exc)
        else:
            assert loaded == (before if end == len(stored) else after)


@pytest.mark.parametrize("kill_at", ["pwrite", "ftruncate"])
def test_writer_killed_in_the_snapshot_write(store, tmp_path, monkeypatch, kill_at):
    path = tmp_path / "amv.csv"
    write_csv(path, ["csp_id", "csc_id", "attribute", "value", "sequence"],
              [TRIPLES[0] + (91.25, "")])
    argv = ["--store", str(store.root), "submit-amv", str(path)]
    # killed once the CSV files are durable, inside the snapshot's rewrite
    assert run_children(tmp_path, [[argv]], kill_at=kill_at) == [-signal.SIGKILL]
    snapshot = store.root / Store.SNAPSHOT_FILE
    blob = snapshot.read_bytes()
    snapshot.unlink()
    parsed = Store(store.root).load()  # what the CSV files hold
    assert [(r.value, r.sequence) for r in parsed.amvs] == [(91.25, 1)]
    snapshot.write_bytes(blob)
    assert store.load() == parsed
    # the next writer leaves a snapshot that the next load uses
    assert main(argv) == 0
    monkeypatch.setattr(Store, "_parse", lambda self, contents: pytest.fail("files parsed"))
    assert [(r.value, r.sequence) for r in store.load().amvs] == [(91.25, 1), (91.25, 2)]
