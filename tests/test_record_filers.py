"""One filing per record row: the submit commands, a cold load and the records agree.

The refusal corpus (``refusal_corpus.py``) pins what each refused row gives
through ``submit-slo``/``submit-amv`` and through a cold ``Store.load``; the
seeded files pin that the commands file accepted rows as ``submit_slo`` and
``submit_amv`` file their records, down to the bytes that a save writes.
"""

import csv
import random
import shutil

import pytest

from fastcloud.registry import (AMV_COLUMNS, SLO_COLUMNS, STANDARD_ATTRIBUTES, AmvRecord,
                                DuplicateSubmissionError, Registry, SloRecord, Store)
from refusal_corpus import (CORPUS, base_store, expected_submission, hand_written_store,
                            run_cli, submitted)

IDS = [entry[0] for entry in CORPUS]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("base") / "store"
    base_store(root)
    return root


@pytest.mark.parametrize("name, kind, row, outcome, _", CORPUS, ids=IDS)
def test_submission_gives_the_corpus_outcome(base, tmp_path, name, kind, row, outcome, _):
    got, path = submitted(base, tmp_path, kind, row)
    assert got == expected_submission(kind, outcome, path)


@pytest.mark.parametrize("name, kind, row, _, outcome", CORPUS, ids=IDS)
def test_cold_load_gives_the_corpus_outcome(tmp_path, name, kind, row, _, outcome):
    store = hand_written_store(tmp_path / "store", kind, row)
    for log in (True, False):  # a writer's load and a reader's both parse
        if isinstance(outcome, str):
            store.load(log=log)
            continue
        with pytest.raises(ValueError) as refused:
            store.load(log=log)
        kind_name, message = outcome
        assert type(refused.value).__name__ == kind_name
        path = store.root / (Store.SLOS_FILE if kind == "slo" else Store.AMVS_FILE)
        assert str(refused.value) == f"{path}: line 3: {message}"
    assert not (store.root / Store.SNAPSHOT_FILE).exists()


def seeded_files(seed):
    """SLO and AMV rows with abbreviations, repeats, and explicit and empty sequences."""
    rng = random.Random(seed)
    attributes = rng.sample(STANDARD_ATTRIBUTES, 3)
    triples = [(f"p{p}", f"c{c}", attr) for p in range(3) for c in range(2) for attr in attributes]
    agreed = rng.sample(triples, 12)  # the others' monitored values are refused

    def spelled(attr):
        return rng.choice((attr.name, attr.abbreviation))

    slos = [(csp, csc, spelled(attr), rng.choice((90, 12.5, 0.1 + rng.randrange(1000) / 7)))
            for csp, csc, attr in (rng.choice(agreed) for _ in range(40))]
    amvs = []
    for _ in range(120):
        if amvs and rng.random() < 0.15:  # a repeat: a duplicate, or another value appended
            amvs.append(rng.choice(amvs))
            continue
        csp, csc, attr = rng.choice(agreed if rng.random() < 0.9 else triples)
        sequence = rng.choice(("", "", rng.randrange(1, 9)))  # written as "" or digits
        amvs.append((csp, csc, spelled(attr), round(rng.uniform(0, 100), 1), sequence))
    return slos, amvs


def write_rows(path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([columns, *rows])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_commands_file_rows_as_the_records_file(tmp_path, seed):
    slos, amvs = seeded_files(seed)
    write_rows(tmp_path / "slos.csv", SLO_COLUMNS, slos)
    write_rows(tmp_path / "amvs.csv", AMV_COLUMNS, amvs)
    commands = Store(tmp_path / "commands")
    outputs = [run_cli(["--store", str(commands.root), *argv]) for argv in (
        ["register-attributes", "--qws-defaults"],
        ["submit-slo", str(tmp_path / "slos.csv")],
        ["submit-amv", str(tmp_path / "amvs.csv")])]

    registry = Registry()
    for attr in STANDARD_ATTRIBUTES:
        registry.register_attribute(attr)
    replaced = sum(registry.submit_slo(SloRecord(*row[:3], float(row[3]))) for row in slos)
    appended = skipped = failed = 0
    for csp, csc, attr, value, sequence in amvs:
        try:
            registry.submit_amv(AmvRecord(csp, csc, attr, value, sequence or None))
            appended += 1
        except DuplicateSubmissionError:
            skipped += 1
        except ValueError:
            failed += 1
    records = Store(tmp_path / "records")
    records.save(registry)

    assert [code for code, _, _ in outputs] == [0, 0, 0]
    assert outputs[1][1] == f"{len(slos) - replaced} accepted, {replaced} replaced\n"
    assert outputs[2][1] == (f"{appended} appended"
                             + (f", {skipped} duplicates skipped" if skipped else "")
                             + (f", {failed} failed" if failed else "") + "\n")
    assert len(outputs[2][2].splitlines()) == failed
    assert commands.load() == registry
    for name in (*Store.FILES, Store.SNAPSHOT_FILE):
        assert (commands.root / name).read_bytes() == (records.root / name).read_bytes(), name
    cold = Store(tmp_path / "cold")
    shutil.copytree(commands.root, cold.root)
    (cold.root / Store.SNAPSHOT_FILE).unlink()
    assert cold.load(log=False) == registry.profile_table()
    assert cold.load() == registry
