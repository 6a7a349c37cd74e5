"""One filing per record row: the submit commands, a cold load and the records agree.

The refusal corpus (``refusal_corpus.py``) pins what each refused row gives
through ``submit-slo``/``submit-amv`` and through a cold ``Store.load``; the
seeded files pin that the commands file accepted rows as ``submit_slo`` and
``submit_amv`` file their records, down to the bytes that a save writes.
"""

import csv
import io
import random
import shutil
from dataclasses import astuple

import pytest

from conftest import fresh_registry
from fastcloud.registry import (AMV_COLUMNS, SLO_COLUMNS, STANDARD_ATTRIBUTES, AmvRecord,
                                DuplicateSubmissionError, SloRecord, Store, _rows, record_text)
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

    registry = fresh_registry()
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


def csv_bytes(rows):
    """The bytes of ``rows`` as ``csv.writer(lineterminator="\\n")`` writes them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


# parts of ids: a comma, a quote, an inner space and line break, non-ASCII text
ID_PARTS = ("p", "c7", ",", '"', "a b", "x\ny", "\u00e9", "\u670d\u52a1", "'", "\\")
VALUES = (0.0, -0.0, 1e-07, 2.5e22, 0.1, 90.0, 123456789.125)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_saves_write_the_bytes_of_csv_writer(tmp_path, seed):
    """slos.csv and amvs.csv, whole and appended, hold the bytes that ``csv.writer`` writes."""
    rng = random.Random(seed)
    ids = ["".join(rng.choices(ID_PARTS, k=rng.randint(1, 4))) for _ in range(8)]
    names = [attr.name for attr in STANDARD_ATTRIBUTES]

    def submit(registry, slos, amvs):
        for _ in range(slos):
            value = rng.choice([v for v in VALUES if v > 0] + [rng.uniform(0, 1e4)])
            registry.submit_slo(SloRecord(rng.choice(ids), rng.choice(ids), rng.choice(names),
                                          value))
        for _ in range(amvs):  # values of agreed triples, numbered or not
            value = rng.choice([*VALUES, rng.uniform(0, 1e4)])
            sequence = rng.choice([None, None, rng.randrange(-2 ** 63, 2 ** 63)])
            registry.submit_amv(AmvRecord(*rng.choice(list(registry.slos)), value, sequence))

    def slos_bytes(registry):
        return csv_bytes([SLO_COLUMNS, *((*key, record.value)
                                         for key, record in registry.slos.items())])

    registry = fresh_registry()
    submit(registry, 30, 300)
    store = Store(tmp_path / "store")
    store.save(registry)
    assert (store.root / Store.SLOS_FILE).read_bytes() == slos_bytes(registry)
    logged = [*map(astuple, registry.amvs)]
    whole = csv_bytes([AMV_COLUMNS, *logged])
    assert (store.root / Store.AMVS_FILE).read_bytes() == whole

    loaded = store.load()
    submit(loaded, 10, 200)  # new triples among them
    store.save(loaded)
    assert (store.root / Store.SLOS_FILE).read_bytes() == slos_bytes(loaded)
    before = set(logged)
    appended = [row for row in map(astuple, loaded.amvs) if row not in before]
    assert len(appended) == 200
    assert (store.root / Store.AMVS_FILE).read_bytes() == whole + csv_bytes(appended)
    (store.root / Store.SNAPSHOT_FILE).unlink()
    assert Store(store.root).load() == loaded


def csv_rows(data, strip):
    """(line, fields, stripped or not) of each row that a strict ``csv.reader`` reads,
    or its error."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""), strict=True)
    rows, line = [], 1  # a row's first line: the line after the last one read
    try:
        for fields in reader:
            if fields or line == 1:
                rows.append((line, [text.strip() for text in fields] if strip else fields))
            line = reader.line_num + 1
    except csv.Error:
        return csv.Error
    return rows


@pytest.mark.parametrize("character", [*map(chr, range(128)), "\xa0", "\u3000"],
                         ids=[*(f"{code:#04x}" for code in range(128)), "nbsp", "ideographic"])
def test_fields_go_unstripped_only_where_a_strip_changes_none(character):
    c = character
    for data in (f"csp_id,csc_id\n{c}p1,c{c},av,90\n{c},{c}{c}\n".encode("utf-8"),
                 f'csp_id,csc_id\n"{c}p1","c{c}"\n'.encode("utf-8")):
        text = record_text(data)
        try:
            rows = list(_rows(text))
        except ValueError:
            rows = csv.Error
        assert rows == csv_rows(data, strip=True), (c, data)
        if text.unpadded:  # the strip it skipped would have changed no field
            assert csv_rows(data, strip=False) == rows, (c, data)
    # a file of the character alone skips the strip, unless it is a quote or
    # whitespace other than a line break
    assert record_text(f"csp_id\n{c}\n".encode()).unpadded == (
        c.isascii() and c != '"' and (not c.isspace() or c in "\r\n"))


def test_a_row_is_named_by_the_line_it_starts_on():
    # a quoted line break ends a line within a row, one that is read or one
    # that the csv module refuses
    big = "x" * (csv.field_size_limit() + 1)
    rows = _rows(record_text(f'csp_id,csc_id\n"p\n1",c1\n\n"p\n2","{big}"\n'.encode()))
    assert next(rows) == (1, ["csp_id", "csc_id"])
    assert next(rows) == (2, ["p\n1", "c1"])
    with pytest.raises(ValueError, match=r"^line 5: field larger than field limit"):
        next(rows)


def test_a_quote_left_open_or_text_after_a_closing_quote_refuses_the_file(tmp_path):
    # the open quote would swallow the next row, or the end of the file, into
    # its field, and the text after a closing quote would be glued to it
    store = tmp_path / "store"
    assert run_cli(["--store", str(store), "register-attributes", "--qws-defaults"])[0] == 0
    files = {file: (store / file).read_bytes() for file in Store.FILES if (store / file).exists()}
    for name, rows, refusal in (
            ("open", 'p1,"c1,av,90\np2,c2,av,80\n', "line 2: unexpected end of data"),
            ("last", 'p2,c2,av,80\np1,c1,av,"90\n', "line 3: unexpected end of data"),
            ("after", 'p1,"c1"x,av,90\np2,c2,av,80\n', "line 2: ',' expected after '\"'")):
        path = tmp_path / f"{name}.csv"
        path.write_text(f"csp_id,csc_id,attribute,value\n{rows}", encoding="utf-8")
        assert run_cli(["--store", str(store), "submit-slo", str(path)]) == (
            2, "", f"error: {path}: {refusal}\n")
        assert {file: (store / file).read_bytes() for file in files} == files


def test_a_padded_row_files_stripped(tmp_path):
    store = tmp_path / "store"
    path = tmp_path / "padded.csv"
    path.write_text("csp_id,csc_id,attribute,value\n p1 ,c1, av ,90\n", encoding="utf-8")
    for argv in (["register-attributes", "--qws-defaults"], ["submit-slo", str(path)]):
        assert run_cli(["--store", str(store), *argv])[0] == 0
    assert (store / Store.SLOS_FILE).read_bytes() == (
        b"csp_id,csc_id,attribute,value\np1,c1,availability,90.0\n")
