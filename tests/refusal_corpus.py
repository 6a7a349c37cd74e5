"""A table of record rows that the submit commands and a cold store load refuse.

Each row is filed alone, after a base of one agreed SLO, ``p,c,av,90``, and
one monitored value, ``p,c,av,1.0`` at sequence 1:

- through ``submit-slo`` or ``submit-amv``, as the file's only row (line 2),
  on a copy of a store that the commands built;
- through a cold ``Store.load`` of a store written by hand, whose slos.csv
  or amvs.csv holds the base row at line 2 and the row at line 3.

A refusal names the line on which its row starts, also for a row that holds
a quoted line break.

Each side gives a refusal, ``(error type, message)``, or the summary line
of an accepted row. A row that the csv module cannot read, a quote left open
or text after a closing quote, refuses a submitted file as a whole: the
command files none of its rows and reports ``error: <path>: line 2: ...``. Rows with two faults pin the order of the checks:
field count, ``float``/``int``, ids, value, attribute, then the agreed SLO,
or for a stored row the sequence, and last the log's own refusals.

Run as a script, it files every row through both commands and exits 1
on an exit code, summary line or stderr line that differs:

    PYTHONPATH=src python tests/refusal_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from fastcloud import cli
from fastcloud.registry import (AMV_COLUMNS, SLO_COLUMNS, STANDARD_ATTRIBUTES, Store,
                                attribute_fields)

IDS = "provider and consumer ids must be non-empty without surrounding whitespace, got"
CR = "provider and consumer ids must not hold a carriage return, got"
SLO_VALUE = "SLO value must be finite and positive, got"
AMV_VALUE = "monitored value must be finite and nonnegative, got"
KEY = "('p', 'c', 'availability')"
END = "unexpected end of data"
AFTER_QUOTE = "',' expected after '\"'"
OUTSIDE = 2 ** 63

BASE_SLO = "p,c,av,90"
BASE_AMV = "p,c,av,1.0,1"
SLO_REFUSED = "0 accepted, 0 replaced, 1 failed"
AMV_REFUSED = "0 appended, 1 failed"


def refused(message: str, kind: str = "ValueError") -> tuple[str, str]:
    return kind, message


def unreadable(message: str) -> tuple[str, str]:
    """The submission of a row that the csv module cannot read: the whole file is refused."""
    return "unreadable", message


# (id, record kind, row, what submission gives[, what a cold load gives, if
# that differs]); a refusal is (error type, message), an accepted row's
# outcome its summary line
CORPUS = [
    ("slo-short", "slo", "p,c,av", refused("malformed row: 3 fields, expected 4")),
    ("slo-long", "slo", "p,c,av,90,1", refused("malformed row: 5 fields, expected 4")),
    ("slo-non-numeric", "slo", "p,c,av,abc", refused("could not convert string to float: 'abc'")),
    ("slo-empty-csp", "slo", ",c,av,90", refused(f"{IDS} '' and 'c'")),
    ("slo-padded-csc", "slo", "p, \t ,av,90", refused(f"{IDS} 'p' and ''")),
    # a quoted carriage return, which the csv module writes unquoted before 3.13
    ("slo-carriage-return-csp", "slo", '"p\r1",c,av,90', refused(f"{CR} 'p\\r1' and 'c'")),
    # a quote left open swallows the rest of the file; text after a closing
    # quote would be glued to the field
    ("slo-open-quote", "slo", 'p,"c,av,90', unreadable(END), refused(END)),
    ("slo-text-after-quote", "slo", 'p,"c"x,av,90', unreadable(AFTER_QUOTE),
     refused(AFTER_QUOTE)),
    ("slo-zero", "slo", "p,c,av,0", refused(f"{SLO_VALUE} 0.0")),
    ("slo-negative", "slo", "p,c,av,-0.5", refused(f"{SLO_VALUE} -0.5")),
    ("slo-nan", "slo", "p,c,av,nan", refused(f"{SLO_VALUE} nan")),
    ("slo-inf", "slo", "p,c,av,inf", refused(f"{SLO_VALUE} inf")),
    ("slo-unknown-attribute", "slo", "p,c,bogus,90",
     refused("unknown attribute 'bogus'", "UnknownAttributeError")),
    # two faults: the first check in the order refuses the row
    ("slo-count-before-value", "slo", "p,c,av,abc,1",
     refused("malformed row: 5 fields, expected 4")),
    ("slo-float-before-ids", "slo", ",c,av,abc",
     refused("could not convert string to float: 'abc'")),
    ("slo-ids-before-value", "slo", ",c,bogus,0", refused(f"{IDS} '' and 'c'")),
    ("slo-value-before-attribute", "slo", "p,c,bogus,0", refused(f"{SLO_VALUE} 0.0")),
    ("amv-short", "amv", "p,c,av,5", refused("malformed row: 4 fields, expected 5")),
    ("amv-long", "amv", "p,c,av,5,2,x", refused("malformed row: 6 fields, expected 5")),
    ("amv-non-numeric", "amv", "p,c,av,abc,2", refused("could not convert string to float: 'abc'")),
    ("amv-non-numeric-sequence", "amv", "p,c,av,5,1.5",
     refused("invalid literal for int() with base 10: '1.5'")),
    ("amv-empty-csc", "amv", "p,,av,5,2", refused(f"{IDS} 'p' and ''")),
    ("amv-padded-csp", "amv", " ,c,av,5,2", refused(f"{IDS} '' and 'c'")),
    ("amv-carriage-return-csc", "amv", 'p,"c\r1",av,5,2', refused(f"{CR} 'p' and 'c\\r1'")),
    ("amv-open-quote", "amv", 'p,c,av,"5,2', unreadable(END), refused(END)),
    ("amv-padded-quoted-csp", "amv", '"p" ,c,av,5,2', unreadable(AFTER_QUOTE),
     refused(AFTER_QUOTE)),
    ("amv-negative", "amv", "p,c,av,-1,2", refused(f"{AMV_VALUE} -1.0")),
    ("amv-nan", "amv", "p,c,av,nan,2", refused(f"{AMV_VALUE} nan")),
    ("amv-inf", "amv", "p,c,av,inf,2", refused(f"{AMV_VALUE} inf")),
    ("amv-unknown-attribute", "amv", "p,c,bogus,5,2",
     refused("unknown attribute 'bogus'", "UnknownAttributeError")),
    # an SLO is agreed for (p, c, availability) alone; a stored row needs none
    ("amv-missing-slo", "amv", "p,c2,av,5,1",
     refused("no agreed SLO for (p, c2, availability)"), "accepted"),
    ("amv-missing-slo-by-name", "amv", "p,c,latency,5,",
     refused("no agreed SLO for (p, c, latency)"),
     refused("stored monitored value has no sequence")),
    ("amv-conflicting", "amv", "p,c,availability,7,1",
     refused(f"sequence 1 for {KEY} already holds value 1.0, refusing to overwrite with 7.0")),
    ("amv-sequence-above-int64", "amv", f"p,c,av,5,{OUTSIDE}",
     refused(f"sequence {OUTSIDE} for {KEY} is outside int64")),
    ("amv-sequence-below-int64", "amv", f"p,c,av,5,{-OUTSIDE - 1}",
     refused(f"sequence {-OUTSIDE - 1} for {KEY} is outside int64")),
    ("amv-duplicate", "amv", "p,c,av,1,1", "0 appended, 1 duplicates skipped",
     refused(f"duplicate submission {KEY} sequence 1", "DuplicateSubmissionError")),
    ("amv-no-sequence", "amv", "p,c,av,5,", "1 appended",
     refused("stored monitored value has no sequence")),
    # two faults
    ("amv-count-before-sequence", "amv", "p,c,av,5,x,y",
     refused("malformed row: 6 fields, expected 5")),
    ("amv-float-before-int", "amv", "p,c,av,abc,x",
     refused("could not convert string to float: 'abc'")),
    ("amv-int-before-ids", "amv", ",c,av,5,x",
     refused("invalid literal for int() with base 10: 'x'")),
    ("amv-ids-before-value", "amv", ",c,av,nan,2", refused(f"{IDS} '' and 'c'")),
    ("amv-value-before-attribute", "amv", "p,c,bogus,-1,2", refused(f"{AMV_VALUE} -1.0")),
    ("amv-attribute-before-slo", "amv", "p,c2,bogus,5,",
     refused("unknown attribute 'bogus'", "UnknownAttributeError")),
    ("amv-slo-before-int64", "amv", f"p,c2,av,5,{OUTSIDE}",
     refused("no agreed SLO for (p, c2, availability)"),
     refused(f"sequence {OUTSIDE} for ('p', 'c2', 'availability') is outside int64")),
]
CORPUS = [(*entry, entry[3]) if len(entry) == 4 else entry for entry in CORPUS]

HEADERS = {"slo": ",".join(SLO_COLUMNS), "amv": ",".join(AMV_COLUMNS)}
COMMANDS = {"slo": "submit-slo", "amv": "submit-amv"}
REFUSED = {"slo": SLO_REFUSED, "amv": AMV_REFUSED}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def base_store(root: Path) -> None:
    """A store holding the base SLO and monitored value, built by the commands."""
    for argv, text in ((["register-attributes", "--qws-defaults"], None),
                       (["submit-slo"], f"{HEADERS['slo']}\n{BASE_SLO}\n"),
                       (["submit-amv"], f"{HEADERS['amv']}\n{BASE_AMV}\n")):
        if text is not None:
            path = root.parent / f"base-{argv[0]}.csv"
            path.write_text(text, encoding="utf-8")
            argv = [*argv, str(path)]
        code, _, err = run_cli(["--store", str(root), *argv])
        assert code == 0 and not err, (argv, code, err)


def expected_submission(kind: str, outcome, path: Path) -> tuple[int, str, list[str]]:
    """The exit code, summary line and stderr lines of submitting a row alone from ``path``."""
    if isinstance(outcome, str):
        return 0, outcome, []
    kind_name, message = outcome
    if kind_name == "unreadable":
        return 2, "", [f"error: {path}: line 2: {message}"]
    return 2, REFUSED[kind], [f"  {path}: line 2: {message}"]


def submitted(base: Path, work: Path, kind: str, row: str) -> tuple[tuple, Path]:
    """The exit code, summary line and stderr lines of submitting ``row`` alone.

    It is filed from ``work/row.csv`` into ``work/store``, a copy of ``base``;
    the file's path is returned with them.
    """
    store = work / "store"
    shutil.copytree(base, store)
    path = work / "row.csv"
    path.write_text(f"{HEADERS[kind]}\n{row}\n", encoding="utf-8")
    code, out, err = run_cli(["--store", str(store), COMMANDS[kind], str(path)])
    return (code, out.strip(), err.splitlines()), path


def hand_written_store(root: Path, kind: str, row: str) -> Store:
    """A store with no .snapshot whose file of ``kind`` holds the base row, then ``row``."""
    root.mkdir(parents=True)
    attributes = [",".join(attribute_fields(attr)) for attr in STANDARD_ATTRIBUTES]
    files = {Store.ATTRIBUTES_FILE: ["name,abbreviation,unit,polarity", *attributes],
             Store.SLOS_FILE: [HEADERS["slo"], BASE_SLO],
             Store.AMVS_FILE: [HEADERS["amv"], BASE_AMV]}
    files[Store.SLOS_FILE if kind == "slo" else Store.AMVS_FILE].append(row)
    for name, lines in files.items():
        (root / name).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return Store(root)


def main() -> int:
    mismatches = []
    with tempfile.TemporaryDirectory() as work:
        base = Path(work) / "base" / "store"
        base.parent.mkdir()
        base_store(base)
        for name, kind, row, outcome, _ in CORPUS:
            got, path = submitted(base, Path(work) / name, kind, row)
            wanted = expected_submission(kind, outcome, path)
            if got != wanted:
                mismatches.append(f"{name}: got {got!r}, expected {wanted!r}")
    for line in mismatches:
        print(line, file=sys.stderr)
    print(f"{len(CORPUS) - len(mismatches)} of {len(CORPUS)} corpus rows as expected")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
