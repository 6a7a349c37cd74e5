import csv
import io
import itertools
import json
import re
from importlib import resources

import pytest

from conftest import CASE_INTERVALS, CASE_PROVIDERS, COST_ONLY_CHAIN, REQUEST_SPANS
from fastcloud.cli import build_parser, main
from fastcloud.intervals import IntervalNumber
from fastcloud.registry import (
    STANDARD_ATTRIBUTES,
    AmvRecord,
    Polarity,
    QosAttribute,
    Registry,
    SloRecord,
    Store,
    UnknownAttributeError,
    import_qws,
)
from fastcloud.selection import AssessmentRequest, assess, read_request, result_document


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def store_dir(tmp_path):
    store = tmp_path / "store"
    assert main(["--store", str(store), "register-attributes", "--qws-defaults"]) == 0
    return store


def seed_case_store(store_dir, tmp_path):
    """Build the reference scenario store through the CLI itself."""
    slo_rows, amv_rows = [], []
    for csp_id, row in zip(CASE_PROVIDERS, CASE_INTERVALS):
        for attr, (lo, hi) in zip(STANDARD_ATTRIBUTES, row):
            for csc_id, value in ((f"{csp_id}-c1", lo), (f"{csp_id}-c2", hi)):
                slo_rows.append([csp_id, csc_id, attr.abbreviation, value])
                amv_rows.append([csp_id, csc_id, attr.abbreviation, value, ""])
    slo_file = tmp_path / "slos.csv"
    amv_file = tmp_path / "amvs.csv"
    write_csv(slo_file, ["csp_id", "csc_id", "attribute", "value"], slo_rows)
    write_csv(amv_file, ["csp_id", "csc_id", "attribute", "value", "sequence"], amv_rows)
    assert main(["--store", str(store_dir), "submit-slo", str(slo_file)]) == 0
    assert main(["--store", str(store_dir), "submit-amv", str(amv_file)]) == 0


def write_request(tmp_path, spans=REQUEST_SPANS):
    request_file = tmp_path / "request.csv"
    rows = [
        [attr.abbreviation, lo, hi]
        for attr, (lo, hi) in zip(STANDARD_ATTRIBUTES, spans)
    ]
    write_csv(request_file, ["attribute", "min", "max"], rows)
    return request_file


class TestStoreResolution:
    def test_flag_missing_and_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("FASTCLOUD_STORE", raising=False)
        assert main(["register-attributes", "--qws-defaults"]) == 2
        assert "store" in capsys.readouterr().err
        monkeypatch.setenv("FASTCLOUD_STORE", str(tmp_path / "envstore"))
        assert main(["register-attributes", "--qws-defaults"]) == 0

    def test_assess_on_a_missing_store_is_an_io_error_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "typo"
        request_file = write_request(tmp_path)
        assert main(["--store", str(missing), "assess", str(request_file)]) == 4
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    def test_assess_on_a_directory_without_a_store_leaves_it_as_it_was(self, tmp_path, capsys):
        empty = tmp_path / "notastore"
        empty.mkdir()
        request_file = write_request(tmp_path)
        assert main(["--store", str(empty), "assess", str(request_file)]) == 4
        assert f"error: {empty} holds no store" in capsys.readouterr().err
        assert list(empty.iterdir()) == []


class TestSubmitSlo:
    def test_accept_then_replace(self, store_dir, tmp_path, capsys):
        path = tmp_path / "s.csv"
        rows = [[f"p{i}", "c", "av", 50 + i] for i in range(5)]
        write_csv(path, ["csp_id", "csc_id", "attribute", "value"], rows)
        assert main(["--store", str(store_dir), "submit-slo", str(path)]) == 0
        assert "5 accepted, 0 replaced" in capsys.readouterr().out
        assert main(["--store", str(store_dir), "submit-slo", str(path)]) == 0
        assert "0 accepted, 5 replaced" in capsys.readouterr().out

    def test_missing_file_is_io_error(self, store_dir, capsys):
        assert main(["--store", str(store_dir), "submit-slo", "nope.csv"]) == 4
        assert "nope.csv" in capsys.readouterr().err

    def test_malformed_lines_reported_all_failing_exits_nonzero(
        self, store_dir, tmp_path, capsys
    ):
        path = tmp_path / "bad.csv"
        write_csv(path, ["csp_id", "csc_id", "attribute", "value"],
                  [["p", "c", "av", "x"], ["p", "c", "missing", 5]])
        assert main(["--store", str(store_dir), "submit-slo", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "line 3" in err

    def test_non_finite_value_fails_its_line(self, store_dir, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        write_csv(path, ["csp_id", "csc_id", "attribute", "value"],
                  [["p", "c", "av", "nan"], ["q", "c", "av", 90]])
        assert main(["--store", str(store_dir), "submit-slo", str(path)]) == 0
        captured = capsys.readouterr()
        assert "1 accepted, 0 replaced, 1 failed" in captured.out
        assert "line 2" in captured.err and "finite" in captured.err
        assert list(Store(store_dir).load().slos) == [("q", "c", "availability")]


class TestRecordFiles:
    def test_store_files_are_accepted_by_the_submit_commands(self, tmp_path, capsys):
        registry = Registry()
        for attr in STANDARD_ATTRIBUTES + (QosAttribute("cost", "co", "usd", Polarity.COST),):
            registry.register_attribute(attr)
        registry.submit_slo(SloRecord("p1", "c1", "av", 90.5))
        registry.submit_slo(SloRecord("p2", "c1", "co", 0.1))
        for sequence in (2, 1, 5):
            registry.submit_amv(AmvRecord("p1", "c1", "av", 90 + sequence / 3, sequence))
        registry.submit_amv(AmvRecord("p2", "c1", "co", 0.3))
        source = Store(tmp_path / "source")
        source.save(registry)
        loaded = source.load()
        assert (loaded.attributes, loaded.slos, loaded.amvs) == (
            registry.attributes, registry.slos, registry.amvs)
        target = tmp_path / "target"
        for command, name, summary in (
            ("register-attributes", Store.ATTRIBUTES_FILE, "7 attributes registered"),
            ("submit-slo", Store.SLOS_FILE, "2 accepted, 0 replaced"),
            ("submit-amv", Store.AMVS_FILE, "4 appended"),
        ):
            assert main(["--store", str(target), command, str(source.root / name)]) == 0
            assert capsys.readouterr().out.strip() == summary
        copied = Store(target).load()
        assert (copied.attributes, copied.slos, copied.amvs) == (
            registry.attributes, registry.slos, registry.amvs)

    def test_short_row_fails_its_line(self, store_dir, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("csp_id,csc_id,attribute,value\np,c\nq,c,av,90\n", encoding="utf-8")
        assert main(["--store", str(store_dir), "submit-slo", str(path)]) == 0
        captured = capsys.readouterr()
        assert "1 accepted, 0 replaced, 1 failed" in captured.out
        assert "line 2: malformed row" in captured.err

    def test_empty_ids_refused(self, store_dir, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("csp_id,csc_id,attribute,value\n,,av,90\n", encoding="utf-8")
        assert main(["--store", str(store_dir), "submit-slo", str(path)]) == 2
        captured = capsys.readouterr()
        assert "0 accepted, 0 replaced, 1 failed" in captured.out
        assert "line 2: provider and consumer ids must be non-empty" in captured.err
        assert Store(store_dir).load().slos == {}

    def test_over_long_field_names_file_and_line(self, store_dir, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("csp_id,csc_id,attribute,value\n" + "p" * 200_000 + ",c,av,90\n",
                        encoding="utf-8")
        assert main(["--store", str(store_dir), "submit-slo", str(path)]) == 2
        assert f"{path}: line 2: field larger than field limit" in capsys.readouterr().err
        sample = resources.files("fastcloud") / "data" / "qws_sample.csv"
        lines = sample.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(lines[0] + lines[1] + "x" * 200_000 + lines[2], encoding="utf-8")
        assert main(["--store", str(store_dir), "import-qws", str(path)]) == 2
        assert "line 3: field larger than field limit" in capsys.readouterr().err
        assert len(Store(store_dir).load().amvs) == 0

    def test_blank_lines_skipped_and_lines_physical(self, store_dir, tmp_path, capsys):
        slo = tmp_path / "s.csv"
        write_csv(slo, ["csp_id", "csc_id", "attribute", "value"], [["p", "c", "av", 50]])
        assert main(["--store", str(store_dir), "submit-slo", str(slo)]) == 0
        amv = tmp_path / "a.csv"
        amv.write_text("csp_id,csc_id,attribute,value,sequence\n\np,c,av,51,\n\n\n"
                       "p,c,av,x,\n", encoding="utf-8")
        assert main(["--store", str(store_dir), "submit-amv", str(amv)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().endswith("1 appended, 1 failed")
        assert "line 6:" in captured.err

    def test_other_header_names_the_file(self, store_dir, tmp_path, capsys):
        path = tmp_path / "s.csv"
        write_csv(path, ["csp_id", "attribute", "value"], [["p", "av", 50]])
        assert main(["--store", str(store_dir), "submit-slo", str(path)]) == 2
        assert (f"{path}: line 1: header must be 'csp_id,csc_id,attribute,value'"
                in capsys.readouterr().err)

    def test_refused_attribute_row_registers_nothing(self, tmp_path, capsys):
        path = tmp_path / "attrs.csv"
        write_csv(path, ["name", "abbreviation", "unit", "polarity"],
                  [["cost", "co", "usd", "Cost"], ["energy", "en", "kwh", "green"]])
        store = tmp_path / "store"
        assert main(["--store", str(store), "register-attributes", str(path)]) == 2
        assert "line 3:" in capsys.readouterr().err
        assert Store(store).load().attributes == {}

    def test_registering_the_defaults_again_changes_nothing(self, store_dir):
        before = (store_dir / Store.ATTRIBUTES_FILE).read_bytes()
        assert main(["--store", str(store_dir), "register-attributes", "--qws-defaults"]) == 0
        assert (store_dir / Store.ATTRIBUTES_FILE).read_bytes() == before

    def test_count_is_of_the_definitions_that_changed_the_registry(self, store_dir, tmp_path,
                                                                    capsys):
        path = tmp_path / "attrs.csv"
        write_csv(path, ["name", "abbreviation", "unit", "polarity"],
                  [["cost", "co", "usd", "cost"], ["availability", "av", "%", "benefit"],
                   ["cost", "co", "usd", "cost"]])
        empty = tmp_path / "empty.csv"
        write_csv(empty, ["name", "abbreviation", "unit", "polarity"], [])
        for argv, out in ((["--qws-defaults"], "0 attributes registered"),
                          ([str(path)], "1 attributes registered"),
                          ([str(path), "--qws-defaults"], "0 attributes registered")):
            assert main(["--store", str(store_dir), "register-attributes"] + argv) == 0
            assert capsys.readouterr().out.strip() == out
        assert main(["--store", str(store_dir), "register-attributes", str(empty)]) == 2
        assert "nothing to register" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [["uptime", "", "%", "benefit"], ["", "", "%", "benefit"]],
                             ids=["abbreviation", "name-and-abbreviation"])
    def test_empty_spelling_refused_at_its_line(self, store_dir, tmp_path, capsys, row):
        path = tmp_path / "attrs.csv"
        write_csv(path, ["name", "abbreviation", "unit", "polarity"], [row])
        before = (store_dir / Store.ATTRIBUTES_FILE).read_bytes()
        assert main(["--store", str(store_dir), "register-attributes", str(path)]) == 2
        assert (f"{path}: line 2: attribute name and abbreviation must be non-empty without "
                "surrounding whitespace" in capsys.readouterr().err)
        assert (store_dir / Store.ATTRIBUTES_FILE).read_bytes() == before
        # an SLO row with an empty attribute names no attribute
        slo = tmp_path / "s.csv"
        write_csv(slo, ["csp_id", "csc_id", "attribute", "value"], [["p1", "c1", "", 90]])
        assert main(["--store", str(store_dir), "submit-slo", str(slo)]) == 2
        assert f"{slo}: line 2: unknown attribute ''" in capsys.readouterr().err

    @pytest.mark.parametrize("row",[["availability", "avl", "%", "benefit"],
                                     ["availability", "av", "ratio", "benefit"]],
                             ids=["abbreviation", "unit"])
    def test_changed_definition_refused_naming_the_stored_one(self, store_dir, tmp_path,
                                                              capsys, row):
        path = tmp_path / "attrs.csv"
        write_csv(path, ["name", "abbreviation", "unit", "polarity"], [row])
        before = (store_dir / Store.ATTRIBUTES_FILE).read_bytes()
        assert main(["--store", str(store_dir), "register-attributes", str(path)]) == 2
        assert (f"{path}: line 2: attribute 'availability' already registered as "
                "'availability,av,%,benefit'" in capsys.readouterr().err)
        assert (store_dir / Store.ATTRIBUTES_FILE).read_bytes() == before
        assert Store(store_dir).load().resolve_attribute("av").name == "availability"


class TestSubmitAmv:
    def test_append_and_skip_duplicates(self, store_dir, tmp_path, capsys):
        slo = tmp_path / "s.csv"
        write_csv(slo, ["csp_id", "csc_id", "attribute", "value"], [["p", "c", "av", 50]])
        main(["--store", str(store_dir), "submit-slo", str(slo)])
        amv = tmp_path / "a.csv"
        write_csv(amv, ["csp_id", "csc_id", "attribute", "value", "sequence"],
                  [["p", "c", "av", 51, 1], ["p", "c", "av", 52, 2], ["p", "c", "av", 53, 3]])
        assert main(["--store", str(store_dir), "submit-amv", str(amv)]) == 0
        assert "3 appended" in capsys.readouterr().out
        assert main(["--store", str(store_dir), "submit-amv", str(amv)]) == 0
        assert "3 duplicates skipped" in capsys.readouterr().out

    def test_conflicting_sequence_fails_its_line(self, store_dir, tmp_path, capsys):
        slo = tmp_path / "s.csv"
        write_csv(slo, ["csp_id", "csc_id", "attribute", "value"], [["p", "c", "av", 50]])
        main(["--store", str(store_dir), "submit-slo", str(slo)])
        amv = tmp_path / "a.csv"
        write_csv(amv, ["csp_id", "csc_id", "attribute", "value", "sequence"],
                  [["p", "c", "av", 51, 1], ["p", "c", "av", 52, 1]])
        assert main(["--store", str(store_dir), "submit-amv", str(amv)]) == 0
        captured = capsys.readouterr()
        assert "1 appended, 1 failed" in captured.out
        assert "line 3" in captured.err and "refusing to overwrite" in captured.err

    def test_store_with_repeated_sequence_refused(self, store_dir, capsys):
        (store_dir / Store.AMVS_FILE).write_text(
            "csp_id,csc_id,attribute,value,sequence\n"
            "p,c,availability,5.0,1\n"
            "p,c,availability,5.0,1\n", encoding="utf-8")
        assert main(["--store", str(store_dir), "register-attributes", "--qws-defaults"]) == 2
        assert "duplicate submission" in capsys.readouterr().err

    def test_store_refusal_names_file_and_line(self, store_dir, capsys):
        (store_dir / Store.AMVS_FILE).write_text(
            "csp_id,csc_id,attribute,value,sequence\n"
            "p,c,availability,5.0,1\n"
            "p,c,availability,6.0,2\n"
            "p,c,availability,5.0,1\n", encoding="utf-8")
        assert main(["--store", str(store_dir), "register-attributes", "--qws-defaults"]) == 2
        err = capsys.readouterr().err
        assert f"{store_dir / Store.AMVS_FILE}: line 4: duplicate submission" in err

    def test_store_short_row_refused_with_line(self, store_dir, capsys):
        (store_dir / Store.SLOS_FILE).write_text(
            "csp_id,csc_id,attribute,value\n"
            "p,c,av,90\n"
            "q,c\n", encoding="utf-8")
        assert main(["--store", str(store_dir), "register-attributes", "--qws-defaults"]) == 2
        err = capsys.readouterr().err
        assert "slos.csv: line 3: malformed row" in err

    def test_amv_without_slo_rejected(self, store_dir, tmp_path, capsys):
        amv = tmp_path / "a.csv"
        write_csv(amv, ["csp_id", "csc_id", "attribute", "value", "sequence"],
                  [["ghost", "c", "av", 51, ""]])
        assert main(["--store", str(store_dir), "submit-amv", str(amv)]) == 2
        assert "no agreed SLO" in capsys.readouterr().err

    def test_row_with_two_faults_refused_alike_by_submit_and_load(self, store_dir, tmp_path,
                                                                   capsys):
        # an empty provider id and a value that is not a number
        text = "csp_id,csc_id,attribute,value,sequence\n,c,av,abc,1\n"
        refusal = "line 2: could not convert string to float: 'abc'"
        amv = tmp_path / "a.csv"
        amv.write_text(text, encoding="utf-8")
        assert main(["--store", str(store_dir), "submit-amv", str(amv)]) == 2
        assert f"  {amv}: {refusal}\n" in capsys.readouterr().err
        (store_dir / Store.AMVS_FILE).write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as loaded:
            Store(store_dir).load()
        assert str(loaded.value) == f"{store_dir / Store.AMVS_FILE}: {refusal}"


class TestUndecodableInputFile:
    """A byte that is not UTF-8 past an input file's first 8 KB is refused at its line."""

    SAMPLE = resources.files("fastcloud") / "data" / "qws_sample.csv"
    QWS_HEADER, QWS_ROW = SAMPLE.read_text(encoding="utf-8").splitlines()[:2]

    @pytest.mark.parametrize("command, header, row", [
        ("register-attributes", "name,abbreviation,unit,polarity", "attr{i},a{i},ms,cost"),
        ("submit-slo", "csp_id,csc_id,attribute,value", "p{i},c,av,90"),
        ("submit-amv", "csp_id,csc_id,attribute,value,sequence", "p{i},c,av,90,1"),
        ("import-qws", QWS_HEADER, QWS_ROW),
        ("assess", "attribute,min,max", "av,{i},1000"),
    ], ids=["register-attributes", "submit-slo", "submit-amv", "import-qws", "assess"])
    def test_refused_at_its_line(self, store_dir, tmp_path, capsys, command, header, row):
        rows = [row.replace("{i}", str(i)).encode() for i in range(1000)]
        rows[900] = b"\xff" + rows[900][1:]  # physical line 902, after the header
        path = tmp_path / "input.csv"
        path.write_bytes(b"\n".join([header.encode(), *rows, b""]))
        assert path.read_bytes().index(b"\xff") > 8192
        assert main(["--store", str(store_dir), command, str(path)]) == 2
        assert f"{path}: line 902: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


class TestRefusalRule:
    """Each input refusal names its file, and its line unless the file is empty.

    The fault's own report reads ``error: <path>: line N: <reason>`` or, for
    a row the command skips, ``  <path>: line N: <reason>``; every other
    stderr line of the run names the file too.
    """

    QWS_HEADER, QWS_ROW = TestUndecodableInputFile.QWS_HEADER, TestUndecodableInputFile.QWS_ROW
    # input -> (header, a refused row); the store files are reached through assess
    INPUTS = {
        "register-attributes": ("name,abbreviation,unit,polarity", "energy,en,kwh,green"),
        "submit-slo": ("csp_id,csc_id,attribute,value", "p,c,av,-1"),
        "submit-amv": ("csp_id,csc_id,attribute,value,sequence", "p,c,av,-1,1"),
        "import-qws": (QWS_HEADER, "x," + QWS_ROW.partition(",")[2]),  # Response Time "x"
        "assess": ("attribute,min,max", "av,100,50"),
        Store.ATTRIBUTES_FILE: ("name,abbreviation,unit,polarity", "energy,en,kwh,green"),
        Store.SLOS_FILE: ("csp_id,csc_id,attribute,value", "p,c,av,-1"),
        Store.AMVS_FILE: ("csp_id,csc_id,attribute,value,sequence", "p,c,av,-1,1"),
    }
    # fault -> (file text, with the input's header and refused row, and the line named)
    FAULTS = {
        "empty": ("", None),
        "other-header": ("nope,nope\n", 1),
        "unreadable-row": ("{header}\n\n{long}\n", 3),
        "refused-row": ("{header}\n{row}\n", 2),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("target", INPUTS)
    def test_refusal_names_file_and_line(self, store_dir, tmp_path, capsys, target, fault):
        header, row = self.INPUTS[target]
        text, line = self.FAULTS[fault]
        if target.endswith(".csv"):
            path = store_dir / target
            argv = ["assess", str(write_request(tmp_path))]
        else:
            path = tmp_path / "input.csv"
            argv = [target, str(path)]
        path.write_text(text.format(header=header, row=row, long="x" * 200_000), encoding="utf-8")
        code = main(["--store", str(store_dir), *argv])
        assert code == (0 if (target, fault) == ("import-qws", "refused-row") else 2)
        err = capsys.readouterr().err.splitlines()
        assert err and all(report.startswith((f"error: {path}: ", f"  {path}: "))
                           for report in err)
        reason = err[0].partition(f"{path}: ")[2]
        assert (reason == "file is empty") if line is None else reason.startswith(f"line {line}: ")

    def test_import_header_faults_name_the_dataset(self, store_dir, tmp_path, capsys):
        path = tmp_path / "q.csv"
        path.write_text(f"{self.QWS_HEADER}\n{self.QWS_ROW}\n", encoding="utf-8")
        assert main(["--store", str(store_dir), "import-qws", str(path),
                     "--service-column", "Service"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: service identity column 'Service' missing from header\n")
        assert main(["--store", str(store_dir), "import-qws", str(path), "--map", "Nope=av"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: mapped columns missing from header: Nope\n")

    def test_refusal_not_about_a_file_keeps_its_text(self, store_dir, tmp_path, capsys):
        sample = resources.files("fastcloud") / "data" / "qws_sample.csv"
        assert main(["--store", str(store_dir), "import-qws", str(sample),
                     "--map", "Availability=zz"]) == 2
        assert capsys.readouterr().err == "error: unknown attribute 'zz'\n"
        request_file = write_request(tmp_path)
        assert main(["--store", str(store_dir), "assess", str(request_file),
                     "--attributes", "zz"]) == 2
        assert capsys.readouterr().err == "error: unknown attribute 'zz'\n"


class TestParser:
    def test_built_once_and_reused_across_calls(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        fresh = build_parser.__wrapped__
        with pytest.raises(SystemExit) as failed:
            main(["assess"])
        err = capsys.readouterr().err
        with pytest.raises(SystemExit) as fresh_failed:
            fresh().parse_args(["assess"])
        assert failed.value.code == fresh_failed.value.code == 2
        assert err == capsys.readouterr().err
        assert "the following arguments are required: request" in err

        store = tmp_path / "store"
        slo = tmp_path / "s.csv"
        write_csv(slo, ["csp_id", "csc_id", "attribute", "value"], [["p", "c", "av", 50]])
        for argv, out in (
            (["--store", str(store), "register-attributes", "--qws-defaults"],
             "6 attributes registered"),
            (["-v", "-s", str(store), "submit-slo", str(slo)], "1 accepted, 0 replaced"),
        ):
            assert vars(build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
            assert main(argv) == 0
            assert capsys.readouterr().out.strip() == out


class TestAssess:
    def test_full_run_prints_deterministic_chain(self, store_dir, tmp_path, capsys):
        seed_case_store(store_dir, tmp_path)
        request_file = write_request(tmp_path)
        capsys.readouterr()  # drop the seeding output
        assert main(["--store", str(store_dir), "assess", str(request_file)]) == 0
        first = capsys.readouterr().out
        assert first.startswith("ranking: ")
        chain = first.splitlines()[0].removeprefix("ranking: ")
        assert set(chain.split(" > ")) == set(CASE_PROVIDERS)
        assert main(["--store", str(store_dir), "assess", str(request_file)]) == 0
        assert capsys.readouterr().out == first

    def test_cost_only_filter_chain(self, store_dir, tmp_path, capsys):
        seed_case_store(store_dir, tmp_path)
        request_file = write_request(tmp_path)
        capsys.readouterr()
        # the request file spells the attributes by abbreviation
        for subset in ("la,res", "latency,response_time"):
            assert main([
                "--store", str(store_dir), "assess", str(request_file),
                "--attributes", subset,
            ]) == 0
            assert f"ranking: {COST_ONLY_CHAIN}" in capsys.readouterr().out

    def test_one_attribute_requested_twice_names_both_spellings(
            self, store_dir, tmp_path, capsys):
        seed_case_store(store_dir, tmp_path)
        request_file = tmp_path / "request.csv"
        write_csv(request_file, ["attribute", "min", "max"],
                  [["av", 0, 100], ["la", 0, 100], ["availability", 50, 100]])
        capsys.readouterr()
        assert main(["--store", str(store_dir), "assess", str(request_file)]) == 2
        assert capsys.readouterr().err == (
            "error: requested attributes 'av' and 'availability' both name 'availability'\n")

    def test_an_empty_subset_is_refused(self, store_dir, tmp_path, capsys):
        seed_case_store(store_dir, tmp_path)
        request_file = write_request(tmp_path)
        capsys.readouterr()
        assert main(["--store", str(store_dir), "assess", str(request_file),
                     "--attributes", ""]) == 2
        assert capsys.readouterr().err == "error: unknown attribute ''\n"

    @pytest.mark.parametrize("subset, entries", [
        ("av", "requested attributes 'av' and 'availability'"),
        ("la", "requested attributes 'av' and 'availability'"),
        # a subset at fault too is refused first
        ("availability,av", "selected attributes 'availability' and 'av'"),
    ], ids=["av", "la", "availability,av"])
    def test_two_spellings_refused_whichever_subset_is_taken(
            self, store_dir, tmp_path, capsys, subset, entries):
        seed_case_store(store_dir, tmp_path)
        request_file = tmp_path / "request.csv"
        write_csv(request_file, ["attribute", "min", "max"],
                  [["av", 0, 1e6], ["availability", 0, 1], ["la", 0, 1e6]])
        capsys.readouterr()
        assert main(["--store", str(store_dir), "assess", str(request_file),
                     "--attributes", subset]) == 2
        assert capsys.readouterr().err == f"error: {entries} both name 'availability'\n"

    def test_structured_output_is_diffable(self, store_dir, tmp_path, capsys):
        seed_case_store(store_dir, tmp_path)
        request_file = write_request(tmp_path)
        capsys.readouterr()
        outputs, texts = [], []
        for _ in range(2):
            assert main([
                "--store", str(store_dir), "assess", str(request_file),
                "--format", "structured",
            ]) == 0
            texts.append(capsys.readouterr().out)
            doc = json.loads(texts[-1])
            doc.pop("elapsed_seconds")
            outputs.append(json.dumps(doc))
        assert outputs[0] == outputs[1]

        # the same document as the library's, and as the indented dump of it
        with open(request_file, newline="", encoding="utf-8") as fh:
            expected = result_document(assess(Store(store_dir).load(), read_request(fh)))
        expected.pop("elapsed_seconds")
        assert json.loads(outputs[0]) == expected
        assert json.loads(outputs[0]) == json.loads(json.dumps(expected, indent=2))

        # one line per top-level key, and one per element of a top-level list
        doc = json.loads(texts[0])
        lines = texts[0].splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        at = 1
        for key, value in doc.items():
            head = f"  {json.dumps(key)}: "
            assert lines[at].startswith(head)
            if isinstance(value, list) and value:
                assert lines[at] == head + "["
                elements = lines[at + 1:at + 1 + len(value)]
                assert all(line.startswith("    ") for line in elements)
                assert [json.loads(line.rstrip(",")) for line in elements] == value
                at += len(value) + 1
                assert lines[at].rstrip(",") == "  ]"
            else:
                assert json.loads(lines[at][len(head):].rstrip(",")) == value
            at += 1
        assert at == len(lines) - 1
        assert lines[1] == '  "request": ['

        # --out writes the text that stdout prints, elapsed_seconds aside
        out = tmp_path / "result.json"
        assert main(["--store", str(store_dir), "assess", str(request_file),
                     "--format", "structured", "--out", str(out)]) == 0
        capsys.readouterr()

        def timeless(text):
            return re.sub(r'"elapsed_seconds": \S+', '"elapsed_seconds": 0', text)

        assert timeless(out.read_text(encoding="utf-8")) == timeless(texts[0])

    def test_out_file(self, store_dir, tmp_path, capsys):
        seed_case_store(store_dir, tmp_path)
        request_file = write_request(tmp_path)
        out = tmp_path / "result.json"
        assert main([
            "--store", str(store_dir), "assess", str(request_file),
            "--format", "structured", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["candidates"] == list(CASE_PROVIDERS)

    @staticmethod
    def seed_latency_store(store_dir, tmp_path, monitored):
        """One latency SLO of 50 per provider, monitored once at the given value."""
        slo_file = tmp_path / "slos.csv"
        amv_file = tmp_path / "amvs.csv"
        write_csv(slo_file, ["csp_id", "csc_id", "attribute", "value"],
                  [[csp_id, "c", "la", 50] for csp_id in monitored])
        write_csv(amv_file, ["csp_id", "csc_id", "attribute", "value", "sequence"],
                  [[csp_id, "c", "la", value, ""] for csp_id, value in monitored.items()])
        assert main(["--store", str(store_dir), "submit-slo", str(slo_file)]) == 0
        assert main(["--store", str(store_dir), "submit-amv", str(amv_file)]) == 0
        request_file = tmp_path / "request.csv"
        write_csv(request_file, ["attribute", "min", "max"], [["la", 0, 100]])
        return request_file

    def test_zero_rate_cost_provider_excluded(self, store_dir, tmp_path, capsys):
        # d misses its only latency check: actual interval [0, 0]
        request_file = self.seed_latency_store(
            store_dir, tmp_path, {"a": 40, "b": 45, "d": 90})
        capsys.readouterr()
        assert main(["--store", str(store_dir), "assess", str(request_file),
                     "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["candidates"] == ["a", "b"]
        assert sorted(doc["chain"].split(" > ")) == ["a", "b"]

    def test_zero_rate_cost_provider_leaves_one(self, store_dir, tmp_path, capsys):
        request_file = self.seed_latency_store(store_dir, tmp_path, {"a": 40, "d": 90})
        capsys.readouterr()
        assert main(["--store", str(store_dir), "assess", str(request_file)]) == 3
        err = capsys.readouterr().err
        assert "only a matched" in err
        assert err == ("error: insufficient candidates for a ranking (only a matched; "
                       "d excluded: zero consistency rate on cost attribute 'latency'); "
                       "leave the attributes named above out of the request\n")

    def test_subnormal_cost_slo_overflow_exits_2_naming_attribute(
            self, store_dir, tmp_path, capsys):
        # 1 / 1e-320 is inf, so normalizing the latency column overflows
        slo_file, amv_file = tmp_path / "slos.csv", tmp_path / "amvs.csv"
        write_csv(slo_file, ["csp_id", "csc_id", "attribute", "value"],
                  [["a", "u", "la", "1e-320"], ["b", "u", "la", 50]])
        write_csv(amv_file, ["csp_id", "csc_id", "attribute", "value", "sequence"],
                  [["a", "u", "la", 0, ""], ["b", "u", "la", 40, ""]])
        assert main(["--store", str(store_dir), "submit-slo", str(slo_file)]) == 0
        assert main(["--store", str(store_dir), "submit-amv", str(amv_file)]) == 0
        request_file = tmp_path / "request.csv"
        write_csv(request_file, ["attribute", "min", "max"], [["la", 0, 100]])
        capsys.readouterr()
        assert main(["--store", str(store_dir), "assess", str(request_file)]) == 2
        err = capsys.readouterr().err
        assert err == "error: cost attribute 'latency' overflows when normalized\n"

    def test_every_benefit_rate_zero_exits_3(self, store_dir, tmp_path, capsys):
        slo_file, amv_file = tmp_path / "slos.csv", tmp_path / "amvs.csv"
        write_csv(slo_file, ["csp_id", "csc_id", "attribute", "value"],
                  [["a", "c", "av", 90], ["b", "c", "av", 90]])
        write_csv(amv_file, ["csp_id", "csc_id", "attribute", "value", "sequence"],
                  [["a", "c", "av", 80, ""], ["b", "c", "av", 70, ""]])
        assert main(["--store", str(store_dir), "submit-slo", str(slo_file)]) == 0
        assert main(["--store", str(store_dir), "submit-amv", str(amv_file)]) == 0
        request_file = tmp_path / "request.csv"
        write_csv(request_file, ["attribute", "min", "max"], [["av", 0, 100]])
        capsys.readouterr()
        assert main(["--store", str(store_dir), "assess", str(request_file)]) == 3
        err = capsys.readouterr().err
        assert "no candidate met any of their 'availability' objectives" in err

    def test_stored_abbreviations_rank_as_submitted(self, tmp_path, capsys):
        slos = [["p1", "c1", "av", 90], ["p1", "c2", "av", 90],
                ["p2", "c1", "av", 80], ["p2", "c2", "av", 80]]
        amvs = [["p1", "c1", "av", 95, 1], ["p1", "c2", "av", 85, 1],
                ["p2", "c1", "av", 85, 1], ["p2", "c2", "av", 90, 1]]
        slo_file, amv_file = tmp_path / "s.csv", tmp_path / "a.csv"
        write_csv(slo_file, ["csp_id", "csc_id", "attribute", "value"], slos)
        write_csv(amv_file, ["csp_id", "csc_id", "attribute", "value", "sequence"], amvs)
        request_file = tmp_path / "request.csv"
        write_csv(request_file, ["attribute", "min", "max"], [["av", 0, 100]])
        documents = []
        for name, written in (("submitted", False), ("written", True)):
            store = tmp_path / name
            for argv in (["register-attributes", "--qws-defaults"],
                         ["submit-slo", str(slo_file)]):
                assert main(["--store", str(store)] + argv) == 0
            if written:  # amvs.csv in the store names the attribute by abbreviation
                write_csv(store / Store.AMVS_FILE,
                          ["csp_id", "csc_id", "attribute", "value", "sequence"], amvs)
            else:
                assert main(["--store", str(store), "submit-amv", str(amv_file)]) == 0
            capsys.readouterr()
            assert main(["--store", str(store), "assess", str(request_file),
                         "--format", "structured"]) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("elapsed_seconds")
            documents.append(doc)
        assert documents[0] == documents[1]
        assert documents[0]["chain"] == "p2 > p1"
        assert main(["--store", str(tmp_path / "written"), "submit-amv", str(amv_file)]) == 0
        assert "0 appended, 4 duplicates skipped" in capsys.readouterr().out

    def test_insufficient_candidates_exit_code(self, store_dir, tmp_path, capsys):
        request_file = write_request(tmp_path)
        assert main(["--store", str(store_dir), "assess", str(request_file)]) == 3
        assert "insufficient candidates" in capsys.readouterr().err

    def test_request_row_without_an_attribute_is_refused_at_its_line(
            self, store_dir, tmp_path, capsys):
        seed_case_store(store_dir, tmp_path)
        request_file = tmp_path / "request.csv"
        request_file.write_text("attribute,min,max\n,1,100\n", encoding="utf-8")
        assert main(["--store", str(store_dir), "assess", str(request_file)]) == 2
        assert capsys.readouterr().err == f"error: {request_file}: line 2: missing attribute name\n"


class TestImportQws:
    def test_bundled_sample_round_trip(self, store_dir, capsys):
        sample = resources.files("fastcloud") / "data" / "qws_sample.csv"
        assert main(["--store", str(store_dir), "import-qws", str(sample)]) == 0
        out = capsys.readouterr().out
        assert "50 rows accepted, 0 rejected" in out
        assert "300 records added" in out
        assert main(["--store", str(store_dir), "import-qws", str(sample)]) == 0
        out = capsys.readouterr().out
        assert "0 records added" in out
        assert "300 duplicates skipped" in out
        registry = Store(store_dir).load()
        assert len(registry.amvs) == 300

    def test_reimport_conflict_reported_with_line(self, store_dir, tmp_path, capsys):
        sample = resources.files("fastcloud") / "data" / "qws_sample.csv"
        lines = sample.read_text(encoding="utf-8").splitlines(keepends=True)
        first = tmp_path / "one.csv"
        first.write_text("".join(lines[:2]), encoding="utf-8")
        assert main(["--store", str(store_dir), "import-qws", str(first)]) == 0
        assert "6 records added" in capsys.readouterr().out
        header = [h.strip() for h in next(csv.reader(lines[:1]))]
        row = next(csv.reader(lines[1:2]))
        column = header.index("Availability")
        row[column] = str(float(row[column]) + 1)
        changed = tmp_path / "changed.csv"
        write_csv(changed, header, [row])
        assert main(["--store", str(store_dir), "import-qws", str(changed)]) == 0
        captured = capsys.readouterr()
        assert "0 records added, 5 duplicates skipped, 1 conflicting" in captured.out
        assert "line 2" in captured.err and "refusing to overwrite" in captured.err

    def test_row_without_a_service_name_is_rejected_and_counted(
            self, store_dir, tmp_path, capsys):
        sample = resources.files("fastcloud") / "data" / "qws_sample.csv"
        header, first = sample.read_text(encoding="utf-8").splitlines()[:2]
        fields = next(csv.reader([first]))
        fields[next(csv.reader([header])).index("Service Name")] = ""
        path = tmp_path / "q.csv"
        write_csv(path, next(csv.reader([header])), [fields, next(csv.reader([first]))])
        assert main(["--store", str(store_dir), "import-qws", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"  {path}: line 2: missing service identity\n"
        assert captured.out.startswith("1 rows accepted, 1 rejected; 6 records added")

    def test_bad_mapping_lists_missing_columns(self, store_dir, tmp_path, capsys):
        sample = resources.files("fastcloud") / "data" / "qws_sample.csv"
        assert main([
            "--store", str(store_dir), "import-qws", str(sample),
            "--map", "NotAColumn=av",
        ]) == 2
        assert "NotAColumn" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, reason", [
        ("Availability=av,Reliability=availability",
         "mapped columns 'Availability' and 'Reliability' both name 'availability'"),
        ("Availability=av,Availability=re", "bad --map: column 'Availability' is mapped twice"),
        (" =av", "bad --map entry ' =av': expected COLUMN=attribute"),
        ("", "bad --map entry '': expected COLUMN=attribute"),
    ], ids=["two-columns-one-attribute", "one-column-twice", "blank-column", "empty"])
    def test_a_mapping_that_drops_or_names_no_column_is_refused(
            self, store_dir, capsys, spec, reason):
        sample = resources.files("fastcloud") / "data" / "qws_sample.csv"
        files = {path.name: path.read_bytes() for path in store_dir.iterdir()}
        assert main(["--store", str(store_dir), "import-qws", str(sample), "--map", spec]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert {path.name: path.read_bytes() for path in store_dir.iterdir()} == files


# every spelling of the standard attributes -> the attribute's name
NAMED = {spelling: attr.name for attr in STANDARD_ATTRIBUTES
         for spelling in (attr.name, attr.abbreviation)}


class TestOneAttributePerEntry:
    """Request rows, subset entries and mapping columns each name their own attribute.

    The one rule and its refusal, ``<kind> <first> and <second> both name
    <attribute>``, hold for every pair of standard spellings, and a mapping
    is checked before its dataset is read, by the library and the CLI alike.
    ``assess --attributes`` applies it to the subset before the request, and
    to one spelling given twice.
    """

    @pytest.mark.parametrize("first, second", itertools.combinations(NAMED, 2))
    def test_refused_exactly_when_two_entries_name_one_attribute(
            self, store_dir, tmp_path, capsys, first, second):
        registry = Store(store_dir).load()
        shared = NAMED[first] == NAMED[second]
        both = f"both name {NAMED[first]!r}"
        span = IntervalNumber(0, 1)
        request = AssessmentRequest(((first, span), (second, span)))
        mapping = {"Availability": first, "Reliability": second}
        mapped = f"mapped columns 'Availability' and 'Reliability' {both}"
        if shared:
            with pytest.raises(ValueError, match="^requested attributes ") as refused:
                request.resolved(registry)
            assert str(refused.value) == f"requested attributes {first!r} and {second!r} {both}"
            with pytest.raises(ValueError, match="^mapped columns ") as refused:
                registry.resolve_names(mapping, "mapped columns")
            assert str(refused.value) == mapped
        else:
            assert request.resolved(registry).requested == (
                (NAMED[first], span), (NAMED[second], span))
            assert registry.resolve_names(mapping, "mapped columns") == {
                "Availability": NAMED[first], "Reliability": NAMED[second]}

        # with an empty dataset, a bad mapping is the fault reported
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValueError) as refused:
            import_qws(registry, io.StringIO(""), mapping)
        assert str(refused.value) == (mapped if shared else "file is empty")
        files = {path.name: path.read_bytes() for path in store_dir.iterdir()}
        assert main(["--store", str(store_dir), "import-qws", str(empty),
                     "--map", f"Availability={first},Reliability={second}"]) == 2
        assert capsys.readouterr().err == (
            f"error: {mapped}\n" if shared else f"error: {empty}: file is empty\n")
        assert {path.name: path.read_bytes() for path in store_dir.iterdir()} == files

    @pytest.mark.parametrize("first, second", itertools.combinations_with_replacement(NAMED, 2))
    def test_a_subset_names_each_attribute_once(self, store_dir, tmp_path, capsys,
                                                first, second):
        # a subset of a request that names all six: the store holds no provider,
        # so a subset that passes the rule is refused for too few candidates. One
        # spelling twice names its attribute twice too
        request_file = write_request(tmp_path)
        code = main(["--store", str(store_dir), "assess", str(request_file),
                     "--attributes", f"{first},{second}"])
        err = capsys.readouterr().err
        if NAMED[first] == NAMED[second]:
            assert code == 2
            assert err == (f"error: selected attributes {first!r} and {second!r} "
                           f"both name {NAMED[first]!r}\n")
        else:
            assert code == 3 and "both name" not in err

    def test_an_unknown_target_is_reported_before_an_empty_dataset(
            self, store_dir, tmp_path, capsys):
        with pytest.raises(UnknownAttributeError, match="^unknown attribute 'zz'$"):
            import_qws(Store(store_dir).load(), io.StringIO(""), {"Availability": "zz"})
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert main(["--store", str(store_dir), "import-qws", str(empty),
                     "--map", "Availability=zz"]) == 2
        assert capsys.readouterr().err == "error: unknown attribute 'zz'\n"


class TestBench:
    def test_smoke_run(self, capsys):
        assert main([
            "bench", "--mode", "fixed-providers", "--fixed", "4",
            "--sweep", "2:6:2", "--reps", "1", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "mode,m,n,median_ms,stddev_ms" in out
        assert out.count("fixed-providers,4,") == 3

    def test_sweep_without_a_step_exits_2_naming_the_form(self, capsys):
        assert main(["bench", "--mode", "fixed-providers", "--fixed", "4",
                     "--sweep", "1:2"]) == 2
        assert capsys.readouterr().err == (
            "error: bad sweep '1:2': expected START:STOP:STEP\n")

    def test_bad_sweep_spec(self, capsys):
        assert main([
            "bench", "--mode", "fixed-providers", "--fixed", "4", "--sweep", "5:1:1",
        ]) == 2
