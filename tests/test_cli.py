import csv
import json
from importlib import resources

import pytest

from conftest import CASE_INTERVALS, CASE_PROVIDERS, COST_ONLY_CHAIN, REQUEST_SPANS
from fastcloud.cli import main
from fastcloud.registry import (
    STANDARD_ATTRIBUTES,
    AmvRecord,
    Polarity,
    QosAttribute,
    Registry,
    SloRecord,
    Store,
)


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
        assert f"{path}: header must be 'csp_id,csc_id,attribute,value'" in capsys.readouterr().err

    def test_refused_attribute_row_registers_nothing(self, tmp_path, capsys):
        path = tmp_path / "attrs.csv"
        write_csv(path, ["name", "abbreviation", "unit", "polarity"],
                  [["cost", "co", "usd", "Cost"], ["energy", "en", "kwh", "green"]])
        store = tmp_path / "store"
        assert main(["--store", str(store), "register-attributes", str(path)]) == 2
        assert "line 3:" in capsys.readouterr().err
        assert Store(store).load().attributes == {}


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
        assert main([
            "--store", str(store_dir), "assess", str(request_file),
            "--attributes", "la,res",
        ]) == 0
        assert f"ranking: {COST_ONLY_CHAIN}" in capsys.readouterr().out

    def test_structured_output_is_diffable(self, store_dir, tmp_path, capsys):
        seed_case_store(store_dir, tmp_path)
        request_file = write_request(tmp_path)
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main([
                "--store", str(store_dir), "assess", str(request_file),
                "--format", "structured",
            ]) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("elapsed_seconds")
            outputs.append(json.dumps(doc))
        assert outputs[0] == outputs[1]

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
        assert "only a matched" in capsys.readouterr().err

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

    def test_bad_mapping_lists_missing_columns(self, store_dir, tmp_path, capsys):
        sample = resources.files("fastcloud") / "data" / "qws_sample.csv"
        assert main([
            "--store", str(store_dir), "import-qws", str(sample),
            "--map", "NotAColumn=av",
        ]) == 2
        assert "NotAColumn" in capsys.readouterr().err


class TestBench:
    def test_smoke_run(self, capsys):
        assert main([
            "bench", "--mode", "fixed-providers", "--fixed", "4",
            "--sweep", "2:6:2", "--reps", "1", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "mode,m,n,mean_ms,stddev_ms" in out
        assert out.count("fixed-providers,4,") == 3

    def test_bad_sweep_spec(self, capsys):
        assert main([
            "bench", "--mode", "fixed-providers", "--fixed", "4", "--sweep", "5:1:1",
        ]) == 2
