import io
import os
import random

import pytest

from fastcloud.registry import (
    AMV_COLUMNS,
    SLO_COLUMNS,
    AmvRecord,
    DuplicateSubmissionError,
    MissingSloError,
    Polarity,
    QosAttribute,
    Registry,
    SloRecord,
    STANDARD_ATTRIBUTES,
    STANDARD_QWS_MAPPING,
    Store,
    UnknownAttributeError,
    import_qws,
    parse_amv,
    parse_slo,
    read_rows,
)


def fresh_registry() -> Registry:
    registry = Registry()
    for attr in STANDARD_ATTRIBUTES:
        registry.register_attribute(attr)
    return registry


class TestAttributes:
    def test_lookup_by_name_and_abbreviation(self):
        registry = fresh_registry()
        assert registry.resolve_attribute("availability").abbreviation == "av"
        assert registry.resolve_attribute("av").name == "availability"

    def test_unknown_attribute(self):
        registry = fresh_registry()
        with pytest.raises(UnknownAttributeError):
            registry.resolve_attribute("foo")

    def test_polarity_is_fixed(self):
        registry = fresh_registry()
        with pytest.raises(ValueError):
            registry.register_attribute(
                QosAttribute("availability", "av", "%", Polarity.COST)
            )

    def test_abbreviation_unique(self):
        registry = fresh_registry()
        with pytest.raises(ValueError):
            registry.register_attribute(QosAttribute("other", "av", "%", Polarity.COST))


class TestSubmitSlo:
    def test_round_trip(self):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("csp1", "csc1", "av", 96))
        assert registry.slos[("csp1", "csc1", "availability")].value == 96

    def test_resubmission_replaces(self):
        registry = fresh_registry()
        assert registry.submit_slo(SloRecord("p", "c", "av", 90)) is False
        assert registry.submit_slo(SloRecord("p", "c", "av", 95)) is True
        assert registry.slos[("p", "c", "availability")].value == 95
        assert len(registry.slos) == 1

    def test_unregistered_attribute_rejected(self):
        registry = fresh_registry()
        with pytest.raises(UnknownAttributeError):
            registry.submit_slo(SloRecord("p", "c", "foo", 90))

    def test_non_positive_value_rejected(self):
        with pytest.raises(ValueError):
            SloRecord("p", "c", "av", 0)
        with pytest.raises(ValueError):
            SloRecord("p", "c", "av", -3)

    def test_non_finite_value_rejected(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SloRecord("p", "c", "av", value)

    def test_empty_and_padded_ids_rejected(self, tmp_path):
        for csp_id, csc_id in (("", "c"), ("p", ""), (" p", "c"), ("p", "c\t")):
            for record in (SloRecord, AmvRecord):
                with pytest.raises(ValueError, match="without surrounding whitespace"):
                    record(csp_id, csc_id, "av", 90)
        store = Store(tmp_path / "store")
        store.save(fresh_registry())
        (tmp_path / "store" / Store.AMVS_FILE).write_text(
            "csp_id,csc_id,attribute,value,sequence\n,c,av,91.5,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="amvs.csv: line 2: .*whitespace"):
            store.load()


class TestSubmitAmv:
    def test_append_semantics(self):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c", "av", 90))
        for value in (1, 2, 3):
            registry.submit_amv(AmvRecord("p", "c", "av", value))
        assert registry.amv_samples("p", "c", "availability") == [1, 2, 3]

    def test_sequence_assigned_monotonically(self):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c", "av", 90))
        records = [registry.submit_amv(AmvRecord("p", "c", "av", v)) for v in (7, 8)]
        assert [r.sequence for r in records] == [1, 2]

    def test_requires_matching_slo(self):
        registry = fresh_registry()
        with pytest.raises(MissingSloError):
            registry.submit_amv(AmvRecord("p", "c", "av", 5))

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            AmvRecord("p", "c", "av", -1)

    def test_non_finite_value_rejected(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                AmvRecord("p", "c", "av", value)

    def test_explicit_duplicate_sequence_detected(self):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c", "av", 90))
        registry.submit_amv(AmvRecord("p", "c", "av", 5, sequence=1))
        with pytest.raises(DuplicateSubmissionError, match="duplicate"):
            registry.submit_amv(AmvRecord("p", "c", "av", 5, sequence=1))
        with pytest.raises(ValueError, match="refusing to overwrite") as conflict:
            registry.submit_amv(AmvRecord("p", "c", "av", 6, sequence=1))
        assert not isinstance(conflict.value, DuplicateSubmissionError)
        assert registry.amv_samples("p", "c", "availability") == [5]


class TestRecordFormat:
    def test_rows_are_stripped_with_physical_lines(self):
        text = " csp_id , csc_id,attribute,value\n p ,c, av ,90\n\n\nq,c,la,5\n"
        assert list(read_rows(io.StringIO(text), SLO_COLUMNS)) == [
            (2, ["p", "c", "av", "90"]), (5, ["q", "c", "la", "5"])]

    def test_empty_source_and_other_header_refused(self):
        with pytest.raises(ValueError, match="empty"):
            list(read_rows(io.StringIO(""), SLO_COLUMNS))
        reordered = "csc_id,csp_id,attribute,value\nc,p,av,90\n"
        with pytest.raises(ValueError, match="header must be 'csp_id,csc_id,attribute,value'"):
            list(read_rows(io.StringIO(reordered), SLO_COLUMNS))

    def test_wrong_field_count_is_malformed(self):
        for fields in (["p", "c", "av"], ["p", "c", "av", "90", "1"]):
            with pytest.raises(ValueError, match="malformed row"):
                parse_slo(fields)

    def test_unreadable_row_names_its_line(self):
        text = "csp_id,csc_id,attribute,value\np,c,av,90\n" + "q" * 200_000 + ",c,av,90\n"
        with pytest.raises(ValueError, match="^line 3: field larger than field limit"):
            list(read_rows(io.StringIO(text), SLO_COLUMNS))

    def test_empty_sequence_left_to_the_registry(self):
        assert parse_amv(["p", "c", "av", "5", ""]).sequence is None
        assert parse_amv(["p", "c", "av", "5", "3"]).sequence == 3


class TestPersistence:
    def test_round_trip_reproduces_registry(self, tmp_path):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p1", "c1", "av", 90.5))
        registry.submit_slo(SloRecord("p1", "c2", "la", 12.25))
        registry.submit_amv(AmvRecord("p1", "c1", "av", 91.37))
        registry.submit_amv(AmvRecord("p1", "c2", "la", 0.125))
        store = Store(tmp_path / "store")
        store.save(registry)
        loaded = store.load()
        assert loaded.attributes == registry.attributes
        assert loaded.slos == registry.slos
        assert loaded.amvs == registry.amvs

    def test_load_refuses_repeated_sequence(self, tmp_path):
        store = Store(tmp_path / "store")
        store.save(fresh_registry())
        (tmp_path / "store" / Store.AMVS_FILE).write_text(
            "csp_id,csc_id,attribute,value,sequence\n"
            "p,c,availability,5.0,1\n"
            "p,c,availability,5.0,1\n", encoding="utf-8")
        with pytest.raises(DuplicateSubmissionError, match="amvs.csv: line 3: duplicate"):
            store.load()

    def test_load_resolves_slo_attributes(self, tmp_path):
        store = Store(tmp_path / "store")
        store.save(fresh_registry())
        slos = tmp_path / "store" / Store.SLOS_FILE
        slos.write_text("csp_id,csc_id,attribute,value\np,c,av,90\n", encoding="utf-8")
        assert list(store.load().slos) == [("p", "c", "availability")]
        slos.write_text("csp_id,csc_id,attribute,value\np,c,bogus,90\n", encoding="utf-8")
        with pytest.raises(UnknownAttributeError):
            store.load()

    @staticmethod
    def store_with(tmp_path, name, text):
        store = Store(tmp_path / "store")
        store.save(fresh_registry())
        (tmp_path / "store" / name).write_text(text, encoding="utf-8")
        return store

    def test_load_resolves_amv_attributes(self, tmp_path):
        store = self.store_with(tmp_path, Store.AMVS_FILE,
                                "csp_id,csc_id,attribute,value,sequence\np,c,av,91.5,1\n")
        loaded = store.load()
        assert loaded.amv_samples("p", "c", "availability") == [91.5]
        loaded.submit_slo(SloRecord("p", "c", "av", 90))
        with pytest.raises(DuplicateSubmissionError):
            loaded.submit_amv(AmvRecord("p", "c", "availability", 91.5, 1))
        assert len(loaded.amvs) == 1

    def test_load_refuses_unknown_amv_attribute_with_line(self, tmp_path):
        store = self.store_with(tmp_path, Store.AMVS_FILE,
                                "csp_id,csc_id,attribute,value,sequence\n"
                                "p,c,av,91.5,1\np,c,bogus,5,1\n")
        with pytest.raises(UnknownAttributeError, match="amvs.csv: line 3: unknown attribute"):
            store.load()

    def test_load_refuses_other_header_and_extra_fields(self, tmp_path):
        store = self.store_with(tmp_path, Store.SLOS_FILE,
                                "csc_id,csp_id,attribute,value\nc,p,av,90\n")
        with pytest.raises(ValueError, match="slos.csv: line 1: header must be"):
            store.load()
        store = self.store_with(tmp_path, Store.SLOS_FILE,
                                "csp_id,csc_id,attribute,value\np,c,av,90\nq,c,av,90,7\n")
        with pytest.raises(ValueError, match="slos.csv: line 3: malformed row"):
            store.load()

    def test_load_refuses_empty_sequence(self, tmp_path):
        store = self.store_with(tmp_path, Store.AMVS_FILE,
                                "csp_id,csc_id,attribute,value,sequence\np,c,av,91.5,\n")
        with pytest.raises(ValueError, match="amvs.csv: line 2: .*no sequence"):
            store.load()

    def test_load_skips_blank_lines_and_counts_them(self, tmp_path):
        store = self.store_with(tmp_path, Store.AMVS_FILE,
                                "csp_id,csc_id,attribute,value,sequence\n"
                                "p,c,av,1,1\n\np,c,av,2,2\n\n\np,c,av,nan,3\n")
        with pytest.raises(ValueError, match="amvs.csv: line 7: .*finite"):
            store.load()

    def test_load_refuses_non_finite_value(self, tmp_path):
        store = Store(tmp_path / "store")
        store.save(fresh_registry())
        (tmp_path / "store" / Store.AMVS_FILE).write_text(
            "csp_id,csc_id,attribute,value,sequence\n"
            "p,c,availability,nan,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="finite"):
            store.load()

    def test_sequence_continues_after_load(self, tmp_path):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c", "av", 90))
        for sequence in (1, 4, 2):
            registry.submit_amv(AmvRecord("p", "c", "av", 90 + sequence, sequence))
        store = Store(tmp_path / "store")
        store.save(registry)
        loaded = store.load()
        assert loaded.submit_amv(AmvRecord("p", "c", "av", 99)).sequence == 5
        assert loaded.amv_samples("p", "c", "availability") == [91, 92, 94, 99]

    def test_save_is_atomic_rewrite(self, tmp_path):
        store = Store(tmp_path / "store")
        registry = fresh_registry()
        store.save(registry)
        store.save(registry)
        leftovers = [p for p in (tmp_path / "store").iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_load_names_an_unreadable_row(self, tmp_path):
        store = self.store_with(tmp_path, Store.SLOS_FILE,
                                "csp_id,csc_id,attribute,value\np,c,av,90\n"
                                + "q" * 200_000 + ",c,av,90\n")
        with pytest.raises(ValueError, match="slos.csv: line 3: field larger than field limit"):
            store.load()

    def test_load_refuses_a_row_cut_short(self, tmp_path):
        store = self.store_with(tmp_path, Store.AMVS_FILE,
                                "csp_id,csc_id,attribute,value,sequence\n"
                                "p,c,av,91.5,1\np,c,av,92.5,2")
        with pytest.raises(ValueError, match="amvs.csv: line 3: row has no line end"):
            store.load()
        (tmp_path / "store" / Store.AMVS_FILE).write_text(
            "csp_id,csc_id,attribute,value,sequence", encoding="utf-8")
        with pytest.raises(ValueError, match="amvs.csv: line 1: row has no line end"):
            store.load()

    def test_save_appends_only_new_rows(self, tmp_path):
        store = Store(tmp_path / "store")
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c", "av", 90))
        registry.submit_amv(AmvRecord("p", "c", "av", 91))
        store.save(registry)
        files = {name: tmp_path / "store" / name
                 for name in (Store.ATTRIBUTES_FILE, Store.SLOS_FILE, Store.AMVS_FILE)}
        before = {name: (path.read_bytes(), os.stat(path).st_ino) for name, path in files.items()}
        loaded = store.load()
        loaded.submit_amv(AmvRecord("p", "c", "av", 92.0))
        loaded.submit_amv(AmvRecord("p", "c", "av", 93.5))
        store.save(loaded)
        # the AMV log grew in place; the other files were not rewritten
        assert files[Store.AMVS_FILE].read_bytes() == (
            before[Store.AMVS_FILE][0] + b"p,c,availability,92.0,2\np,c,availability,93.5,3\n")
        assert os.stat(files[Store.AMVS_FILE]).st_ino == before[Store.AMVS_FILE][1]
        for name in (Store.ATTRIBUTES_FILE, Store.SLOS_FILE):
            assert (files[name].read_bytes(), os.stat(files[name]).st_ino) == before[name]
        loaded.submit_slo(SloRecord("p", "c", "av", 95))
        store.save(loaded)
        assert os.stat(files[Store.SLOS_FILE]).st_ino != before[Store.SLOS_FILE][1]
        assert os.stat(files[Store.ATTRIBUTES_FILE]).st_ino == before[Store.ATTRIBUTES_FILE][1]
        # a registry this store did not load is written whole, as is a missing file
        other = store.load()
        files[Store.ATTRIBUTES_FILE].unlink()
        Store(store.root).save(other)
        assert store.load() == loaded
        assert [p.name for p in store.root.iterdir() if p.suffix == ".tmp"] == []

    def test_amvs_is_a_read_only_view_of_the_rows(self):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c", "av", 90))
        registry.submit_amv(AmvRecord("p", "c", "av", 91))
        view = registry.amvs
        assert len(view) == 1
        assert list(view) == [AmvRecord("p", "c", "availability", 91, 1)]
        assert not hasattr(view, "append")
        twin = fresh_registry()
        twin.submit_slo(SloRecord("p", "c", "av", 90))
        twin.submit_amv(AmvRecord("p", "c", "availability", 91, 1))
        assert twin.amvs == view and twin == registry
        twin.submit_amv(AmvRecord("p", "c", "av", 92))
        assert twin.amvs != view and len(view) == 1

    def test_referential_integrity_after_random_interleaving(self, tmp_path):
        rng = random.Random(42)
        registry = fresh_registry()
        providers = [f"p{i}" for i in range(4)]
        consumers = [f"c{j}" for j in range(6)]
        attrs = [a.name for a in STANDARD_ATTRIBUTES]
        for _ in range(400):
            csp, csc, attr = rng.choice(providers), rng.choice(consumers), rng.choice(attrs)
            if rng.random() < 0.5:
                registry.submit_slo(SloRecord(csp, csc, attr, rng.uniform(1, 100)))
            else:
                try:
                    registry.submit_amv(AmvRecord(csp, csc, attr, rng.uniform(0, 100)))
                except MissingSloError:
                    pass
        for record in registry.amvs:
            assert record.key in registry.slos
        for record in registry.slos.values():
            assert record.attribute in registry.attributes
        store = Store(tmp_path / "store")
        store.save(registry)
        assert store.load().slos == registry.slos


QWS_HEADER = ("Response Time,Availability,Throughput,Successability,Reliability,"
              "Compliance,Best Practices,Latency,Documentation,Service Name,WSDL Address")


def qws_rows(n, service="SvcA"):
    rows = [QWS_HEADER]
    for i in range(n):
        rows.append(
            f"{100 + i},90.5,12.0,95.0,70.0,80.0,75.0,{10 + i},40.0,{service},http://x/{service}"
        )
    return "\n".join(rows) + "\n"


class TestImport:
    def test_well_formed_rows(self):
        registry = fresh_registry()
        summary = import_qws(registry, io.StringIO(qws_rows(10)))
        assert summary.rows_accepted == 10
        assert summary.rows_rejected == 0
        assert summary.records_added == 60
        assert len(registry.amvs) == 60

    def test_non_numeric_row_rejected_import_continues(self):
        text = qws_rows(2).replace("90.5", "oops", 1)
        registry = fresh_registry()
        summary = import_qws(registry, io.StringIO(text))
        assert summary.rows_accepted == 1
        assert summary.rows_rejected == 1
        assert summary.records_added == 6
        assert summary.rejections

    def test_non_finite_row_rejected_like_negative(self):
        lines = qws_rows(3).splitlines()
        lines[1] = lines[1].replace("90.5", "nan")
        lines[2] = lines[2].replace("95.0", "-1")
        registry = fresh_registry()
        summary = import_qws(registry, io.StringIO("\n".join(lines) + "\n"))
        assert summary.rows_accepted == 1
        assert summary.rows_rejected == 2
        assert summary.records_added == 6
        assert [r.split(":")[0] for r in summary.rejections] == ["line 2", "line 3"]
        # rejected rows take no sequence
        assert [r.sequence for r in registry.amvs] == [1] * 6

    def test_empty_file_with_header(self):
        registry = fresh_registry()
        summary = import_qws(registry, io.StringIO(QWS_HEADER + "\n"))
        assert summary.rows_accepted == 0
        assert summary.rows_rejected == 0
        assert summary.records_added == 0

    def test_missing_mapped_columns_error(self):
        registry = fresh_registry()
        with pytest.raises(ValueError, match="Availability"):
            import_qws(registry, io.StringIO("Service Name,Latency\nS,1\n"))

    def test_empty_stream_error(self):
        registry = fresh_registry()
        with pytest.raises(ValueError, match="empty"):
            import_qws(registry, io.StringIO(""))

    def test_reimport_is_idempotent(self):
        registry = fresh_registry()
        first = import_qws(registry, io.StringIO(qws_rows(5)))
        again = import_qws(registry, io.StringIO(qws_rows(5)))
        assert first.records_added == 30
        assert again.records_added == 0
        assert again.records_skipped == 30
        assert again.records_conflicting == 0
        assert str(again).endswith("0 records added, 30 duplicates skipped")
        assert len(registry.amvs) == 30

    def test_reimport_with_changed_value_reports_conflict(self):
        registry = fresh_registry()
        import_qws(registry, io.StringIO(qws_rows(1)))
        again = import_qws(registry, io.StringIO(qws_rows(1).replace("90.5", "91.5", 1)))
        assert again.records_added == 0
        assert again.records_skipped == 5
        assert again.records_conflicting == 1
        assert str(again).endswith("5 duplicates skipped, 1 conflicting")
        assert len(again.rejections) == 1
        assert again.rejections[0].startswith("line 2: ")
        assert "refusing to overwrite" in again.rejections[0]
        assert registry.amv_samples("SvcA", "SvcA/monitor", "availability") == [90.5]

    def test_synthesized_identities_group_by_service(self):
        registry = fresh_registry()
        import_qws(registry, io.StringIO(qws_rows(3, service="My Service")))
        csps = {r.csp_id for r in registry.amvs}
        cscs = {r.csc_id for r in registry.amvs}
        assert csps == {"My-Service"}
        assert cscs == {"My-Service/monitor"}
        sequences = sorted(
            r.sequence for r in registry.amvs if r.attribute == "availability"
        )
        assert sequences == [1, 2, 3]

    def test_mapping_targets_must_be_registered(self):
        registry = Registry()  # no attributes at all
        with pytest.raises(UnknownAttributeError):
            import_qws(registry, io.StringIO(qws_rows(1)), STANDARD_QWS_MAPPING)
