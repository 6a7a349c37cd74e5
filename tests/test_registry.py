import csv
import gc
import io
import marshal
import math
import os
import random
import sys
import zlib

import pytest

from fastcloud.cli import main
from fastcloud.registry import (
    AMV_COLUMNS,
    REQUEST_COLUMNS,
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
        with pytest.raises(ValueError, match="^attribute 'availability' already registered with "
                                             "different polarity$"):
            registry.register_attribute(
                QosAttribute("availability", "av", "%", Polarity.COST)
            )

    @pytest.mark.parametrize("changed", [
        QosAttribute("availability", "avl", "%", Polarity.BENEFIT),
        QosAttribute("availability", "av", "ratio", Polarity.BENEFIT),
    ], ids=["abbreviation", "unit"])
    def test_changed_definition_refused_naming_the_stored_one(self, changed):
        registry = fresh_registry()
        with pytest.raises(ValueError, match="^attribute 'availability' already registered as "
                                             "'availability,av,%,benefit'$"):
            registry.register_attribute(changed)
        assert registry.resolve_attribute("av") == STANDARD_ATTRIBUTES[0]
        with pytest.raises(UnknownAttributeError):
            registry.resolve_attribute("avl")

    def test_abbreviation_unique(self):
        registry = fresh_registry()
        with pytest.raises(ValueError):
            registry.register_attribute(QosAttribute("other", "av", "%", Polarity.COST))

    @pytest.mark.parametrize("first, second", [
        (QosAttribute("availability", "av", "%", Polarity.BENEFIT),
         QosAttribute("av", "avx", "%", Polarity.COST)),
        (QosAttribute("av", "avx", "%", Polarity.COST),
         QosAttribute("availability", "av", "%", Polarity.BENEFIT)),
    ], ids=["name-after-abbreviation", "abbreviation-after-name"])
    def test_a_spelling_names_one_attribute(self, first, second):
        registry = Registry()
        registry.register_attribute(first)
        with pytest.raises(ValueError, match=f"'av' already names attribute {first.name!r}"):
            registry.register_attribute(second)
        assert registry.resolve_attribute("av") == first

    def test_abbreviation_may_be_its_own_name(self):
        registry = fresh_registry()
        registry.register_attribute(QosAttribute("a0", "a0", "u", Polarity.COST))
        assert registry.resolve_attribute("a0").name == "a0"

    def test_stored_spelling_of_two_attributes_refused_at_its_line(self, tmp_path):
        (tmp_path / Store.ATTRIBUTES_FILE).write_text(
            "name,abbreviation,unit,polarity\navailability,av,%,benefit\nav,avx,%,cost\n",
            encoding="utf-8")
        with pytest.raises(ValueError, match="attributes.csv: line 3: 'av' already names"):
            Store(tmp_path).load()


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

    def test_index_matches_a_scan_of_every_slo(self):
        rng = random.Random(3)
        spellings = ["av", "availability", "la", "latency", "th"]
        for _ in range(20):
            registry = fresh_registry()
            for _ in range(rng.randrange(1, 80)):  # few keys: many resubmissions
                registry.submit_slo(SloRecord(f"p{rng.randrange(4)}", f"c{rng.randrange(4)}",
                                              rng.choice(spellings), rng.uniform(1, 100)))
            slos = list(registry.slos.values())
            assert registry.providers == {r.csp_id for r in slos}
            for csp_id in ("p0", "p1", "p2", "p3", "p9"):
                for attr in ("availability", "latency", "throughput", "reliability"):
                    assert registry.slos_for(csp_id, attr) == [
                        r for r in slos if r.csp_id == csp_id and r.attribute == attr]

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


AMV_HEADER = "csp_id,csc_id,attribute,value,sequence\n"
# two rows filed before every refused row, with a blank line between them:
# the refused row is physical line 5
AMV_ACCEPTED = "p,c,av,1,1\n\np,c,la,2,1\n"
ID_MESSAGE = "provider and consumer ids must be non-empty without surrounding whitespace"


class TestAmvLoad:
    """amvs.csv loads by the row loop, which names a refused row."""

    @staticmethod
    def store_with_amvs(tmp_path, text):
        store = Store(tmp_path / "store")
        store.save(fresh_registry())
        (store.root / Store.AMVS_FILE).write_bytes(text.encode("utf-8"))
        # a text equal to the file saved would otherwise load from the snapshot
        (store.root / Store.SNAPSHOT_FILE).unlink()
        return store

    @pytest.mark.parametrize("rows, kind, message", [
        ("p,c,av,5\n", ValueError, "malformed row: 4 fields, expected 5"),
        ("p,c,av,5,2,x\n", ValueError, "malformed row: 6 fields, expected 5"),
        # a short and a long row whose last fields read as a value and a sequence
        ("p,5,2,1\n", ValueError, "malformed row: 4 fields, expected 5"),
        ("p,c,la,x,5,2\n", ValueError, "malformed row: 6 fields, expected 5"),
        (",c,av,5,2\n", ValueError, f"{ID_MESSAGE}, got '' and 'c'"),
        ("p, ,av,5,2\n", ValueError, f"{ID_MESSAGE}, got 'p' and ''"),
        ("p,c,av,-0.5,2\n", ValueError, "monitored value must be finite and nonnegative, got -0.5"),
        ("p,c,av,abc,2\n", ValueError, "could not convert string to float: 'abc'"),
        ("p,c,av,nan,2\n", ValueError, "monitored value must be finite and nonnegative, got nan"),
        ("p,c,av,inf,2\n", ValueError, "monitored value must be finite and nonnegative, got inf"),
        ("p,c,av,5,\n", ValueError, "stored monitored value has no sequence"),
        ("p,c,av,5,1.5\n", ValueError, "invalid literal for int() with base 10: '1.5'"),
        ("p,c,bogus,5,2\n", UnknownAttributeError, "unknown attribute 'bogus'"),
        ("p,c,availability,1.0,1\n", DuplicateSubmissionError,
         "duplicate submission ('p', 'c', 'availability') sequence 1"),
        ("p,c,av,7,1\n", ValueError, "sequence 1 for ('p', 'c', 'availability') already holds "
                                     "value 1.0, refusing to overwrite with 7.0"),
        ("p,c, availability ,7,1\n", ValueError, "sequence 1 for ('p', 'c', 'availability') "
                                                  "already holds value 1.0, refusing to "
                                                  "overwrite with 7.0"),
        ("p," + "c" * 200_000 + ",av,5,2\n", ValueError, "field larger than field limit (131072)"),
        # the checks run in row order: the ids before the value, sequence and attribute
        (",c,bogus,nan,\n", ValueError, f"{ID_MESSAGE}, got '' and 'c'"),
        # and the first refused row wins over a later one
        ("p,c,av,nan,2\n,c,av,5,3\n", ValueError,
         "monitored value must be finite and nonnegative, got nan"),
        ("p,c,av,5,2", ValueError, "row has no line end: its append was cut short"),
        # a torn last row is refused only once every row has passed
        ("p,c,av,nan,2", ValueError, "monitored value must be finite and nonnegative, got nan"),
    ], ids=["short", "long", "short-key", "long-key", "empty-csp", "empty-csc", "negative",
            "non-numeric", "nan", "inf", "empty-sequence", "sequence-1.5", "unknown-attribute",
            "repeated", "conflicting", "conflicting-padded", "over-long", "two-faults",
            "first-row-wins", "torn", "torn-and-refused"])
    def test_refused_row_is_named(self, tmp_path, rows, kind, message):
        store = self.store_with_amvs(tmp_path, AMV_HEADER + AMV_ACCEPTED + rows)
        with pytest.raises(ValueError) as refused:
            store.load()
        assert type(refused.value) is kind
        assert str(refused.value) == f"{store.root / Store.AMVS_FILE}: line 5: {message}"

    @pytest.mark.parametrize("text", [
        '"p,1","c,2",av,5,1\n"p,1",c,av,6,1\n',
        " p , c , av , 5 , 1 \n p,c ,la, 6,1\n",
        "\n\np,c,av,5,1\n\n\np,c,av,6,2\n\n",
        "p,c,av,5,1\r\np,c2,la,6,1\r\n",
        "p,c,av,5,1\np,c,availability,6,2\np,c,res,7,1\np,c,response_time,8,2\n",
        "p,c,av,5,3\np,c,av,6,1\nq,c,la,1,2\np,c,av,7,2\nq,c,la,0,1\n",
        # float refuses "\x1c1.5\x1c", which str.strip turns into "1.5"
        "p,c,av,\x1c1.5\x1c,1\np,c,la, 2 ,\x1c1\n",
        "",
        # a line over the field limit, with no field over it
        "p" * 100_000 + "," + "c" * 100_000 + ",av,5,1\np,c,la,6,1\n",
    ], ids=["quoted-commas", "padded", "blank-lines", "crlf", "abbreviations",
            "out-of-order", "padded-value", "no-rows", "long-line"])
    def test_accepted_file_loads_as_the_row_loop_loads_it(self, tmp_path, text):
        self.assert_load_matches(tmp_path, AMV_HEADER + text)

    def test_spellings_of_a_triple_load_as_one_in_file_order(self, tmp_path, monkeypatch):
        store, loaded = self.assert_load_matches(
            tmp_path, AMV_HEADER + "p,c,av,5,2\nq,c,la,1,1\np,c,availability,6,1\np,c, av ,7,3\n")
        assert list(loaded._samples.items()) == [
            (("p", "c", "availability"), {2: 5.0, 1: 6.0, 3: 7.0}),
            (("q", "c", "latency"), {1: 1.0})]
        assert loaded.amv_samples("p", "c", "availability") == [6.0, 5.0, 7.0]
        store.save(loaded)  # leaves a snapshot of the registry
        with monkeypatch.context() as patch:
            patch.delattr(Store, "_parse")  # so that only the snapshot can load the store
            restored = Store(store.root).load()
        assert contents(restored) == contents(loaded)
        # the rows of one triple share its tuple
        assert restored._triples[0] is restored._triples[2] is restored._triples[3]

    def test_many_rows_load_as_their_rows(self, tmp_path):
        rng = random.Random(7)
        chunk = 512
        spellings = {"av": "availability", "availability": "availability", " th ": "throughput",
                     "la": "latency", "latency": "latency", "res": "response_time"}
        next_sequence = {}
        lines = []
        for i in range(3 * chunk + 17):
            csp_id, csc_id = f"p{rng.randrange(5)}", f"c{rng.randrange(4)}"
            spelling = rng.choice(sorted(spellings))
            key = (csp_id, csc_id, spellings[spelling])
            sequence = next_sequence[key] = next_sequence.get(key, 0) + 1
            lines.append(f"{csp_id},{csc_id},{spelling},{rng.uniform(0, 100)!r},{sequence}")
            if i == chunk // 2:  # a long run of blank lines
                lines.extend([""] * (chunk + 1))
        self.assert_load_matches(tmp_path, AMV_HEADER + "\n".join(lines) + "\n")

    def test_load_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch):
        """A load through the snapshot, and one whose stale snapshot leaves a refusing parse."""
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                store = self.store_with_amvs(tmp_path / str(enabled), AMV_HEADER + AMV_ACCEPTED)
                store.save(store.load())  # leaves a snapshot of the files
                _, parsed = load_recorded(store, monkeypatch)
                assert not parsed and gc.isenabled() is enabled
                with open(store.root / Store.AMVS_FILE, "a", encoding="utf-8") as fh:
                    fh.write("p,c,av,x,1\n")
                (refusal, _), parsed = load_recorded(store, monkeypatch)
                assert refusal is ValueError and parsed and gc.isenabled() is enabled
            finally:
                gc.enable()

    def assert_load_matches(self, tmp_path, text):
        store = self.store_with_amvs(tmp_path, text)
        loaded = store.load()
        reference = loaded_by_hand(text, AMV_COLUMNS)
        assert loaded == reference
        assert contents(loaded) == contents(reference)
        for key in reference._samples:
            assert loaded.amv_samples(*key) == reference.amv_samples(*key)
        return store, loaded


SLO_HEADER = "csp_id,csc_id,attribute,value\n"
# as AMV_ACCEPTED: the refused row is physical line 5
SLO_ACCEPTED = "p,c,av,1\n\np,c,la,2\n"


class TestSloLoad:
    """slos.csv loads by the row loop, which names a refused row."""

    @staticmethod
    def store_with_slos(tmp_path, text):
        store = Store(tmp_path / "store")
        store.save(fresh_registry())
        (store.root / Store.SLOS_FILE).write_bytes(text.encode("utf-8"))
        # a text equal to the file saved would otherwise load from the snapshot
        (store.root / Store.SNAPSHOT_FILE).unlink()
        return store

    @pytest.mark.parametrize("rows, kind, message", [
        ("p,c,av\n", ValueError, "malformed row: 3 fields, expected 4"),
        ("p,c,av,5,x\n", ValueError, "malformed row: 5 fields, expected 4"),
        ("p,c,la,x,5\n", ValueError, "malformed row: 5 fields, expected 4"),
        (",c,av,5\n", ValueError, f"{ID_MESSAGE}, got '' and 'c'"),
        ("p, \t ,av,5\n", ValueError, f"{ID_MESSAGE}, got 'p' and ''"),
        ("p,c,av,0\n", ValueError, "SLO value must be finite and positive, got 0.0"),
        ("p,c,av,-0.5\n", ValueError, "SLO value must be finite and positive, got -0.5"),
        ("p,c,av,nan\n", ValueError, "SLO value must be finite and positive, got nan"),
        ("p,c,av,inf\n", ValueError, "SLO value must be finite and positive, got inf"),
        ("p,c,av,abc\n", ValueError, "could not convert string to float: 'abc'"),
        ("p,c,bogus,5\n", UnknownAttributeError, "unknown attribute 'bogus'"),
        ("p," + "c" * 200_000 + ",av,5\n", ValueError, "field larger than field limit (131072)"),
        # the checks run in row order: the ids before the value and attribute
        (",c,bogus,nan\n", ValueError, f"{ID_MESSAGE}, got '' and 'c'"),
        # and the first refused row wins over a later one
        ("p,c,av,nan\n,c,av,5\n", ValueError, "SLO value must be finite and positive, got nan"),
    ], ids=["short", "long", "long-key", "empty-csp", "padded-csc", "zero", "negative", "nan",
            "inf", "non-numeric", "unknown-attribute", "over-long", "two-faults",
            "first-row-wins"])
    def test_refused_row_is_named(self, tmp_path, rows, kind, message):
        store = self.store_with_slos(tmp_path, SLO_HEADER + SLO_ACCEPTED + rows)
        with pytest.raises(ValueError) as refused:
            store.load()
        assert type(refused.value) is kind
        assert str(refused.value) == f"{store.root / Store.SLOS_FILE}: line 5: {message}"

    @pytest.mark.parametrize("text", [
        '"p,1","c,2",av,5\n"p,1",c,av,6\n',
        " p , c , av , 5 \n p,c2 ,la, 6\n",
        "\n\np,c,av,5\n\n\nq,c,av,6\n\n",
        "p,c,av,5\r\np,c2,la,6\r\n",
        "p,c,av,5\np,c2,availability,6\np,c,res,7\nq,c,response_time,8\n",
        "p,c,av,5\nq,c,la,1\np,c2,av,3\np,c,availability,9\n",
        "",
        # a line over the field limit, with no field over it
        "p" * 100_000 + "," + "c" * 100_000 + ",av,5\np,c,la,6\n",
    ], ids=["quoted-commas", "padded", "blank-lines", "crlf", "abbreviations", "repeated",
            "no-rows", "long-line"])
    def test_accepted_file_loads_as_the_row_loop_loads_it(self, tmp_path, text):
        self.assert_load_matches(tmp_path, SLO_HEADER + text)

    def test_repeated_triple_keeps_later_value_at_first_position(self, tmp_path):
        loaded = self.assert_load_matches(
            tmp_path, SLO_HEADER + "p,c,av,5\nq,c,la,1\np,c2,av,3\np,c,availability,9\n")
        assert [(key, r.value) for key, r in loaded.slos.items()] == [
            (("p", "c", "availability"), 9.0), (("q", "c", "latency"), 1.0),
            (("p", "c2", "availability"), 3.0)]
        assert [r.value for r in loaded.slos_for("p", "availability")] == [9.0, 3.0]

    def test_many_rows_load_as_their_rows(self, tmp_path):
        rng = random.Random(11)
        chunk = 512
        spellings = ["av", "availability", " th ", "la", "latency", "res"]
        lines = [f"p{rng.randrange(40)},c{rng.randrange(8)},{rng.choice(spellings)},"
                 f"{rng.uniform(1, 100)!r}" for _ in range(3 * chunk + 17)]
        lines[chunk // 2:chunk // 2] = [""] * (chunk + 1)  # a long run of blank lines
        self.assert_load_matches(tmp_path, SLO_HEADER + "\n".join(lines) + "\n")

    def assert_load_matches(self, tmp_path, text):
        loaded = self.store_with_slos(tmp_path, text).load()
        reference = loaded_by_hand(text, SLO_COLUMNS)
        assert loaded == reference
        assert contents(loaded) == contents(reference)
        return loaded


def contents(registry):
    """A registry's records and indexes, with the order of every dict."""
    return (list(registry.slos.items()),
            [(key, list(by_csc.items())) for key, by_csc in registry._slo_index.items()],
            registry._rows,
            [(key, list(samples.items())) for key, samples in registry._samples.items()])


def loaded_by_hand(text, columns):
    """The registry that a record file's rows give, read by the csv module, stripped, and
    handed to the registry one by one in file order."""
    registry = fresh_registry()
    reader = csv.reader(io.StringIO(text, newline=""))
    assert list(map(str.strip, next(reader))) == list(columns)
    for fields in filter(None, reader):
        csp_id, csc_id, attribute, value, *sequence = map(str.strip, fields)
        if columns == SLO_COLUMNS:
            registry.submit_slo(SloRecord(csp_id, csc_id, attribute, float(value)))
        else:
            record = registry._named(AmvRecord(csp_id, csc_id, attribute, float(value),
                                               int(*sequence)))
            registry._append_amv(*record.key, record.value, record.sequence)
    return registry


class TestUndecodableByte:
    """A byte that is not UTF-8 is refused at the line that holds it."""

    DECODE_ERROR = "'utf-8' codec can't decode byte 0xff"

    @staticmethod
    def store_with_bytes(tmp_path, name, data):
        store = Store(tmp_path / "store")
        store.save(fresh_registry())
        (store.root / name).write_bytes(data)
        return store

    def test_amvs_row(self, tmp_path):
        rows = [f"p{i % 7},c{i % 3},av,{i}.5,{i + 1}\n".encode() for i in range(1000)]
        rows[899] = b"p\xff" + rows[899][1:]  # physical line 901, after the header
        store = self.store_with_bytes(tmp_path, Store.AMVS_FILE,
                                      AMV_HEADER.encode() + b"".join(rows))
        with pytest.raises(ValueError, match=f"amvs.csv: line 901: {self.DECODE_ERROR}"):
            store.load()

    def test_slos_row(self, tmp_path):
        rows = [f"p{i},c,la,{i + 1}\n".encode() for i in range(300)]
        rows[249] = rows[249].replace(b"la", b"l\xff")  # physical line 251
        store = self.store_with_bytes(tmp_path, Store.SLOS_FILE,
                                      SLO_HEADER.encode() + b"".join(rows))
        with pytest.raises(ValueError, match=f"slos.csv: line 251: {self.DECODE_ERROR}"):
            store.load()

    def test_header(self, tmp_path):
        store = self.store_with_bytes(tmp_path, Store.AMVS_FILE,
                                      b"csp_id,csc_id,attri\xffbute,value,sequence\np,c,av,1,1\n")
        with pytest.raises(ValueError, match=f"amvs.csv: line 1: {self.DECODE_ERROR}"):
            store.load()


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

    def test_rejection_after_blank_lines_names_physical_line(self):
        lines = qws_rows(2).splitlines()
        lines[2] = lines[2].replace("90.5", "oops")
        text = "\n".join(lines[:2] + ["", ""] + lines[2:]) + "\n"
        summary = import_qws(fresh_registry(), io.StringIO(text))
        assert summary.rows_rejected == 1
        assert [r.split(":")[0] for r in summary.rejections] == ["line 5"]

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

    def test_second_name_of_one_provider_id_rejected(self):
        rows = qws_rows(2, service="Svc A").splitlines()
        rows += qws_rows(2, service="Svc-A").splitlines()[1:]
        rows += qws_rows(1, service="Svc A").splitlines()[1:]
        registry = fresh_registry()
        summary = import_qws(registry, io.StringIO("\n".join(rows) + "\n"))
        assert str(summary) == "3 rows accepted, 2 rejected; 18 records added, 0 duplicates skipped"
        assert summary.rejections == tuple(
            f"line {n}: service 'Svc-A' maps to provider id 'Svc-A', "
            "already taken by service 'Svc A'" for n in (4, 5))
        assert registry.amv_samples("Svc-A", "Svc-A/monitor", "latency") == [10.0, 11.0, 10.0]
        # a row rejected before it took an id leaves the id free
        rows = qws_rows(1, service="Svc A").replace("90.5", "oops").splitlines()
        rows += qws_rows(1, service="Svc-A").splitlines()[1:]
        summary = import_qws(fresh_registry(), io.StringIO("\n".join(rows) + "\n"))
        assert (summary.rows_accepted, summary.rows_rejected) == (1, 1)
        assert summary.rejections[0].startswith("line 2: non-numeric")

    def test_mapping_targets_must_be_registered(self):
        registry = Registry()  # no attributes at all
        with pytest.raises(UnknownAttributeError):
            import_qws(registry, io.StringIO(qws_rows(1)), STANDARD_QWS_MAPPING)


def outcome(store):
    """What a load of the store gives: its records, with every dict order and float
    sign, or the refusal's type and text."""
    try:
        registry = store.load()
    except ValueError as exc:
        return type(exc), str(exc)
    return list(registry.attributes.items()), repr(contents(registry))


def parsed_outcome(store):
    """What a load gives from the CSV files alone, without the snapshot."""
    path = store.root / Store.SNAPSHOT_FILE
    blob = path.read_bytes() if path.exists() else None
    path.unlink(missing_ok=True)
    try:
        return outcome(Store(store.root))
    finally:
        if blob is not None:
            path.write_bytes(blob)


def load_recorded(store, monkeypatch):
    """(what a load gives, whether it parsed the CSV files rather than using the snapshot)."""
    parses = []
    parse = Store._parse

    def recorded(self, contents):
        parses.append(self)
        return parse(self, contents)

    with monkeypatch.context() as patch:
        patch.setattr(Store, "_parse", recorded)
        return outcome(store), bool(parses)


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


class TestSnapshotLoad:
    """A load uses the snapshot only when it holds what a parse of the files would give."""

    IDS = ["p", "q", "p,1", 'q"2', "c,2"]
    SPELLINGS = ["av", "availability", " av ", "la", "latency\t", "res", "response_time"]
    SERVICES = ["Svc A", "svc,b", "Svc A "]

    def random_command(self, rng, root, work, agreed):
        """One submit-slo, submit-amv or import-qws of random rows on the store at ``root``."""
        kind = rng.random()
        if kind < 0.3 or not agreed:
            rows = [[rng.choice(self.IDS), rng.choice(self.IDS), rng.choice(self.SPELLINGS),
                     repr(rng.choice([rng.uniform(1, 100), 5e-324, 90.0]))]
                    for _ in range(rng.randrange(1, 8))]
            agreed.extend(row[:3] for row in rows)
            argv = ["submit-slo", write_rows(work / "slos.csv", SLO_COLUMNS, rows)]
        elif kind < 0.8:
            rows = []
            for _ in range(rng.randrange(1, 12)):
                triple = rng.choice(agreed) if rng.random() < 0.9 else ["p", "nobody", "av"]
                value = rng.choice([rng.uniform(0, 100), -0.0, 0.0, 2.5])
                sequence = rng.choice(["", "", "", rng.randrange(1, 4),
                                       2 ** 63 + rng.randrange(3)])
                rows.append([*triple, repr(value), sequence])
            argv = ["submit-amv", write_rows(work / "amvs.csv", AMV_COLUMNS, rows)]
        else:
            columns = list(STANDARD_QWS_MAPPING)
            rows = [[rng.choice(self.SERVICES)]
                    + [rng.choice(["-0.0", "1.5", repr(rng.uniform(0, 100))]) for _ in columns]
                    for _ in range(rng.randrange(1, 4))]
            argv = ["import-qws", write_rows(work / "qws.csv", ["Service Name", *columns], rows)]
        main(["--store", str(root)] + argv)

    def test_a_snapshot_load_equals_a_parse_load(self, tmp_path, monkeypatch, capsys):
        rng = random.Random(14)
        seen = {"negative zero": 0, "long sequence": 0}
        for n in range(16):
            root, work = tmp_path / f"store{n}", tmp_path / f"work{n}"
            work.mkdir()
            assert main(["--store", str(root), "register-attributes", "--qws-defaults"]) == 0
            agreed = []
            for _ in range(rng.randrange(1, 12)):
                self.random_command(rng, root, work, agreed)
                loaded, parsed = load_recorded(Store(root), monkeypatch)
                assert not parsed  # every writer left a snapshot of what it saved
                assert loaded == parsed_outcome(Store(root))
            registry = Store(root).load()
            seen["negative zero"] += any(math.copysign(1, v) < 0 for v in registry._values)
            seen["long sequence"] += any(s > 2 ** 63 for s in registry._sequences)
        capsys.readouterr()
        assert min(seen.values()) > 0, seen

    @pytest.fixture
    def store(self, tmp_path):
        root = str(tmp_path / "store")
        slos = write_rows(tmp_path / "slos.csv", SLO_COLUMNS,
                          [["p1", "c1", "av", "90"], ["p1", "c2", "la", "12.5"]])
        amvs = write_rows(tmp_path / "amvs.csv", AMV_COLUMNS,
                          [["p1", "c1", "av", "91.5", ""], ["p1", "c2", "la", "11.25", ""],
                           ["p1", "c1", "av", "93", ""]])
        for argv in (["register-attributes", "--qws-defaults"], ["submit-slo", slos],
                     ["submit-amv", amvs]):
            assert main(["--store", root] + argv) == 0
        return Store(root)

    def test_a_cut_or_flipped_snapshot_is_not_used(self, store, monkeypatch):
        path = store.root / Store.SNAPSHOT_FILE
        blob = path.read_bytes()
        expected = parsed_outcome(store)
        assert load_recorded(store, monkeypatch) == (expected, False)
        damaged = [blob[:end] for end in range(len(blob))]
        damaged += [blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:] for i in range(len(blob))]
        damaged.append(blob + b"\0")  # the tail of a longer snapshot, left untruncated
        for data in damaged:
            path.write_bytes(data)
            assert load_recorded(store, monkeypatch) == (expected, True), data

    def test_a_snapshot_of_another_format_is_not_used(self, store, monkeypatch):
        path = store.root / Store.SNAPSHOT_FILE
        stream = io.BytesIO(path.read_bytes()[4:])
        (tag, stamps), columns = marshal.load(stream), stream.read()
        expected = parsed_outcome(store)

        def checked(header):
            body = marshal.dumps(header, 2) + columns
            return zlib.crc32(body).to_bytes(4, "little") + body

        path.write_bytes(checked((tag, stamps)))
        assert load_recorded(store, monkeypatch) == (expected, False)
        for header in ((tag.replace(sys.implementation.cache_tag, "cpython-39"), stamps),
                       ("fastcloud store snapshot 0", stamps), (tag, stamps, None), tag):
            path.write_bytes(checked(header))
            assert load_recorded(store, monkeypatch) == (expected, True), header

    @pytest.mark.parametrize("name, old, new", [
        (Store.ATTRIBUTES_FILE, b"latency,la,ms,", b"latency,la,mS,"),
        (Store.SLOS_FILE, b",12.5\n", b",13.5\n"),
        (Store.AMVS_FILE, b",11.25,", b",11.75,"),
    ])
    def test_a_same_length_hand_edit_is_not_hidden(self, store, monkeypatch, name, old, new):
        before = outcome(store)
        path = store.root / name
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        expected = parsed_outcome(store)
        assert expected != before
        assert load_recorded(store, monkeypatch) == (expected, True)

    @pytest.mark.parametrize("name", Store.FILES)
    def test_a_deleted_file_is_not_hidden(self, store, monkeypatch, name):
        before = outcome(store)
        (store.root / name).unlink()
        expected = parsed_outcome(store)
        assert expected != before
        assert load_recorded(store, monkeypatch) == (expected, True)

    def test_a_refused_row_appended_by_hand_is_refused(self, store, monkeypatch):
        with open(store.root / Store.AMVS_FILE, "a", encoding="utf-8") as fh:
            fh.write("p1,c1,av,-1,9\n")
        refusal = (ValueError, f"{store.root / Store.AMVS_FILE}: line 5: monitored value must "
                               "be finite and nonnegative, got -1.0")
        assert load_recorded(store, monkeypatch) == (refusal, True)

    @pytest.mark.parametrize("name, text", [
        (Store.AMVS_FILE, '"p,1","c,2",av,5,1\n"p,1",c,av,6,1\n'),
        (Store.AMVS_FILE, " p , c , av , 5 , 1 \n p,c ,la, 6,1\n\n\n"),
        (Store.AMVS_FILE, "p,c,av,5,1\r\np,c2,la,6,1\r\n"),
        (Store.AMVS_FILE, "p,c,av,5,3\np,c,availability,6,1\nq,c,la,1,2\np,c,av,7,2\n"),
        (Store.AMVS_FILE, "p,c,av,\x1c1.5\x1c,1\np,c,la, 2 ,\x1c1\n"),
        (Store.SLOS_FILE, ' p , c , av , 5 \n"p,1",c2 ,la, 6\n'),
        (Store.SLOS_FILE, "p,c,av,5\nq,c,la,1\np,c2,av,3\np,c,availability,9\n"),
    ], ids=["quoted-commas", "padded", "crlf", "abbreviations", "padded-value", "slos-padded",
            "slos-repeated"])
    def test_a_writer_after_a_hand_edit_leaves_a_snapshot_of_what_a_parse_gives(
            self, store, tmp_path, monkeypatch, capsys, name, text):
        header = AMV_HEADER if name == Store.AMVS_FILE else SLO_HEADER
        (store.root / name).write_bytes((header + text).encode("utf-8"))
        # a writer that leaves the edited file as it is, bar the rows it appends
        qws = write_rows(tmp_path / "qws.csv", ["Service Name", *STANDARD_QWS_MAPPING],
                         [["svc", *["1.5"] * len(STANDARD_QWS_MAPPING)]])
        assert main(["--store", str(store.root), "import-qws", qws]) == 0
        assert (store.root / name).read_bytes().startswith((header + text).encode("utf-8"))
        loaded, parsed = load_recorded(store, monkeypatch)
        assert not parsed
        assert loaded == parsed_outcome(store)
        capsys.readouterr()

    def test_the_snapshot_is_as_private_as_the_files_it_holds(self, store):
        modes = {path.name: path.stat().st_mode & 0o777 for path in store.root.iterdir()
                 if path.name != Store.LOCK_FILE}
        assert modes == dict.fromkeys([*Store.FILES, Store.SNAPSHOT_FILE], 0o600)

    def test_assess_leaves_the_snapshot_as_it_found_it(self, store, tmp_path, capsys):
        request = write_rows(tmp_path / "request.csv", REQUEST_COLUMNS, [["av", 1, 100]])
        path = store.root / Store.SNAPSHOT_FILE
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        main(["--store", str(store.root), "assess", request])
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before
        path.unlink()
        main(["--store", str(store.root), "assess", request])
        assert not path.exists()
        capsys.readouterr()

    def test_a_writer_rewrites_the_snapshot_only_when_it_is_out_of_date(
            self, store, tmp_path, monkeypatch, capsys):
        path = store.root / Store.SNAPSHOT_FILE
        slos = write_rows(tmp_path / "same.csv", SLO_COLUMNS, [["p1", "c1", "av", "90"]])
        argv = ["--store", str(store.root), "submit-slo", slos]
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        assert main(argv) == 0  # replaces an objective with its own value: no file changes
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before
        path.unlink()
        assert main(argv) == 0  # a writer whose load parsed the files
        assert path.read_bytes() == before[0]
        assert load_recorded(store, monkeypatch) == (parsed_outcome(store), False)
        capsys.readouterr()
