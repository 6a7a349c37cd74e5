import csv
import gc
import importlib.util
import io
import itertools
import marshal
import math
import os
import random
import re
import shutil
import struct
import sys
import zlib
from dataclasses import astuple
from importlib import resources
from pathlib import Path

import pytest

from fastcloud.cli import main
from fastcloud.consistency import actual_slo_interval, from_row
from fastcloud.registry import (
    AMV_COLUMNS,
    ATTRIBUTE_COLUMNS,
    REQUEST_COLUMNS,
    SLO_COLUMNS,
    AmvRecord,
    DuplicateSubmissionError,
    MissingSloError,
    Polarity,
    ProfileTable,
    QosAttribute,
    Registry,
    SloRecord,
    STANDARD_ATTRIBUTES,
    STANDARD_QWS_MAPPING,
    Store,
    StoreRefusedError,
    UnknownAttributeError,
    _decode_place,
    _decode_records,
    _decode_table,
    _encode,
    _table,
    attribute_fields,
    import_qws,
    read_rows,
)


def _decode(sections):
    """What a writer's load, then a whole read of the log, give of snapshot sections: the
    registry, or None if ``_decode_records`` or the read refuses."""
    registry = _decode_records(sections)
    if registry is None or registry._rows is None:
        return registry
    refusals = []
    registry._rows.refuse = refusals.append
    registry._read_log()
    return None if refusals else registry


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

    @pytest.mark.parametrize("changed", [
        QosAttribute("availability", "avl", "%", Polarity.BENEFIT),
        QosAttribute("availability", "av", "ratio", Polarity.BENEFIT),
        QosAttribute("availability", "av", "%", Polarity.COST),
    ], ids=["abbreviation", "unit", "polarity"])
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

    @pytest.mark.parametrize("name, abbreviation", [
        ("uptime", ""), ("", ""), (" uptime", "up"), ("uptime", "up "),
    ])
    def test_empty_or_padded_name_or_abbreviation_refused(self, name, abbreviation):
        with pytest.raises(ValueError, match="^attribute name and abbreviation must be "
                                             "non-empty without surrounding whitespace"):
            QosAttribute(name, abbreviation, "%", Polarity.BENEFIT)

    def test_fields_parse_back_to_the_attribute(self):
        for attr in STANDARD_ATTRIBUTES:
            registry = Registry()
            assert registry.file_attribute(attribute_fields(attr))
            assert registry.attributes == {attr.name: attr}

    def test_abbreviation_may_be_its_own_name(self):
        registry = fresh_registry()
        registry.register_attribute(QosAttribute("a0", "a0", "u", Polarity.COST))
        assert registry.resolve_attribute("a0").name == "a0"

    def test_stored_empty_abbreviation_refused_at_its_line(self, tmp_path):
        (tmp_path / Store.ATTRIBUTES_FILE).write_text(
            "name,abbreviation,unit,polarity\navailability,av,%,benefit\nuptime,,%,benefit\n",
            encoding="utf-8")
        with pytest.raises(ValueError, match="^.*attributes.csv: line 3: attribute name and "
                                             "abbreviation must be non-empty"):
            Store(tmp_path).load()

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
            assert set(registry.profile_table().rows) == {(r.csp_id, r.attribute) for r in slos}
            for csp_id in ("p0", "p1", "p2", "p3", "p9"):
                for attr in ("availability", "latency", "throughput", "reliability"):
                    assert registry.slos_for(csp_id, attr) == [
                        r for r in slos if r.csp_id == csp_id and r.attribute == attr]

    def test_unregistered_attribute_rejected(self):
        registry = fresh_registry()
        with pytest.raises(UnknownAttributeError):
            registry.submit_slo(SloRecord("p", "c", "foo", 90))

    def test_the_view_reads_as_the_filed_records(self):
        registry = fresh_registry()
        for record in (SloRecord("p", "c", "av", 90.0), SloRecord("q", "c", "latency", 12.5),
                       SloRecord("p", "c2", "availability", 80.0),
                       SloRecord("p", "c", "availability", 95.0)):  # replaces the first
            registry.submit_slo(record)
        # grouped by (provider, attribute), each pair's consumers in filing order
        filed = {("p", "c", "availability"): SloRecord("p", "c", "availability", 95.0),
                 ("p", "c2", "availability"): SloRecord("p", "c2", "availability", 80.0),
                 ("q", "c", "latency"): SloRecord("q", "c", "latency", 12.5)}
        slos = registry.slos
        assert list(slos) == list(filed)  # a replacement keeps its place
        assert len(slos) == 3
        for key, record in filed.items():
            assert key in slos and slos[key] == record
        assert ("p", "c", "av") not in slos and slos.get(("p", "c", "av")) is None
        with pytest.raises(KeyError):
            slos[("p", "c", "av")]
        assert list(slos.values()) == list(filed.values())
        assert list(slos.items()) == list(filed.items())
        assert slos == filed and filed == slos
        assert slos != {**filed, ("q", "c", "latency"): SloRecord("q", "c", "latency", 13.5)}
        with pytest.raises(TypeError):
            slos[("q", "c", "latency")] = SloRecord("q", "c", "latency", 13.5)
        # another registry that holds the same records, filed in another order
        other = fresh_registry()
        for record in reversed(filed.values()):
            other.submit_slo(record)
        assert other.slos == slos and list(other.slos) != list(slos)
        other.submit_slo(SloRecord("q", "c", "la", 13.5))
        assert other.slos != slos

    def test_records_enter_only_through_the_filers(self):
        # a record handed to the constructor would skip its checks and the indexes
        for fields in ({"slos": {}}, {"attributes": {}}):
            with pytest.raises(TypeError):
                Registry(**fields)

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
        registry = fresh_registry()
        for fields in (["p", "c", "av"], ["p", "c", "av", "90", "1"]):
            with pytest.raises(ValueError, match="malformed row"):
                registry.file_slo(fields)
        for fields in (["p", "c", "av", "5"], ["p", "c", "av", "5", "1", "x"]):
            with pytest.raises(ValueError, match="malformed row"):
                registry.file_amv(fields)
        assert registry == fresh_registry()

    def test_unreadable_row_names_its_line(self):
        text = "csp_id,csc_id,attribute,value\np,c,av,90\n" + "q" * 200_000 + ",c,av,90\n"
        with pytest.raises(ValueError, match="^line 3: field larger than field limit"):
            list(read_rows(io.StringIO(text), SLO_COLUMNS))

    def test_empty_sequence_left_to_the_registry(self):
        registry = fresh_registry()
        registry.file_slo(["p", "c", "av", "90"])
        assert registry.file_amv(["p", "c", "av", "5", "3"]) == 3
        assert registry.file_amv(["p", "c", "av", "6", ""]) == 4
        with pytest.raises(ValueError, match="^stored monitored value has no sequence$"):
            registry.file_amv(["p", "c", "av", "7", ""], stored=True)
        assert registry.amv_samples("p", "c", "availability") == [5, 6]


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

    def test_values_are_held_as_the_floats_a_parse_gives(self, tmp_path):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c", "av", 90))
        for value in (2 ** 53, 1, 1):
            registry.submit_amv(AmvRecord("p", "c", "av", value))
        store = Store(tmp_path / "store")
        store.save(registry)
        (store.root / Store.SNAPSHOT_FILE).unlink()
        parsed = store.load()
        assert repr(contents(registry)) == repr(contents(parsed))
        # math.fsum's: the exact sum, rounded once. Float addition from the
        # left, the built-in sum's before Python 3.12, drops both 1s
        assert registry.amv_mean("p", "c", "availability") == parsed.amv_mean(
            "p", "c", "availability") == (2 ** 53 + 2) / 3 != 2 ** 53 / 3

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

    def test_logs_that_differ_only_in_one_row_triple_are_not_equal(self):
        logs = []
        for csp_id in ("q", "r"):
            registry = fresh_registry()
            for agreed in ("p", "q", "r"):
                registry.submit_slo(SloRecord(agreed, "c", "av", 90))
            registry.submit_amv(AmvRecord("p", "c", "av", 91))
            # the same place, value and sequence, of another triple
            registry.submit_amv(AmvRecord(csp_id, "c", "av", 92))
            logs.append(registry)
        assert logs[0]._counts == logs[1]._counts == [1, 1]
        assert logs[0] != logs[1] and logs[0].amvs != logs[1].amvs

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
        *((f"p,c,av,5,{sequence}\n", ValueError,
           f"sequence {sequence} for ('p', 'c', 'availability') is outside int64")
          for sequence in (2 ** 63, -2 ** 63 - 1)),
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
            "non-numeric", "nan", "inf", "empty-sequence", "sequence-1.5", "sequence-2**63",
            "sequence-below-int64", "unknown-attribute",
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
        f"p,c,av,5,{2 ** 63 - 1}\np,c,av,6,{-2 ** 63}\n",
        "",
        # a line over the field limit, with no field over it
        "p" * 100_000 + "," + "c" * 100_000 + ",av,5,1\np,c,la,6,1\n",
    ], ids=["quoted-commas", "padded", "blank-lines", "crlf", "abbreviations",
            "out-of-order", "padded-value", "int64-bounds", "no-rows", "long-line"])
    def test_accepted_file_loads_as_the_row_loop_loads_it(self, tmp_path, text):
        self.assert_load_matches(tmp_path, AMV_HEADER + text)

    def test_spellings_of_a_triple_load_as_one_in_file_order(self, tmp_path, monkeypatch):
        store, loaded = self.assert_load_matches(
            tmp_path, AMV_HEADER + "p,c,av,5,2\nq,c,la,1,1\np,c,availability,6,1\np,c, av ,7,3\n")
        assert list(zip(loaded._place, loaded._samples)) == [
            (("p", "c", "availability"), {2: 5.0, 1: 6.0, 3: 7.0}),
            (("q", "c", "latency"), {1: 1.0})]
        assert loaded.amv_samples("p", "c", "availability") == [6.0, 5.0, 7.0]
        store.save(loaded)  # leaves a snapshot of the registry
        with monkeypatch.context() as patch:
            patch.delattr(Store, "_parse")  # so that only the snapshot can load the store
            restored = Store(store.root).load()
        # the snapshot holds the rows of one triple together, in file order,
        # and no row is filed past them
        assert restored._counts == restored._rows.counts == [3, 1]
        assert contents(restored) == contents(loaded)
        assert [(*row.key, row.sequence) for row in restored.amvs] == [
            ("p", "c", "availability", 2), ("p", "c", "availability", 1),
            ("p", "c", "availability", 3), ("q", "c", "latency", 1)]

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
        for key in reference._place:
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
        # grouped by (provider, attribute): p's c2 comes before q's c
        assert [(key, r.value) for key, r in loaded.slos.items()] == [
            (("p", "c", "availability"), 9.0), (("p", "c2", "availability"), 3.0),
            (("q", "c", "latency"), 1.0)]
        assert [r.value for r in loaded.slos_for("p", "availability")] == [9.0, 3.0]

    def test_slos_are_written_and_read_grouped_by_pair(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "store"
        interleaved = write_rows(tmp_path / "slos.csv", SLO_COLUMNS, [
            ["p1", "c1", "av", "90"], ["p2", "c1", "av", "85"], ["p1", "c2", "av", "95"]])
        for argv in (["register-attributes", "--qws-defaults"], ["submit-slo", interleaved]):
            assert main(["--store", str(root)] + argv) == 0
        assert (root / Store.SLOS_FILE).read_text() == SLO_HEADER + (
            "p1,c1,availability,90.0\np1,c2,availability,95.0\np2,c1,availability,85.0\n")
        grouped = [("p1", "c1", "availability"), ("p1", "c2", "availability"),
                   ("p2", "c1", "availability")]
        loaded, parsed = load_recorded(Store(root), monkeypatch)
        assert not parsed and loaded == parsed_outcome(Store(root))
        assert list(Store(root).load().slos) == grouped
        # slos.csv written by hand in submission order is kept byte for byte by
        # a writer that changes no SLO, and read grouped
        hand = (SLO_HEADER + "p1,c1,av,90\np2,c1,av,85\np1,c2,av,95\n").encode()
        (root / Store.SLOS_FILE).write_bytes(hand)
        amvs = write_rows(tmp_path / "amvs.csv", AMV_COLUMNS, [["p2", "c1", "av", "80", ""]])
        assert main(["--store", str(root), "submit-amv", amvs]) == 0
        assert (root / Store.SLOS_FILE).read_bytes() == hand
        assert list(Store(root).load().slos) == grouped
        assert (root / Store.SNAPSHOT_FILE).read_bytes() == TestSnapshotLoad.parsed_snapshot(
            root, tmp_path)
        capsys.readouterr()

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
            list(registry.amvs),
            [(key, list(samples.items())) for key, samples in zip(registry._place,
                                                                  registry._samples)])


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
            name = registry.resolve_attribute(attribute).name
            record = AmvRecord(csp_id, csc_id, name, float(value), int(*sequence))
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

    def test_two_columns_mapped_to_one_attribute_are_refused(self):
        registry = fresh_registry()
        mapping = {"Availability": "av", "Reliability": "availability"}
        with pytest.raises(ValueError, match="^mapped columns 'Availability' and 'Reliability' "
                                             "both name 'availability'$"):
            import_qws(registry, io.StringIO(qws_rows(1)), mapping)
        assert len(registry.amvs) == 0

    def test_an_empty_mapping_is_refused_and_none_maps_the_standard_six(self):
        registry = fresh_registry()
        sample = resources.files("fastcloud") / "data" / "qws_sample.csv"
        with sample.open(newline="", encoding="utf-8") as source:
            for stream in (io.StringIO(""), source):
                with pytest.raises(ValueError, match="^a mapping must name at least one column$"):
                    import_qws(registry, stream, {})
                assert stream.tell() == 0  # refused before the dataset is read
            assert registry == fresh_registry()
            summary = import_qws(registry, source, None)
        assert str(summary) == "50 rows accepted, 0 rejected; 300 records added, 0 duplicates skipped"
        assert {r.attribute for r in registry.amvs} == {a.name for a in STANDARD_ATTRIBUTES}

    def test_only_a_registry_is_imported_into(self, tmp_path):
        store = Store(tmp_path / "store")
        store.save(fresh_registry())
        files = {name: (store.root / name).read_bytes() for name in Store.FILES}
        table = store.load(log=False)
        # a row to file, and a header alone, which would file nothing
        for source in (io.StringIO(qws_rows(1)), io.StringIO(qws_rows(0))):
            with pytest.raises(TypeError, match="^only a Registry is imported into, "
                                                "not a ProfileTable$"):
                import_qws(table, source)
            assert source.tell() == 0  # refused before the dataset is read
        assert table == store.load(log=False)
        assert {name: (store.root / name).read_bytes() for name in Store.FILES} == files

    def test_mapping_targets_must_be_registered(self):
        registry = Registry()  # no attributes at all
        with pytest.raises(UnknownAttributeError):
            import_qws(registry, io.StringIO(qws_rows(1)), STANDARD_QWS_MAPPING)


def outcome(store, log=True):
    """What a load of the store gives: its attributes, a registry's records, with every
    dict order and float sign, and the mean of each SLO triple, and the profile of each
    pair with an SLO, or the refusal's type and text. A reader's table holds no record."""
    try:
        loaded = store.load(log=log)
    except ValueError as exc:
        return type(exc), str(exc)
    records = () if isinstance(loaded, ProfileTable) else (
        repr(contents(loaded)), repr([loaded.amv_mean(*key) for key in loaded.slos]))
    return (list(loaded.attributes.items()), *records,
            repr(sorted(profile_table(loaded).items())))


def profile_table(loaded):
    """(csp, attribute) -> the profile row of each pair with an SLO, as a reader's table
    holds it or a registry builds it."""
    return (loaded if isinstance(loaded, ProfileTable) else loaded.profile_table()).rows


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


def load_recorded(store, monkeypatch, log=True):
    """(what a load gives, whether it parsed the CSV files rather than using the snapshot)."""
    parses = []
    parse = Store._parse

    def recorded(self, contents):
        parses.append(self)
        return parse(self, contents)

    with monkeypatch.context() as patch:
        patch.setattr(Store, "_parse", recorded)
        return outcome(store, log), bool(parses)


def hexed(profile):
    """A profile's fields, each float as its ``float.hex``."""
    csp_id, attribute, rate, satisfied, agreed, span, actual = profile
    return (csp_id, attribute, float.hex(rate), satisfied, agreed,
            *map(float.hex, (span.lower, span.upper, actual.lower, actual.upper)))


def profile_rows(section):
    """The profiles of a snapshot's profile table section, each ``hexed``."""
    return [hexed(from_row(csp_id, attribute, row))
            for csp_id, attribute, *row in zip(*marshal.loads(section))]


def snapshot_parts(path):
    """The snapshot's header, decoded, and the bytes of its sections: the attributes,
    the profile table, the SLO index, the means, the distinct AMV triples, and the log's
    counts, values and sequences."""
    stream = io.BytesIO(path.read_bytes()[4:])
    header = marshal.load(stream)
    sections = [stream.read(size) for size in header[2]]
    return header, *sections, stream.read()


def packed(code, column):
    """A log column as the snapshot holds it: a little-endian ``struct`` array of ``code``."""
    return struct.pack(f"<{len(column)}{code}", *column)


def log_columns(log):
    """The distinct triples, row counts, values and sequences that the log sections hold."""
    distinct, counts, values, sequences = log
    return (marshal.loads(distinct), marshal.loads(counts),
            *(list(struct.unpack(f"<{len(part) // 8}{code}", part))
              for code, part in (("d", values), ("q", sequences))))


def log_sections(distinct, counts, values, sequences):
    """The log sections of these columns, as a save writes them."""
    return (marshal.dumps(distinct, 2), marshal.dumps(counts, 2),
            packed("d", values), packed("q", sequences))


def grouped_rows(columns):
    """By place, its rows' (value, sequence) in the grouped columns of a log."""
    starts = list(itertools.accumulate(columns["counts"], initial=0))
    rows = list(zip(columns["values"], columns["sequences"]))
    return [rows[start:end] for start, end in zip(starts, starts[1:])]


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
    IMPORTED = ["Svc-A", "Svc-A/monitor"]  # the ids that import-qws gives "Svc A"

    def random_command(self, rng, root, work, agreed, longest):
        """One submit-slo, submit-amv or import-qws of random rows on the store at ``root``,
        whose longest explicit sequences are ``longest`` and the two below it."""
        kind = rng.random()
        if kind < 0.3 or not agreed:
            rows = [[*(self.IMPORTED if rng.random() < 0.2 else rng.choices(self.IDS, k=2)),
                     rng.choice(self.SPELLINGS),
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
                                       longest - rng.randrange(3)])
                rows.append([*triple, repr(value), sequence])
            argv = ["submit-amv", write_rows(work / "amvs.csv", AMV_COLUMNS, rows)]
        else:
            columns = list(STANDARD_QWS_MAPPING)
            rows = [[rng.choice(self.SERVICES)]
                    + [rng.choice(["-0.0", "1.5", repr(rng.uniform(0, 100))]) for _ in columns]
                    for _ in range(rng.randrange(1, 4))]
            argv = ["import-qws", write_rows(work / "qws.csv", ["Service Name", *columns], rows)]
        main(["--store", str(root)] + argv)

    def assessed(self, root, request, monkeypatch, capsys):
        """(whether its load parsed the CSV files rather than using the snapshot, exit
        code, stdout with elapsed_seconds masked, stderr) of ``assess --format structured``
        on ``root``. Its load gives a table either way."""
        capsys.readouterr()
        loaded, parses = [], []
        load, parse = Store.load, Store._parse

        def recorded(self, **kwargs):
            loaded.append(load(self, **kwargs))
            return loaded[-1]

        with monkeypatch.context() as patch:
            patch.setattr(Store, "load", recorded)
            patch.setattr(Store, "_parse", lambda *args: parses.append(args) or parse(*args))
            code = main(["--store", str(root), "assess", "--format", "structured", request])
        out, err = capsys.readouterr()
        assert isinstance(loaded[-1], ProfileTable)
        return (bool(parses), code, re.sub(r'"elapsed_seconds": [^,}]+', "", out), err)

    def test_a_snapshot_load_equals_a_parse_load(self, tmp_path, monkeypatch, capsys):
        rng = random.Random(14)
        seen = {"negative zero": 0, "long sequence": 0, "ranked": 0, "refused": 0,
                "restored mean computed": 0, "outside int64 refused": 0}

        def unset_means(root):
            """The distinct triples whose mean the snapshot holds as not computed yet."""
            means, distinct = map(marshal.loads, snapshot_parts(root / Store.SNAPSHOT_FILE)[4:6])
            return {triple for triple, mean in zip(distinct, means) if mean is None}

        for n in range(16):
            root, work = tmp_path / f"store{n}", tmp_path / f"work{n}"
            work.mkdir()
            assert main(["--store", str(root), "register-attributes", "--qws-defaults"]) == 0
            agreed = []
            # past 32 bits, and in one store of three int64's largest, after
            # which an auto sequence is outside int64
            longest = 2 ** 63 - 1 if n % 3 == 2 else 2 ** 62
            for _ in range(rng.randrange(1, 24)):
                unset = unset_means(root)
                self.random_command(rng, root, work, agreed, longest)
                # an auto sequence after int64's largest is refused at its row
                seen["outside int64 refused"] += "is outside int64" in capsys.readouterr().err
                # an SLO on an imported triple, whose mean the writer computed
                # from the values that it restored
                seen["restored mean computed"] += bool(unset - unset_means(root))
                loaded, parsed = load_recorded(Store(root), monkeypatch)
                assert loaded == parsed_outcome(Store(root))
                # every writer left a snapshot of what it saved
                assert not parsed
                registry = Store(root)._parse({name: (root / name).read_bytes()
                                               for name in Store.FILES})
                # the snapshot's profiles are those a parse builds, to the bit
                table = registry.profile_table()
                assert profile_rows(snapshot_parts(root / Store.SNAPSHOT_FILE)[2]) == [
                    hexed(actual_slo_interval(table, csp_id, name))
                    for csp_id, name in registry._slo_index]
                # the writer, which spliced the log's sections as it loaded them,
                # wrote what a writer that parses the files and changes nothing writes
                snapshot = (root / Store.SNAPSHOT_FILE).read_bytes()
                (root / Store.SNAPSHOT_FILE).unlink()
                assert main(["--store", str(root), "register-attributes", "--qws-defaults"]) == 0
                assert (root / Store.SNAPSHOT_FILE).read_bytes() == snapshot
                # assess reads the attributes and the profile table alone, and gives
                # what a parse gives
                spans = [(0, 1e3)] * 3 + [sorted(rng.uniform(0, 100) for _ in "lu")]
                request = write_rows(work / "request.csv", REQUEST_COLUMNS, [
                    [spelling, *rng.choice(spans)] for spelling in
                    rng.sample(["av", "latency", "res"], rng.choice([1, 1, 1, 2, 3]))])
                restored = self.assessed(root, request, monkeypatch, capsys)
                snapshot = (root / Store.SNAPSHOT_FILE).read_bytes()
                (root / Store.SNAPSHOT_FILE).unlink()
                parsed = self.assessed(root, request, monkeypatch, capsys)
                assert (restored, parsed[0]) == ((False, *parsed[1:]), True)
                (root / Store.SNAPSHOT_FILE).write_bytes(snapshot)
                seen["ranked" if restored[1] == 0 else "refused"] += 1
            rows = list(Store(root).load().amvs)
            seen["negative zero"] += any(math.copysign(1, row.value) < 0 for row in rows)
            seen["long sequence"] += any(row.sequence >= 2 ** 62 - 2 for row in rows)
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

    def checked_writer(self, store):
        """A writer of snapshot bodies under a valid CRC, from a header and parts."""
        path = store.root / Store.SNAPSHOT_FILE

        def checked(header, *parts):
            body = marshal.dumps(header, 2) + b"".join(parts)
            path.write_bytes(zlib.crc32(body).to_bytes(4, "little") + body)

        return checked

    def test_a_snapshot_of_another_format_is_not_used(self, store, monkeypatch, capsys):
        path = store.root / Store.SNAPSHOT_FILE
        blob = path.read_bytes()
        (tag, stamps, sizes), head, table_part, slo_part, means_part, *log = snapshot_parts(path)
        expected = parsed_outcome(store)
        read_only = outcome(store, log=False)
        checked = self.checked_writer(store)

        def sectioned(*parts):
            """A body of these sections, each marshalled unless given as bytes."""
            parts = [part if isinstance(part, bytes) else marshal.dumps(part, 2)
                     for part in parts]
            checked((tag, stamps, tuple(map(len, parts[:-1]))), *parts)

        sectioned(head, table_part, slo_part, means_part, *log)
        assert load_recorded(store, monkeypatch) == (expected, False)
        assert load_recorded(store, monkeypatch, log=False) == (read_only, False)
        assert read_only != expected  # it holds no SLO, mean or log
        assert read_only[-1] == expected[-1]  # but the same profiles
        previous = tag.replace("snapshot 11", "snapshot 10")
        assert previous != tag
        attributes, table = marshal.loads(head), marshal.loads(table_part)
        index = marshal.loads(slo_part)
        # the SLO triples and values, as the formats before this one held them
        slos = [(csp_id, csc_id, name) for (csp_id, name), consumers in index.items()
                for csc_id in consumers]
        slo_values = [value for consumers in index.values() for value in consumers.values()]
        slo_9 = marshal.dumps((slos, slo_values), 2)
        means = marshal.loads(means_part)
        distinct, counts, values, sequences = log_columns(log)
        assert counts == [2, 1]
        # each row's place in submission order, which the previous formats
        # held: the fixture's rows are p1's c1 on availability, its c2 on
        # latency, then its c1 again
        places = [0, 1, 0]
        places_part = marshal.dumps(places, 2)
        # the log in submission order, as the formats before that held it
        groups = grouped_rows({"counts": counts, "values": values, "sequences": sequences})
        rows = [groups[place].pop(0) for place in places]
        in_order = [marshal.dumps([row[at] for row in rows], 2) for at in (0, 1)]
        # the sections of snapshot 9: this format's, but the SLOs as triples
        # and values (snapshot 10, the previous format, has this layout)
        layout_9 = (head, table_part, slo_9, means_part, *log)
        sizes_9 = tuple(map(len, layout_9[:-1]))
        # and of the one before, after the means: the grouped values and
        # sequences as marshal lists
        layout_8 = (*log[:2], marshal.dumps(values, 2), marshal.dumps(sequences, 2))
        sizes_8 = (*sizes_9[:4], *map(len, layout_8[:-1]))
        # and of the one before: the distinct triples, the places, then the
        # counts and the grouped values and sequences
        layout_7 = (log[0], places_part, *layout_8[1:])
        sizes_7 = (*sizes_9[:4], *map(len, layout_7[:-1]))
        # and of the one before, after the SLOs: the means, the distinct
        # triples, then the places, values and sequences
        layout_6 = (means_part, log[0], places_part, *in_order)
        sizes_6 = (*sizes_9[:3], *map(len, layout_6[:-1]))
        # and of the one before: the SLOs, the distinct triples and the means
        # in one, then the places, values and sequences
        layout_5 = (marshal.dumps((slos, slo_values, distinct, means), 2), places_part, *in_order)
        sizes_5 = (*sizes[:2], *map(len, layout_5[:-1]))
        layout_3 = (marshal.dumps((attributes, (slos, slo_values), means), 2),
                    marshal.dumps((distinct, places, *(marshal.loads(column)
                                                       for column in in_order)), 2))

        def first_set(triples, at, value):
            """The triples with field ``at`` of the first one set to ``value``."""
            return [(*triples[0][:at], value, *triples[0][at + 1:]), *triples[1:]]

        # that neither kind of load uses: another header, attributes of another
        # shape, or a body in a previous format's layout, or with the
        # attributes and the table in one section
        for write in [
            *(lambda header=header: checked(header, head, table_part, slo_part, means_part, *log)
              for header in (
                  (tag.replace(sys.implementation.cache_tag, "cpython-39"), stamps, sizes),
                  ("fastcloud store snapshot 0", stamps, sizes), (previous, stamps, sizes),
                  (tag, stamps), (tag, stamps, sizes, None), (tag, stamps, None),
                  (tag, stamps, (sizes[0] - 1, *sizes[1:])), (tag, stamps, sizes[:-1]),
                  (tag, stamps, (*sizes, 0)), tag)),
            lambda: checked((previous, stamps, len(layout_3[0])), *layout_3),
            lambda: checked((tag, stamps, len(layout_3[0])), *layout_3),
            lambda: checked((previous, stamps, sizes_5), head, table_part, *layout_5),
            lambda: checked((tag, stamps, sizes_5), head, table_part, *layout_5),
            lambda: checked((previous, stamps, sizes_6), head, table_part, slo_9, *layout_6),
            lambda: checked((previous, stamps, sizes_7), head, table_part, slo_9, means_part,
                            *layout_7),
            lambda: checked((previous, stamps, sizes_8), head, table_part, slo_9, means_part,
                            *layout_8),
            lambda: checked((previous, stamps, sizes_9), *layout_9),
            lambda: checked((tag, stamps, sizes_7), head, table_part, slo_9, means_part,
                            *layout_7),
            lambda: sectioned((attributes, table), slo_part, means_part, *log),
            lambda: sectioned(7, table, slo_part, means_part, *log),
            lambda: sectioned((attributes, table), table, slo_part, means_part, *log),
            lambda: sectioned([[*attributes[0][:3], 1]], table, slo_part, means_part, *log),
            # availability unregistered
            lambda: sectioned(attributes[1:], table, slo_part, means_part, *log),
        ]:
            write()
            assert load_recorded(store, monkeypatch) == (expected, True), path.read_bytes()
            assert load_recorded(store, monkeypatch, log=False) == (read_only, True)
        # snapshots 9, 8 and 6 have as many sections, and their first two are
        # this format's: under this tag, a reader takes them, and a writer
        # refuses the rest
        for write in (
                lambda: checked((tag, stamps, sizes_9), *layout_9),
                lambda: checked((tag, stamps, sizes_8), head, table_part, slo_9, means_part,
                                *layout_8),
                lambda: checked((tag, stamps, sizes_6), head, table_part, slo_9, *layout_6)):
            write()
            assert load_recorded(store, monkeypatch) == (expected, True)
            assert load_recorded(store, monkeypatch, log=False) == (read_only, False)
        # a writer replaces a file of the previous tag, in this format's layout
        # (snapshot 10's) or in snapshot 9's, with the current format's bytes
        for write in (
                lambda: checked((previous, stamps, sizes), head, table_part, slo_part, means_part,
                                *log),
                lambda: checked((previous, stamps, sizes_9), *layout_9)):
            write()
            assert main(["--store", str(store.root), "register-attributes", "--qws-defaults"]) == 0
            assert path.read_bytes() == blob
        capsys.readouterr()
        # a table section of another shape, which only a reader's load decodes
        for part in (7, (attributes, table), table[:-1], [table]):
            sectioned(head, part, slo_part, means_part, *log)
            assert load_recorded(store, monkeypatch) == (expected, False)
            assert load_recorded(store, monkeypatch, log=False) == (read_only, True)
        # SLOs, means and a log that no parse gives, which only a full load
        # decodes: a table section whose length takes the SLOs in, or
        # sections of another shape
        checked((tag, stamps, (sizes[0], sizes[1] + sizes[2], *sizes[3:], 0)),
                head, table_part, slo_part, means_part, *log)
        assert load_recorded(store, monkeypatch) == (expected, True)
        assert load_recorded(store, monkeypatch, log=False) == (read_only, False)
        parts = {"slos": index, "means": means, "distinct": distinct,
                 "counts": log[1], "values": log[2], "sequences": log[3]}
        (pair, consumers), *other_pairs = index.items()
        assert (pair, consumers) == (("p1", "availability"), {"c1": 90.0})

        def but(**changed):
            """The sections after the table, with the named ones changed."""
            return {**parts, **changed}.values()

        def first_pair(key=pair, value=consumers):
            """The SLO index with its first pair's key or consumers replaced."""
            return {key: value, **dict(other_pairs)}

        for sections in (
                # an SLO section that is not the index: another type, the
                # previous format's triples and values, or the index's items
                but(slos=7), but(means=7), but(distinct=7),
                but(slos=layout_3[1]), but(slos=layout_5[0]),
                but(slos=(slos, slo_values)), but(slos=[*index.items()]),
                # a means column one short or one long
                but(means=means[:-1]), but(means=[*means, 1.0]),
                # a pair with no consumer, or consumers that are not a dict
                but(slos={**index, ("p1", "reliability"): {}}),
                *(but(slos=first_pair(value=value)) for value in (90.0, [("c1", 90.0)])),
                # pair keys that a parse refuses or files under another name: an
                # abbreviation, an unregistered attribute, a padded id and an
                # empty one; and a key of one field or of three
                *(but(slos=first_pair(key=key)) for key in (
                    ("p1", "av"), ("p1", "nosuch"), (" p1", "availability"),
                    ("", "availability"), ("p1",), ("p1", "availability", "c1"))),
                # a padded or empty consumer id
                *(but(slos=first_pair(value={csc_id: 90.0})) for csc_id in (" c1", "c1 ", "")),
                # an SLO value that is not finite and positive, and a mean that is
                # not None or a finite number of at least 0
                *(but(slos=first_pair(value={"c1": value}))
                  for value in (math.nan, math.inf, 0.0, -1.0)),
                *(but(means=[value, *means[1:]])
                  for value in (math.nan, math.inf, -math.inf, -1.0, "92.25", "", [92.25], [])),
                but(sequences=[[1]] * len(sequences)),
                # log columns that disagree: a short values or sequences column,
                # one a byte long, a repeated triple or (triple, sequence), a
                # triple that no row uses
                but(values=packed("d", values[:-1])), but(sequences=packed("q", sequences[1:])),
                but(values=log[2] + b"\0"), but(sequences=log[3] + b"\0"),
                but(distinct=[distinct[0], *distinct], means=[means[0], *means],
                    counts=[counts[0], *counts]),
                but(sequences=packed("q", [sequences[0]] * len(sequences))),
                but(distinct=[*distinct, ("p1", "c9", "availability")], means=[*means, None],
                    counts=[*counts, 0]),
                # row counts that disagree with the log: one short, one long, a
                # row moved so that a place counts none, and as many counts as
                # places that the log does not hold
                but(counts=[counts[0] - 1, *counts[1:]]),
                but(counts=[*counts[:-1], counts[-1] + 1]),
                but(counts=[counts[0] + 1, counts[1] - 1, *counts[2:]]),
                but(counts=tuple(counts)), but(counts=[float(counts[0]), *counts[1:]]),
                but(counts=[counts[0], True]),
                # AMV triples that a parse refuses or files under another name
                *(but(distinct=first_set(distinct, at, value))
                  for at, value in ((2, "av"), (2, "nosuch"), (0, " p"), (1, " p"), (0, ""))),
                # columns that a parse gives as lists: a tuple, and the rows as
                # the previous format's marshal lists
                but(means=tuple(means)), but(distinct=tuple(distinct)),
                but(values=layout_8[2]), but(sequences=layout_8[3])):
            sectioned(head, table_part, *sections)
            assert load_recorded(store, monkeypatch) == (expected, True), sections
            assert load_recorded(store, monkeypatch, log=False) == (read_only, False)

    def test_triples_out_of_first_row_order_are_restored_as_written(
            self, store, tmp_path, monkeypatch, capsys):
        path = store.root / Store.SNAPSHOT_FILE
        (tag, stamps, _), head, table_part, slo_part, means_part, *log = snapshot_parts(path)
        distinct, counts, values, sequences = log_columns(log)
        assert counts == [2, 1]
        # the distinct triples, their means, counts and groups of rows reversed:
        # each row still files under its own triple, but no parse orders the
        # triples so. No section holds the rows' order across triples, so the
        # triples' order is derived data, like the means, and taken as written
        groups = grouped_rows({"counts": counts, "values": values, "sequences": sequences})[::-1]
        parts = (head, table_part, slo_part, marshal.dumps(marshal.loads(means_part)[::-1], 2),
                 *log_sections(distinct[::-1], counts[::-1],
                               *([row[at] for group in groups for row in group] for at in (0, 1))))
        self.checked_writer(store)((tag, stamps, tuple(map(len, parts[:-1]))), *parts)
        crafted = path.read_bytes()
        parsed = list(Store(store.root)._parse(
            {name: (store.root / name).read_bytes() for name in Store.FILES}).amvs)
        with monkeypatch.context() as patch:
            patch.delattr(Store, "_parse")  # so that only the snapshot can load the store
            registry = store.load()
            # the same rows, sequences and means, with the triples in the written order
            assert list(registry.amvs) == [parsed[2], *parsed[:2]]
        assert registry.amv_mean("p1", "c1", "availability") == (91.5 + 93) / 2
        # a writer that reads no row keeps the sections as it read them
        assert main(["--store", str(store.root), "register-attributes", "--qws-defaults"]) == 0
        assert path.read_bytes() == crafted
        # a library save into a new root writes amvs.csv in that order
        copy = Store(tmp_path / "copy")
        copy.save(store.load())
        assert (copy.root / Store.AMVS_FILE).read_text() == AMV_HEADER + (
            "p1,c2,latency,11.25,1\np1,c1,availability,91.5,1\np1,c1,availability,93.0,2\n")
        capsys.readouterr()

    def test_a_refused_held_triple_that_no_file_holds_has_no_mean(self, store):
        path = store.root / Store.SNAPSHOT_FILE
        (tag, stamps, _), head, table_part, slo_part, means_part, *log = snapshot_parts(path)
        distinct, counts, values, sequences = log_columns(log)
        # a third distinct triple, which no file holds, of one held row that its
        # read refuses: the records part is accepted, so the load restores it
        ghost = ("p2", "c1", "availability")
        parts = (head, table_part, slo_part, marshal.dumps([*marshal.loads(means_part), None], 2),
                 *log_sections([*distinct, ghost], [*counts, 1], [*values, -1.0],
                               [*sequences, 1]))
        self.checked_writer(store)((tag, stamps, tuple(map(len, parts[:-1]))), *parts)
        registry = store.load()
        assert ghost in registry._place and registry._rows is not None
        # its mean reads the refused row, which leaves the log to the parse,
        # and the parse holds no row of the triple
        assert registry.amv_mean(*ghost) is None
        assert registry._rows is None and ghost not in registry._place
        parsed = Store(store.root)._parse(
            {name: (store.root / name).read_bytes() for name in Store.FILES})
        assert registry == parsed and contents(registry) == contents(parsed)

    def test_an_interleaved_log_loads_and_saves_grouped_by_triple(self, tmp_path):
        def text(rows):
            return AMV_HEADER + "".join(f"{csp},{csc},{name},{value!r},{sequence}\n"
                                        for csp, csc, name, value, sequence in rows)

        registry = fresh_registry()
        triples = [("p1", "c1", "availability"), ("p2", "c1", "latency"),
                   ("p1", "c2", "availability")]
        for key in triples:
            registry.submit_slo(SloRecord(*key, 90.0))
        # the triples' rows interleaved, row by row
        submitted = [(*key, 90.0 + 10 * at + row, row + 1) for row in range(3)
                     for at, key in enumerate(triples)]
        for row in submitted:
            registry.submit_amv(AmvRecord(*row[:4]))
        grouped = [(*key, 90.0 + 10 * at + row, row + 1) for at, key in enumerate(triples)
                   for row in range(3)]
        # a whole write holds the log in its one order, grouped by triple
        store = Store(tmp_path / "store")
        store.save(registry)
        assert (store.root / Store.AMVS_FILE).read_text() == text(grouped)
        # amvs.csv written by hand in submission order, then snapshotted by a
        # writer that parses it and changes no file
        (store.root / Store.AMVS_FILE).write_text(text(submitted))
        store.save(store.load())
        assert (store.root / Store.AMVS_FILE).read_text() == text(submitted)
        # with and without the snapshot, a load gives equal registries, whose
        # log reads grouped by triple, in order of each triple's first row
        restored = Store(store.root).load()
        assert restored._rows is not None  # the rows are held in the snapshot
        parsed = Store(store.root)._parse(
            {name: (store.root / name).read_bytes() for name in Store.FILES})
        assert restored == parsed == registry and contents(restored) == contents(parsed)
        assert [astuple(record) for record in restored.amvs] == grouped
        # each, saved by the library into a new root, writes the same grouped
        # bytes, with the same sequences and means
        for directory, source in (("restored", restored), ("parsed", parsed)):
            copy = Store(tmp_path / directory)
            copy.save(source)
            assert (copy.root / Store.AMVS_FILE).read_text() == text(grouped)
            for snapshot in (True, False):
                if not snapshot:
                    (copy.root / Store.SNAPSHOT_FILE).unlink()
                reloaded = Store(copy.root).load()
                assert reloaded == registry
                assert [reloaded.amv_mean(*key) for key in triples] == [
                    registry.amv_mean(*key) for key in triples]
        # an append of interleaved rows, to held triples and to a new one,
        # writes them grouped by triple, in place order
        loaded = store.load()
        loaded.submit_slo(SloRecord("p3", "c1", "av", 90.0))
        for csp, csc, name, value in (("p3", "c1", "av", 80.0), ("p1", "c2", "av", 120.0),
                                      ("p2", "c1", "la", 130.0), ("p3", "c1", "av", 81.0),
                                      ("p1", "c2", "av", 121.0)):
            loaded.submit_amv(AmvRecord(csp, csc, name, value))
        store.save(loaded)
        assert (store.root / Store.AMVS_FILE).read_text() == text([
            *submitted, ("p2", "c1", "latency", 130.0, 4),
            ("p1", "c2", "availability", 120.0, 4), ("p1", "c2", "availability", 121.0, 5),
            ("p3", "c1", "availability", 80.0, 1), ("p3", "c1", "availability", 81.0, 2)])
        assert Store(store.root).load() == loaded

    def test_a_span_bound_that_no_slo_gives_is_not_used(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "store"
        slos = write_rows(tmp_path / "slos.csv", SLO_COLUMNS, [
            [csp_id, csc_id, "av", value] for csp_id in ("p1", "p2")
            for csc_id, value in (("c1", "90"), ("c2", "95"))])
        amvs = write_rows(tmp_path / "amvs.csv", AMV_COLUMNS, [
            [csp_id, csc_id, "av", "96", ""] for csp_id in ("p1", "p2") for csc_id in ("c1", "c2")])
        for argv in (["register-attributes", "--qws-defaults"], ["submit-slo", slos],
                     ["submit-amv", amvs]):
            assert main(["--store", str(root)] + argv) == 0
        request = write_rows(tmp_path / "request.csv", REQUEST_COLUMNS, [["av", -1000, 100]])
        parsed = self.assessed(root, request, monkeypatch, capsys)
        assert parsed[:2] == (False, 0)
        # p2's span on availability as [-50, 95]: finite and ordered, but every
        # SLO value is positive, so no parse gives a bound below 0
        path = root / Store.SNAPSHOT_FILE
        (tag, stamps, sizes), head, table_part, *rest = snapshot_parts(path)
        csp_ids, names, satisfied, agreed, lows, highs = marshal.loads(table_part)
        assert (csp_ids, lows) == (("p1", "p2"), (90.0, 90.0))
        part = marshal.dumps([csp_ids, names, satisfied, agreed, (90.0, -50.0), highs], 2)
        self.checked_writer(Store(root))((tag, stamps, (sizes[0], len(part), *sizes[2:])),
                                         head, part, *rest)
        assert self.assessed(root, request, monkeypatch, capsys) == (True, *parsed[1:])

    def test_a_profile_table_of_another_shape_is_not_used(
            self, store, tmp_path, monkeypatch, capsys):
        (tag, stamps, sizes), head, table_part, *rest = snapshot_parts(
            store.root / Store.SNAPSHOT_FILE)
        expected = parsed_outcome(store)
        read_only = outcome(store, log=False)
        checked = self.checked_writer(store)
        table = marshal.loads(table_part)
        # csp ids, names, satisfied, agreed, and the spans' lower and upper
        # bounds, of (p1, availability) and (p1, latency)
        assert [len(column) for column in table] == [2] * 6

        def replaced(columns):
            part = marshal.dumps(columns, 2)
            checked((tag, stamps, (sizes[0], len(part), *sizes[2:])), head, part, *rest)

        def column_set(at, column, columns=table):
            return [*columns[:at], column, *columns[at + 1:]]

        def first_set(at, value, columns=table):
            return column_set(at, [value, *columns[at][1:]], columns)

        for columns in [
            # a row missing from a column, or one added to it
            *(column_set(at, table[at][:-1]) for at in range(6)),
            *(column_set(at, [*table[at], table[at][0]]) for at in range(6)),
            # more consumers satisfied than agreed, fewer than none, or none agreed
            first_set(2, table[3][0] + 1), first_set(2, -1), first_set(2, 0, first_set(3, 0)),
            # a span whose lower bound exceeds its upper, or with a bound that
            # is not finite
            first_set(4, table[5][0] + 1),
            *(first_set(at, bound) for at in range(4, 6)
              for bound in (math.nan, math.inf, -math.inf)),
            # an attribute that is not a registered name, a provider id that a
            # parse refuses, and a pair twice
            *(first_set(1, name) for name in ("av", "nosuch", 7)),
            *(first_set(0, csp_id) for csp_id in (" p1", "p1 ", "", 7)),
            [column[:1] * 2 for column in table],
            # a row of the wrong type
            first_set(2, 1.0), first_set(2, True), first_set(3, 1.0), first_set(4, 90),
            first_set(5, "90"), first_set(4, (90.0, 90.0)), first_set(5, None),
            column_set(2, 7),
        ]:
            replaced(columns)
            # a writer does not decode the table
            assert load_recorded(store, monkeypatch) == (expected, False), columns
            assert load_recorded(store, monkeypatch, log=False) == (read_only, True), columns
        # a table that lacks a pair with an SLO has a table's shape, and a reader
        # takes it as it is: profiles are derived data, which only this program
        # writes. The next writer builds the whole table, even one that
        # changes no SLO and no mean of an SLO triple
        replaced([column[1:] for column in table])
        loaded, parsed = load_recorded(store, monkeypatch, log=False)
        assert not parsed and loaded[-1] != expected[-1]
        qws = write_rows(tmp_path / "qws.csv", ["Service Name", *STANDARD_QWS_MAPPING],
                         [["svc", *["1.5"] * len(STANDARD_QWS_MAPPING)]])
        assert main(["--store", str(store.root), "import-qws", qws]) == 0
        loaded, parsed = load_recorded(store, monkeypatch, log=False)
        assert not parsed and loaded[-1] == parsed_outcome(store)[-1] == expected[-1]
        capsys.readouterr()

    @pytest.mark.parametrize("command, header, row", [
        ("submit-amv", AMV_COLUMNS, ["p1", "c1", "av", "95", ""]),
        ("import-qws", ["Service Name", *STANDARD_QWS_MAPPING],
         ["svc", *["1.5"] * len(STANDARD_QWS_MAPPING)]),
        ("register-attributes", ATTRIBUTE_COLUMNS, ["uptime", "up", "%", "benefit"]),
    ], ids=["append-to-another-pair", "import-of-a-service-with-no-slo", "attribute-added"])
    def test_a_table_row_that_no_parse_gives_is_not_kept_by_a_writer(
            self, store, tmp_path, monkeypatch, capsys, command, header, row):
        root = store.root
        (tag, stamps, sizes), head, table_part, *rest = snapshot_parts(
            root / Store.SNAPSHOT_FILE)
        csp_ids, names, satisfied, agreed, *bounds = marshal.loads(table_part)
        assert (csp_ids, names, agreed) == (("p1", "p1"), ("availability", "latency"), (1, 1))
        # (p1, latency), a row of a pair that no command below lands on, with
        # more consumers satisfied than agreed
        part = marshal.dumps([csp_ids, names, (satisfied[0], 2), agreed, *bounds], 2)
        self.checked_writer(store)((tag, stamps, (sizes[0], len(part), *sizes[2:])),
                                   head, part, *rest)
        loaded, parsed = load_recorded(store, monkeypatch, log=False)
        assert parsed and loaded[-1] == parsed_outcome(store)[-1]
        # a writer builds the whole table again, whether its command changes
        # the mean of an SLO triple, (p1, c1, availability)'s, or none
        assert main(["--store", str(root), command,
                     write_rows(tmp_path / "step.csv", header, [row])]) == 0
        assert (root / Store.SNAPSHOT_FILE).read_bytes() == self.parsed_snapshot(root, tmp_path)
        loaded, parsed = load_recorded(store, monkeypatch, log=False)
        assert not parsed and loaded[-1] == parsed_outcome(store)[-1]
        capsys.readouterr()

    @pytest.mark.parametrize("value", [True, 90])
    def test_an_slo_value_that_a_parse_does_not_give_is_not_restored(
            self, store, tmp_path, monkeypatch, capsys, value):
        path = store.root / Store.SNAPSHOT_FILE
        (tag, stamps, sizes), head, table_part, slo_part, *rest = snapshot_parts(path)
        index = marshal.loads(slo_part)
        assert index["p1", "availability"] == {"c1": 90.0}
        index["p1", "availability"]["c1"] = value
        part = marshal.dumps(index, 2)
        self.checked_writer(store)((tag, stamps, (*sizes[:2], len(part), *sizes[3:])),
                                   head, table_part, part, *rest)
        assert load_recorded(store, monkeypatch) == (parsed_outcome(store), True)
        # a writer that replaces another objective writes slos.csv as a parse
        # gives it, and the next command parses it
        more = write_rows(tmp_path / "more.csv", SLO_COLUMNS, [["p1", "c2", "la", "13"]])
        argv = ["--store", str(store.root), "submit-slo", more]
        assert main(argv) == 0
        assert (store.root / Store.SLOS_FILE).read_text() == (
            SLO_HEADER + "p1,c1,availability,90.0\np1,c2,latency,13.0\n")
        path.unlink()
        assert main(argv) == 0
        capsys.readouterr()

    def test_an_slo_pair_that_is_not_a_tuple_is_not_restored(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "store"
        # a one-letter attribute name, so that a two-letter string reads as a pair
        attributes = write_rows(tmp_path / "attributes.csv", ATTRIBUTE_COLUMNS,
                                [["a", "a1", "%", "benefit"]])
        slos = write_rows(tmp_path / "slos.csv", SLO_COLUMNS, [["p", "c", "a", "5"]])
        for argv in (["register-attributes", attributes], ["submit-slo", slos]):
            assert main(["--store", str(root)] + argv) == 0
        path = root / Store.SNAPSHOT_FILE
        (tag, stamps, sizes), head, table_part, slo_part, *rest = snapshot_parts(path)
        assert marshal.loads(slo_part) == {("p", "a"): {"c": 5.0}}
        part = marshal.dumps({"pa": {"c": 5.0}}, 2)
        self.checked_writer(Store(root))((tag, stamps, (*sizes[:2], len(part), *sizes[3:])),
                                         head, table_part, part, *rest)
        assert load_recorded(Store(root), monkeypatch) == (parsed_outcome(Store(root)), True)
        capsys.readouterr()

    @staticmethod
    def parsed_snapshot(root, tmp_path):
        """The .snapshot bytes that a writer which parsed the files of the store leaves."""
        copy = tmp_path / "parsed"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(root, copy)
        (copy / Store.SNAPSHOT_FILE).unlink()
        assert main(["--store", str(copy), "register-attributes", "--qws-defaults"]) == 0
        return (copy / Store.SNAPSHOT_FILE).read_bytes()

    @staticmethod
    def library_append(root, work):
        """An append through the library, a profile that computes its triple's mean, a save."""
        store = Store(root)
        registry = store.load()
        registry.submit_amv(AmvRecord("p1", "c1", "av", 50.0))
        assert actual_slo_interval(registry.profile_table(), "p1", "av").satisfied_count == 0
        store.save(registry)

    @pytest.mark.parametrize("step", [
        ["register-attributes", ["uptime", "up", "%", "benefit"]],
        ["submit-slo", ["p1", "c1", "av", "92"]],
        ["submit-slo", ["p1", "c1", "av", "90"]],  # its own value: no file changes
        ["submit-amv", ["p1", "c2", "la", "20", ""]],
        ["submit-amv", ["p1", "c1", "av", "91.5", "1"]],  # a duplicate
        ["import-qws", ["svc", *["1.5"] * len(STANDARD_QWS_MAPPING)]],
        library_append,
        ["submit-amv", ["p1", "c3", "av", "96", ""]],  # c3's first: 1 of 2 met, now 2
    ], ids=["attribute-added", "slo-changed", "slo-same-value", "amv-appended",
            "amv-duplicates", "import-qws", "library-mean-recomputed", "first-amv-of-slo-triple"])
    def test_a_save_writes_the_snapshot_that_a_parse_gives(
            self, store, tmp_path, capsys, step):
        root = store.root
        slos = write_rows(tmp_path / "c3.csv", SLO_COLUMNS, [["p1", "c3", "av", "95"]])
        assert main(["--store", str(root), "submit-slo", slos]) == 0  # an SLO with no AMV
        assert (root / Store.SNAPSHOT_FILE).read_bytes() == self.parsed_snapshot(root, tmp_path)
        if callable(step):
            step(root, tmp_path)
        else:
            command, row = step
            header = {"register-attributes": ATTRIBUTE_COLUMNS, "submit-slo": SLO_COLUMNS,
                      "submit-amv": AMV_COLUMNS}.get(command, ["Service Name",
                                                              *STANDARD_QWS_MAPPING])
            assert main(["--store", str(root), command,
                         write_rows(tmp_path / "step.csv", header, [row])]) == 0
        # the save wrote what a writer that parsed the files writes
        assert (root / Store.SNAPSHOT_FILE).read_bytes() == self.parsed_snapshot(root, tmp_path)
        capsys.readouterr()

    def test_a_reader_s_table_is_not_written(self, store, tmp_path):
        files = {path.name: path.read_bytes() for path in store.root.iterdir()}
        table = store.load(log=False)
        # it holds the attributes and the profile table, and no record: the
        # benchmark's layer tracer counts these lengths on every load
        assert isinstance(table, ProfileTable)
        assert (len(table.slos), len(table.amvs)) == (0, 0)
        assert table.attributes == store.load().attributes
        assert repr(sorted(table.rows.items())) == repr(
            sorted(profile_table(store.load()).items()))
        assert {csp_id for csp_id, _ in table.rows} == {"p1"}
        assert actual_slo_interval(table, "p1", "av").satisfied_count == 1
        held = repr(table)
        # nothing submits to it or reads records from it, and a save refuses it
        # before it touches a file
        assert not any(hasattr(table, name) for name in (
            "submit_slo", "submit_amv", "slos_for", "amv_samples", "amv_mean"))
        for target in (store, Store(store.root), Store(tmp_path / "new")):
            with pytest.raises(TypeError):
                target.save(table)
        assert {path.name: path.read_bytes() for path in store.root.iterdir()} == files
        assert not (tmp_path / "new").exists()
        assert repr(table) == held

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    def test_a_monitored_value_that_a_parse_refuses_is_not_restored(
            self, store, monkeypatch, value):
        path = store.root / Store.SNAPSHOT_FILE
        read_only = outcome(store, log=False)
        # the packed float of 93, which only the log's values column holds
        held = struct.pack("<d", 93.0)
        body = path.read_bytes()[4:]
        assert body.count(held) == 1
        body = body.replace(held, struct.pack("<d", value))
        path.write_bytes(zlib.crc32(body).to_bytes(4, "little") + body)
        assert load_recorded(store, monkeypatch) == (parsed_outcome(store), True)
        # a reader's load does not decode the log
        assert load_recorded(store, monkeypatch, log=False) == (read_only, False)

    def test_a_submitted_sequence_outside_int64_is_refused_at_its_row(
            self, store, tmp_path, monkeypatch, capsys):
        root = store.root
        rows = write_rows(tmp_path / "outside.csv", AMV_COLUMNS, [
            ["p1", "c2", "la", "11.5", str(2 ** 63)], ["p1", "c2", "la", "12", str(-2 ** 63 - 1)],
            ["p1", "c2", "la", "12.5", str(2 ** 63 - 1)]])
        capsys.readouterr()
        assert main(["--store", str(root), "submit-amv", rows]) == 0
        out, err = capsys.readouterr()
        assert out == "1 appended, 2 failed\n"
        for line, sequence in ((2, 2 ** 63), (3, -2 ** 63 - 1)):
            assert (f"{rows}: line {line}: sequence {sequence} for ('p1', 'c2', 'latency') is "
                    "outside int64\n") in err
        # the row in int64 is saved, and so is a snapshot that the next load uses
        assert (root / Store.AMVS_FILE).read_text().endswith(f"p1,c2,latency,12.5,{2 ** 63 - 1}\n")
        assert load_recorded(store, monkeypatch) == (parsed_outcome(store), False)

    def test_an_auto_sequence_past_int64_is_refused(self, store, tmp_path, monkeypatch, capsys):
        root = store.root
        largest = write_rows(tmp_path / "largest.csv", AMV_COLUMNS,
                             [["p1", "c2", "la", "12", str(2 ** 63 - 1)]])
        assert main(["--store", str(root), "submit-amv", largest]) == 0
        files = {path.name: path.read_bytes() for path in root.iterdir()}
        # the next row of the triple would be numbered 2**63: refused, and
        # every store file is left as it was
        auto = write_rows(tmp_path / "auto.csv", AMV_COLUMNS, [["p1", "c2", "la", "13", ""]])
        capsys.readouterr()
        assert main(["--store", str(root), "submit-amv", auto]) == 2
        out, err = capsys.readouterr()
        assert out == "0 appended, 1 failed\n"
        assert f"line 2: sequence {2 ** 63} for ('p1', 'c2', 'latency') is outside int64" in err
        assert {path.name: path.read_bytes() for path in root.iterdir()} == files
        # a library submission is refused so too, and files nothing
        registry = store.load()
        with pytest.raises(ValueError, match=f"^sequence {2 ** 63} .* is outside int64"):
            registry.submit_amv(AmvRecord("p1", "c2", "la", 13.0))
        assert registry == store.load() and len(registry.amvs) == 4
        assert load_recorded(store, monkeypatch) == (parsed_outcome(store), False)

    # a valid row on the refused row's (provider, attribute), and on another
    @pytest.mark.parametrize("valid", [["p1", "c1", "av", "94", ""], ["p1", "c2", "la", "12", ""]],
                             ids=["same-pair", "other-pair"])
    def test_a_refused_first_row_of_a_triple_files_no_place(
            self, store, tmp_path, monkeypatch, capsys, valid):
        root = store.root
        slos = write_rows(tmp_path / "c3.csv", SLO_COLUMNS, [["p1", "c3", "av", "95"]])
        assert main(["--store", str(root), "submit-slo", slos]) == 0  # an SLO with no AMV
        rows = write_rows(tmp_path / "rows.csv", AMV_COLUMNS,
                          [["p1", "c3", "av", "97", str(2 ** 63)], valid])
        capsys.readouterr()
        assert main(["--store", str(root), "submit-amv", rows]) == 0
        out, err = capsys.readouterr()
        assert out == "1 appended, 1 failed\n"
        assert f"line 2: sequence {2 ** 63} for ('p1', 'c3', 'availability')" in err
        assert (root / Store.SNAPSHOT_FILE).read_bytes() == self.parsed_snapshot(root, tmp_path)
        assert load_recorded(store, monkeypatch) == (parsed_outcome(store), False)
        # a library submission is refused so too, and leaves the triple without a row
        registry = store.load()
        with pytest.raises(ValueError, match=f"^sequence {2 ** 63} .* is outside int64"):
            registry.submit_amv(AmvRecord("p1", "c3", "av", 97.0, 2 ** 63))
        assert registry.amv_mean("p1", "c3", "availability") is None
        assert registry.amv_samples("p1", "c3", "availability") == []
        # c3 unmonitored: counted as agreed, not satisfied, and not in the span
        assert registry.profile_table().rows["p1", "availability"] == (1, 2, 90.0, 90.0)
        assert registry == store.load()

    @pytest.mark.parametrize("command, rows", [
        ("submit-slo", [["p2", "c1", "av", "92"]]),  # p2's c1 mean of 91 no longer meets it
        ("submit-amv", [["p2", "c2", "av", "80", ""]]),  # p2's c2 mean falls to 88.5 < 95
    ], ids=["slo-replaced", "amv-appended"])
    def test_a_writer_leaves_the_profiles_of_what_it_saved(
            self, tmp_path, monkeypatch, capsys, command, rows):
        root = str(tmp_path / "store")
        slos = write_rows(tmp_path / "slos.csv", SLO_COLUMNS, [
            ["p1", "c1", "av", "90"], ["p1", "c2", "av", "95"],
            ["p2", "c1", "av", "90"], ["p2", "c2", "av", "95"]])
        amvs = write_rows(tmp_path / "amvs.csv", AMV_COLUMNS, [
            ["p1", "c1", "av", "93", ""], ["p1", "c2", "av", "96", ""],
            ["p2", "c1", "av", "91", ""], ["p2", "c2", "av", "97", ""]])
        for argv in (["register-attributes", "--qws-defaults"], ["submit-slo", slos],
                     ["submit-amv", amvs]):
            assert main(["--store", root] + argv) == 0
        request = write_rows(tmp_path / "request.csv", REQUEST_COLUMNS, [["av", 1, 100]])
        p2 = '"csp_id": "p2", "attribute": "availability", "consistency_rate": {}, "satisfied": {},'
        assert p2.format(1.0, 2) in self.assessed(root, request, monkeypatch, capsys)[2]
        # a writer that loads the snapshot, then changes one of p2's checks
        columns = SLO_COLUMNS if command == "submit-slo" else AMV_COLUMNS
        assert main(["--store", root, command, write_rows(tmp_path / "c.csv", columns, rows)]) == 0
        restored = self.assessed(root, request, monkeypatch, capsys)
        assert restored[:2] == (False, 0)
        assert p2.format(0.5, 1) in restored[2]
        (tmp_path / "store" / Store.SNAPSHOT_FILE).unlink()
        assert self.assessed(root, request, monkeypatch, capsys) == (True, *restored[1:])

    def test_an_unreadable_snapshot_is_not_used(self, store, monkeypatch, capsys):
        expected = parsed_outcome(store)
        path = store.root / Store.SNAPSHOT_FILE
        path.unlink()
        path.mkdir()  # reading it raises IsADirectoryError
        assert load_recorded(store, monkeypatch) == (expected, True)
        # a writer saves its records, though it cannot write the snapshot either
        assert main(["--store", str(store.root), "register-attributes", "--qws-defaults"]) == 0
        assert path.is_dir()
        assert load_recorded(store, monkeypatch) == (expected, True)
        capsys.readouterr()

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


class TestDecodeMutations:
    """``_decode`` on snapshot sections with one typed mutation each, no file between.

    A writer's decode gives None, or a registry that a parse of its own CSV
    bytes gives again; a reader's decode gives None, or a profile table
    whose every row could be a parse's ``profile_of`` row. The means
    and the profile table are derived data that only this program writes:
    a well-formed but wrong mean or table row is accepted (README "Store").
    """

    @staticmethod
    def corpus_registry(long_sequence):
        """A small registry of SLOs, auto and explicit sequences, and an imported triple."""
        registry = fresh_registry()
        for csp_id, csc_id, attribute, value in (
                ("p1", "c1", "av", 90.0), ("p1", "c2", "availability", 95.0),
                ("p1", "c1", "la", 12.5), ("p2", "c1", "la", 20.0), ("p2", "c2", "la", 15.0)):
            registry.submit_slo(SloRecord(csp_id, csc_id, attribute, value))
        for csp_id, csc_id, attribute, value, sequence in (
                ("p1", "c1", "av", 91.0, None), ("p1", "c2", "av", 0.0, None),
                ("p1", "c1", "av", 93.5, None), ("p2", "c1", "la", 19.0, 5),
                ("p2", "c1", "la", 21.0, 2), ("p1", "c1", "la", 11.0, None),
                ("p2", "c2", "la", 14.0, 2 ** 31 if long_sequence else 7)):
            registry.submit_amv(AmvRecord(csp_id, csc_id, attribute, value, sequence))
        import_qws(registry, io.StringIO(qws_rows(2)))  # SvcA's triples, with no SLO
        # a one-character name, which the second character of a str SLO key names
        registry.register_attribute(QosAttribute("x", "x1", "u", Polarity.BENEFIT))
        return registry

    @staticmethod
    def saved(registry, root):
        """The CSV files' bytes of a save of ``registry`` to a new store at ``root``."""
        shutil.rmtree(root, ignore_errors=True)
        Store(root).save(registry)
        return {name: (root / name).read_bytes() for name in Store.FILES}

    LOG = ("distinct", "counts", "values", "sequences")

    @classmethod
    def decoded_columns(cls, sections):
        """The sections' decoded columns, by name, each a list."""
        table = marshal.loads(sections[1])
        index, means = map(marshal.loads, sections[2:4])
        names = ("csp_ids", "names", "satisfied", "agreed", "lows", "highs")
        return {**{name: list(column) for name, column in zip(names, table)},
                "slo_pairs": list(index), "slo_consumers": list(index.values()), "means": means,
                **dict(zip(cls.LOG, log_columns(sections[4:])))}

    @classmethod
    def encoded_sections(cls, head, columns):
        """The eight sections of the attributes section ``head`` and ``columns``."""
        table = [columns[name] for name in
                 ("csp_ids", "names", "satisfied", "agreed", "lows", "highs")]
        return (head, marshal.dumps(table, 2),
                marshal.dumps(dict(zip(columns["slo_pairs"], columns["slo_consumers"])), 2),
                marshal.dumps(columns["means"], 2), *log_sections(*map(columns.get, cls.LOG)))

    # "slo_values" names the values of the SLO index's consumers dicts
    NUMBERS = ("satisfied", "agreed", "lows", "highs", "slo_values", "means", "counts",
               "values", "sequences")
    # the columns packed as one type each, floats and int64s
    PACKED = ("values", "sequences")
    # the columns that are read together, a row at a time: by table pair, by
    # SLO pair, by distinct triple, and by grouped row
    GROUPS = (("csp_ids", "names", "satisfied", "agreed", "lows", "highs"),
              ("slo_pairs", "slo_consumers"), ("distinct", "means", "counts"),
              ("values", "sequences"))

    @staticmethod
    def entry(rng, columns, column):
        """(holder, at): a random entry of ``column``, or of a random pair's consumers
        dict, copied first, for "slo_values"."""
        if column != "slo_values":
            return columns[column], rng.randrange(len(columns[column]))
        at = rng.randrange(len(columns["slo_consumers"]))
        consumers = columns["slo_consumers"][at] = dict(columns["slo_consumers"][at])
        return consumers, rng.choice(list(consumers))

    def mutate(self, rng, columns, kind, n):
        """Apply the ``n``-th mutation of ``kind`` to ``columns``.

        ``n`` picks the column of a number or type change and the change, in
        turn, so that every pair of them is tried; the rest is left to ``rng``.
        """
        if kind == "number":
            column = self.NUMBERS[n % len(self.NUMBERS)]
            holder, at = self.entry(rng, columns, column)
            value = holder[at]
            changes = (-value if isinstance(value, (int, float)) else -1, math.nan, math.inf,
                       -math.inf)
            # a packed sequence is an int64: its one number change is a negation
            holder[at] = changes[0 if column == "sequences" else n // len(self.NUMBERS) % 4]
        elif kind == "grouping":
            # the same rows, counted by another grouping: a row moved to the
            # next place's group, which files it there, or the rows of two
            # places counted as one place's
            counts = columns["counts"]
            at = rng.randrange(len(counts) - 1)
            if n % 2:
                counts[at:at + 2] = [counts[at] + counts[at + 1]]
            else:
                shift = rng.choice([1, -1]) if counts[at] > 1 else 1
                counts[at] -= shift
                counts[at + 1] += shift
        elif kind == "unused":
            if n % 2:  # an SLO pair that no consumer agreed
                columns["slo_pairs"].append(("p1", "reliability"))
                columns["slo_consumers"].append({})
            else:  # a distinct triple that no row uses
                columns["distinct"].append(("p1", "c9", "availability"))
                columns["means"].append(rng.choice([None, 1.0]))
                columns["counts"].append(0)
        elif kind == "spelling":
            column = rng.choice(("csp_ids", "names", "slo_pairs", "slo_consumers", "distinct"))
            at = rng.randrange(len(columns[column]))
            old = columns[column][at]
            # a field of a pair or a triple, a consumer id, or the one field of
            # a provider id or a name
            fields = [old] if isinstance(old, str) else list(old)
            field = rng.randrange(len(fields))
            spelled = fields[field]
            fields[field] = (
                {"availability": "av", "latency": "la"}.get(spelled, "nosuch")
                if field == {"names": 0, "slo_pairs": 1, "distinct": 2}.get(column)
                else rng.choice([f" {spelled}", f"{spelled} ", ""]))
            if column == "slo_consumers":
                columns[column][at] = {(fields[field] if csc_id == spelled else csc_id): value
                                       for csc_id, value in old.items()}
            else:
                columns[column][at] = fields[0] if isinstance(old, str) else tuple(fields)
        elif kind == "rows":
            names = rng.choice([(rng.choice(list(columns)),), *self.GROUPS])
            at = rng.randrange(len(columns[names[0]]))
            repeat = rng.random() < 0.5
            for name in names:
                rows = columns[name]
                columns[name] = rows[:at + 1] + rows[at:] if repeat else rows[:at] + rows[at + 1:]
        elif kind == "type":
            typed = [*(name for name in columns if name not in self.PACKED), "slo_values"]
            column = typed[n % len(typed)]
            to = (int, float, bool, str)[n // len(typed) % 4]
            holder, at = self.entry(rng, columns, column)
            try:
                holder[at] = to(holder[at])
            except (TypeError, ValueError, OverflowError):
                holder[at] = to(7)
        elif kind == "repeat":
            # a sequence of a place given as another row's of that place
            counts = columns["counts"]
            place = rng.choice([place for place, count in enumerate(counts) if count > 1])
            start = sum(counts[:place])
            first, second = rng.sample(range(start, start + counts[place]), 2)
            columns["sequences"][second] = columns["sequences"][first]
        elif kind == "counts":
            at = rng.randrange(len(columns["agreed"]))
            if rng.random() < 0.5:
                columns["satisfied"][at] = columns["agreed"][at] + 1
            else:  # no consumer agreed, so none is satisfied
                columns["satisfied"][at] = columns["agreed"][at] = 0
        elif kind == "container":
            at = rng.randrange(len(columns["slo_pairs"]))
            if n % 3 == 0:  # the means as a tuple, which an append cannot reset
                columns["means"] = tuple(columns["means"])
            elif n % 3 == 1:  # an SLO key of three fields
                columns["slo_pairs"][at] = (*columns["slo_pairs"][at], "x")
            else:  # an SLO key of two characters, whose second names attribute "x"
                columns["slo_pairs"][at] = columns["slo_pairs"][at][0][0] + "x"
        else:  # "pair": one table pair, SLO pair or distinct triple twice
            keys = rng.choice((("csp_ids", "names"), ("slo_pairs",), ("distinct",)))
            first, second = rng.sample(range(len(columns[keys[0]])), 2)
            for name in keys:
                columns[name][second] = columns[name][first]

    KINDS = ("number", "grouping", "unused", "spelling", "rows", "type", "counts", "repeat",
             "pair", "container")

    @staticmethod
    def check_places(sections, columns, whole):
        """Each place's rows that ``_decode_place`` accepts: a parse's, written as a
        save writes them, and those of the whole decode ``whole`` when it accepts.
        Returns whether it refused a place."""
        registry = _decode_records(sections)
        if registry._rows is None:  # no row
            return False
        refused = False
        assert len(registry._rows.counts) == len(registry._place), columns
        for place, count in enumerate(registry._rows.counts):
            samples = _decode_place(registry._rows, place)
            refused |= samples is None
            if samples is None:
                continue
            start = registry._rows.starts[place]
            assert len(samples) == count, columns
            assert set(map(type, samples)) == {int}, columns
            assert set(map(type, samples.values())) == {float}, columns
            assert all(0 <= value < math.inf for value in samples.values()), columns
            rows = slice(8 * start, 8 * (start + count))
            assert packed("d", list(samples.values())) == sections[6][rows], columns
            assert packed("q", list(samples)) == sections[7][rows], columns
            if whole is not None:
                assert samples == whole._samples[place], columns
        return refused

    def test_a_decoded_registry_is_one_that_a_parse_gives(self, tmp_path):
        rng = random.Random(27)
        corpus = []
        for long_sequence in (False, True):
            root = tmp_path / f"corpus{long_sequence}"
            files = self.saved(self.corpus_registry(long_sequence), root)
            _, head, *rest = snapshot_parts(root / Store.SNAPSHOT_FILE)
            sections = (head, *rest)
            registry = _decode(sections)
            assert registry == Store(root)._parse(files)
            corpus.append((head, self.decoded_columns(sections)))
        # refusals of each kind, and mutated sections that a decode that reads them accepted
        seen = dict.fromkeys([*self.KINDS, "writer accepted", "reader accepted",
                              "place refused"], 0)
        for trial in range(660):
            kind = self.KINDS[trial % len(self.KINDS)]
            head, columns = rng.choice(corpus)
            original = self.encoded_sections(head, columns)
            columns = {name: list(column) for name, column in columns.items()}
            self.mutate(rng, columns, kind, trial // len(self.KINDS))
            sections = self.encoded_sections(head, columns)
            registry = _decode(sections)
            # a writer reads no table: its other sections unchanged, it decodes the corpus
            if registry is not None and sections[2:] != original[2:]:
                # the writer's invariant: what it saves, a parse gives again
                # a mean is derived data, checked for its shape alone
                assert all(mean is None or 0 <= mean < math.inf for mean in registry._means)
                files = self.saved(registry, tmp_path / "saved")
                parsed = Store(tmp_path)._parse(files)
                assert parsed == registry, (kind, columns)
                assert self.saved(parsed, tmp_path / "saved") == files
                saved, fresh = _encode(registry), _encode(parsed)
                assert (saved[2], *saved[4:]) == (fresh[2], *fresh[4:]), (kind, columns)
                # and an append to an SLO triple files the same row in a new decode
                (csp_id, name), consumers = next(iter(parsed._slo_index.items()))
                appended = _decode(sections)
                for target in (appended, parsed):
                    target.submit_amv(AmvRecord(csp_id, next(iter(consumers)), name, 1.0))
                assert appended == parsed, (kind, columns)
            if _decode_records(sections) is not None:
                seen["place refused"] += self.check_places(sections, columns, registry)
            read = _decode_table(sections)
            if read is not None:
                # the reader's invariant: a row a pair, each as a parse's profile_of gives it
                assert len(read.rows) == len(columns["csp_ids"]), (kind, columns)
                for (csp_id, name), row in read.rows.items():
                    satisfied, agreed, low, high = row
                    assert type(csp_id) is str and csp_id and csp_id.strip() == csp_id
                    assert name in read.attributes
                    assert type(satisfied) is type(agreed) is int and 0 <= satisfied <= agreed
                    assert agreed > 0 and type(low) is type(high) is float
                    assert 0 < low <= high < math.inf, (kind, columns)
            seen[kind] += registry is None or read is None
            seen["writer accepted"] += registry is not None and sections[2:] != original[2:]
            seen["reader accepted"] += read is not None and sections[1] != original[1]
        assert min(seen.values()) > 0, seen

    def test_a_well_formed_but_wrong_mean_or_table_row_is_accepted(self, tmp_path):
        """The accepted threat model: derived data is checked for shape alone."""
        root = tmp_path / "store"
        self.saved(self.corpus_registry(False), root)
        _, head, *rest = snapshot_parts(root / Store.SNAPSHOT_FILE)
        columns = self.decoded_columns((head, *rest))
        assert columns["distinct"][0] == ("p1", "c1", "availability")
        assert columns["csp_ids"][0] == "p1" and columns["names"][0] == "availability"
        assert (columns["satisfied"][0], columns["agreed"][0]) == (1, 2)
        columns["means"][0] = 1.0
        columns["satisfied"][0] = 2
        sections = self.encoded_sections(head, columns)
        registry = _decode(sections)
        assert registry.amv_mean("p1", "c1", "availability") == 1.0
        table = _decode_table(sections)
        assert table.rows["p1", "availability"] == (2, 2, 90.0, 95.0)
        # no section holds the rows' order across triples, so which triple a
        # row files under is as the counts group the rows: p1's c1 on
        # availability gives its second row to its c2
        assert columns["distinct"][1] == ("p1", "c2", "availability")
        assert columns["counts"][:2] == [2, 1]
        columns["counts"][:2] = [1, 2]
        registry = _decode(self.encoded_sections(head, columns))
        assert registry.amv_samples("p1", "c1", "availability") == [91.0]
        assert registry.amv_samples("p1", "c2", "availability") == [0.0, 93.5]


class TestDeferredRows:
    """A writer's load decodes a triple's AMV rows at the first read of that triple.

    A command keeps the held rows of every triple it does not read as it read
    them, and a refused place leaves the log to the parse of the files: so no
    command's outcome depends on the row sections.
    """

    def build(self, root, work):
        """A store of SLOs, appended values and an imported service, whose
        ``SvcA/monitor`` triples have values but no SLO."""
        slos = write_rows(work / "slos.csv", SLO_COLUMNS, [
            ["p1", "c1", "av", "90"], ["p1", "c2", "av", "95"],
            ["p2", "c1", "la", "20"], ["p2", "c2", "la", "15"]])
        amvs = write_rows(work / "amvs.csv", AMV_COLUMNS, [
            ["p1", "c1", "av", "91", ""], ["p1", "c2", "av", "96", ""],
            ["p1", "c1", "av", "93.5", ""], ["p2", "c1", "la", "19", "5"],
            ["p2", "c1", "la", "21", "2"], ["p2", "c2", "la", "14", ""]])
        qws = work / "qws.csv"
        qws.write_text(qws_rows(2), encoding="utf-8")
        for argv in (["register-attributes", "--qws-defaults"], ["submit-slo", slos],
                     ["submit-amv", amvs], ["import-qws", str(qws)]):
            assert main(["--store", str(root)] + argv) == 0

    def commands(self, work):
        """Each command's argv, by name, on input files under ``work``."""
        qws = work / "more-qws.csv"
        qws.write_text(qws_rows(3), encoding="utf-8")  # SvcA's third row is new

        def rows(name, columns, *rows):
            return write_rows(work / f"{name}.csv", columns, rows)

        return {
            "register-attributes": ["register-attributes", "--qws-defaults", rows(
                "uptime", ATTRIBUTE_COLUMNS, ["uptime", "up", "%", "benefit"])],
            "submit-slo": ["submit-slo", rows("replace", SLO_COLUMNS, ["p1", "c1", "av", "92"])],
            # the first SLO of an imported triple: a table row needs a mean not computed
            "submit-slo-monitor": ["submit-slo", rows(
                "monitor", SLO_COLUMNS, ["SvcA", "SvcA/monitor", "av", "60"])],
            "submit-amv-append": ["submit-amv", rows(
                "append", AMV_COLUMNS, ["p1", "c2", "av", "97", ""])],
            # rows of two held triples, the later one's first: the save appends
            # them in place order, and a refused place files them again
            "submit-amv-two": ["submit-amv", rows(
                "two", AMV_COLUMNS, ["p2", "c2", "la", "13", ""], ["p1", "c2", "av", "97", ""])],
            "submit-amv-duplicate": ["submit-amv", rows(
                "duplicate", AMV_COLUMNS, ["p2", "c1", "la", "19", "5"])],
            "submit-amv-conflict": ["submit-amv", rows(
                "conflict", AMV_COLUMNS, ["p2", "c1", "la", "18", "5"])],
            "submit-amv-resend": ["submit-amv", rows(
                "resend", AMV_COLUMNS, ["p1", "c1", "av", "91", "1"],
                ["p2", "c1", "la", "19", "5"], ["p2", "c2", "la", "14", "1"],
                ["p1", "c1", "av", "93.5", "2"])],
            "import-qws": ["import-qws", str(qws)],
            "import-qws-new": ["import-qws", write_rows(
                work / "new-qws.csv", ["Service Name", *STANDARD_QWS_MAPPING],
                [["SvcB", *["1.5"] * len(STANDARD_QWS_MAPPING)]])],
        }

    # row mutations that a read of a place, or of the whole log, refuses: each on
    # the columns (distinct, means, counts, values, sequences), the values and
    # sequences grouped by place. Place 0 is p1's c1 on availability (rows 0-1
    # of the groups), 1 its c2 (row 2), 2 p2's c1 on latency (rows 3-4,
    # sequences 5 and 2), and 4 the first SvcA/monitor triple (rows 6-7)
    ROW_MUTATIONS = {
        "number-value-negative": lambda d, m, c, v, s: (d, m, c, [*v[:2], -v[2], *v[3:]], s),
        "number-value-nan": lambda d, m, c, v, s: (d, m, c, [*v[:3], math.nan, *v[4:]], s),
        "number-value-inf": lambda d, m, c, v, s: (d, m, c, [*v[:6], math.inf, *v[7:]], s),
        "pair": lambda d, m, c, v, s: (d, m, c, v, [*s[:4], s[3], *s[5:]]),
    }

    def mutated(self, path, stamps=None):
        """Each of ``ROW_MUTATIONS``, as a snapshot under a valid CRC and the stamps of
        the files (or ``stamps``), whose records part a load accepts."""
        (tag, held_stamps, _), head, table, slo_part, means_part, *log = snapshot_parts(path)
        stamps = held_stamps if stamps is None else stamps
        distinct, counts, values, sequences = log_columns(log)
        means = marshal.loads(means_part)
        assert counts[:5] == [2, 1, 2, 1, 2] and sequences[3:5] == [5, 2]
        parts = {kind: (marshal.dumps(m, 2), *log_sections(d, *rows))
                 for kind, (d, m, *rows) in (
                     (kind, mutation(distinct, means, counts, values, sequences))
                     for kind, mutation in self.ROW_MUTATIONS.items())}
        for kind, rows in parts.items():
            sections = (head, table, slo_part, *rows)
            assert _decode(sections) is None, kind
            assert _decode_records(sections)._rows is not None, kind
            body = marshal.dumps((tag, stamps, tuple(map(len, sections[:-1]))), 2)
            body += b"".join(sections)
            yield kind, zlib.crc32(body).to_bytes(4, "little") + body

    @staticmethod
    def run(root, argv, capsys):
        """(exit code, stdout, stderr, the CSV files' bytes) of a command on ``root``."""
        capsys.readouterr()
        code = main(["--store", str(root)] + argv)
        out, err = capsys.readouterr()
        return code, out, err, {name: (root / name).read_bytes() for name in Store.FILES}

    @staticmethod
    def loads_as_parsed(root):
        """Whether a load of ``root`` gives what a parse of its files gives."""
        parsed = Store(root)._parse({name: (root / name).read_bytes() for name in Store.FILES})
        registry = Store(root).load()
        return registry == parsed and contents(registry) == contents(parsed)

    def test_an_outcome_does_not_depend_on_the_row_sections(self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        built = tmp_path / "built"
        self.build(built, work)
        snapshot = built / Store.SNAPSHOT_FILE
        mutated = dict(self.mutated(snapshot))
        assert len(mutated) == len(self.ROW_MUTATIONS)
        refusals = []  # the stores whose held rows a read refused
        reparse = Store._reparse
        monkeypatch.setattr(Store, "_reparse", lambda store, *args: refusals.append(
            store.root) or reparse(store, *args))
        reparsed = set()  # the (command, kind) whose command read a refused held row
        for name, argv in self.commands(work).items():
            copies = {}
            for kind in ("healthy", "no snapshot", *mutated):
                root = tmp_path / name / kind
                shutil.copytree(built, root)
                if kind == "no snapshot":
                    (root / Store.SNAPSHOT_FILE).unlink()
                elif kind != "healthy":
                    (root / Store.SNAPSHOT_FILE).write_bytes(mutated[kind])
                copies[kind] = root
            outcomes = {}
            for kind, root in copies.items():
                refusals.clear()
                outcomes[kind] = self.run(root, argv, capsys)
                if refusals:
                    reparsed.add((name, kind))
            expected = outcomes["healthy"]
            assert expected[0] == (2 if name == "submit-amv-conflict" else 0), expected
            for kind, root in copies.items():
                assert outcomes[kind] == expected, (name, kind)
            # a save that read a refused place writes what a writer of a healthy
            # snapshot writes; one that read none keeps the held rows that a read
            # of the whole log refuses; a command that saves nothing leaves the
            # snapshot as it was
            healthy = (copies["healthy"] / Store.SNAPSHOT_FILE).read_bytes()
            saved = name not in ("submit-amv-duplicate", "submit-amv-conflict",
                                 "submit-amv-resend")
            for kind, blob in mutated.items():
                path = copies[kind] / Store.SNAPSHOT_FILE
                if (name, kind) in reparsed:
                    assert path.read_bytes() == (healthy if saved else blob), (name, kind)
                elif saved:
                    assert path.read_bytes() not in (blob, healthy), (name, kind)
                    _, *sections = snapshot_parts(path)
                    assert _decode_records(sections) is not None, (name, kind)
                    assert _decode(sections) is None, (name, kind)
                else:
                    assert path.read_bytes() == blob, (name, kind)
                assert self.loads_as_parsed(copies[kind]), (name, kind)
        # each mutation is refused by the read of a place that some command reads
        assert {kind for _, kind in reparsed} == set(mutated), reparsed
        capsys.readouterr()

    @pytest.mark.parametrize("name, triples", [
        ("register-attributes", []), ("submit-slo", []),
        ("submit-slo-monitor", [("SvcA", "SvcA/monitor", "availability")]),
        ("submit-amv-append", [("p1", "c2", "availability")]),
        ("submit-amv-resend", [("p1", "c1", "availability"), ("p2", "c1", "latency"),
                               ("p2", "c2", "latency")]),
        ("import-qws", [("SvcA", "SvcA/monitor", name) for name in (
            "availability", "throughput", "successability", "reliability", "latency",
            "response_time")]),
        ("import-qws-new", [])])
    def test_a_command_decodes_the_rows_of_the_triples_it_reads(
            self, tmp_path, monkeypatch, capsys, name, triples):
        work = tmp_path / "work"
        work.mkdir()
        root = tmp_path / "store"
        self.build(root, work)
        places = list(Store(root).load()._place)
        calls = []
        monkeypatch.setattr("fastcloud.registry._decode_place",
                            lambda rows, place: calls.append(places[place])
                            or _decode_place(rows, place))
        assert main(["--store", str(root)] + self.commands(work)[name]) == 0
        assert calls == triples
        # an assess reads the profile table alone
        request = write_rows(work / "request.csv", REQUEST_COLUMNS, [["av", 1, 100]])
        main(["--store", str(root), "assess", request])
        assert calls == triples
        capsys.readouterr()

    def test_a_long_sequence_leaves_the_rows_of_other_triples_held(
            self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        root = tmp_path / "store"
        self.build(root, work)
        # a millisecond timestamp as a sequence, past 32 bits
        stamped = write_rows(work / "stamped.csv", AMV_COLUMNS,
                             [["p2", "c2", "la", "13", "1760000000000"]])
        assert main(["--store", str(root), "submit-amv", stamped]) == 0
        places = list(Store(root).load()._place)
        calls, loaded = [], []
        monkeypatch.setattr("fastcloud.registry._decode_place",
                            lambda rows, place: calls.append(places[place])
                            or _decode_place(rows, place))
        load = Store.load
        monkeypatch.setattr(Store, "load", lambda store, **kwargs: loaded.append(
            load(store, **kwargs)) or loaded[-1])
        append = write_rows(work / "append.csv", AMV_COLUMNS, [["p1", "c2", "av", "97", ""]])
        assert main(["--store", str(root), "submit-amv", append]) == 0
        # the command decoded the rows of the triple it appended to alone, and
        # its save spliced the row in: every other triple's rows are still held
        appended = ("p1", "c2", "availability")
        assert calls == [appended]
        [registry] = loaded
        assert registry._rows is not None
        assert [key for key, samples in zip(places, registry._samples) if samples is None] == [
            key for key in places if key != appended]
        assert (root / Store.SNAPSHOT_FILE).read_bytes() == TestSnapshotLoad.parsed_snapshot(
            root, tmp_path)
        capsys.readouterr()

    @pytest.mark.parametrize("name, kind", [("submit-amv-append", "number-value-negative"),
                                            ("import-qws", "number-value-inf")])
    def test_a_file_edited_since_the_load_is_refused_when_a_held_place_is(
            self, tmp_path, monkeypatch, capsys, name, kind):
        work = tmp_path / "work"
        work.mkdir()
        root = tmp_path / "store"
        self.build(root, work)
        argv = self.commands(work)[name]
        path = root / Store.SNAPSHOT_FILE
        path.write_bytes(dict(self.mutated(path))[kind])
        slos = root / Store.SLOS_FILE
        edited = slos.read_bytes().replace(b"availability,90.0\n", b"availability,91.0\n")
        assert edited != slos.read_bytes()
        load = Store.load

        def load_then_edit(self, **kwargs):
            """A load, then a hand edit of slos.csv that bypasses the lock."""
            registry = load(self, **kwargs)
            slos.write_bytes(edited)
            return registry

        monkeypatch.setattr(Store, "load", load_then_edit)
        code, _, err, files = self.run(root, argv, capsys)
        # the place that the command reads is refused, and the files it would
        # be parsed from are not those of the load: the command saves nothing
        assert code == 2
        assert f"{slos}: changed since the store was loaded (its CRC-32 or length differs)" in err
        assert files[Store.SLOS_FILE] == edited
        monkeypatch.undo()
        assert self.run(root, argv, capsys)[0] == 0  # the next command parses the edit

    @pytest.mark.parametrize("kind", list(ROW_MUTATIONS))
    def test_a_save_into_another_root_leaves_a_parse_s_snapshot_when_a_held_place_is_refused(
            self, tmp_path, capsys, kind):
        work = tmp_path / "work"
        work.mkdir()
        root = tmp_path / "store"
        self.build(root, work)
        path = root / Store.SNAPSHOT_FILE
        path.write_bytes(dict(self.mutated(path))[kind])
        registry = Store(root).load()
        assert registry._rows is not None
        # the save writes amvs.csv whole, which reads the whole log: the
        # refused place sends the log to the parse before the snapshot is encoded
        other = tmp_path / "other"
        Store(other).save(registry)
        assert (other / Store.SNAPSHOT_FILE).read_bytes() == TestSnapshotLoad.parsed_snapshot(
            other, tmp_path)
        capsys.readouterr()

    def test_a_save_whose_encoding_refuses_a_held_place_appends_by_the_parse_s_places(
            self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        root = tmp_path / "store"
        self.build(root, work)
        path = root / Store.SNAPSHOT_FILE
        (tag, stamps, _), head, table, slo_part, means_part, *log = snapshot_parts(path)
        distinct, counts, values, sequences = log_columns(log)
        groups = grouped_rows({"counts": counts, "values": values, "sequences": sequences})
        # the places in reverse, which no parse gives, and p1's c2 row, place
        # 1's, negative, which its read refuses, with its mean not computed
        groups[1] = [(-value, sequence) for value, sequence in groups[1]]
        means = marshal.loads(means_part)
        means[1] = None
        parts = (head, table, slo_part, marshal.dumps(means[::-1], 2),
                 *log_sections(distinct[::-1], counts[::-1],
                               *([row[at] for group in groups[::-1] for row in group]
                                 for at in (0, 1))))
        body = marshal.dumps((tag, stamps, tuple(map(len, parts[:-1]))), 2) + b"".join(parts)
        path.write_bytes(zlib.crc32(body).to_bytes(4, "little") + body)
        before = (root / Store.AMVS_FILE).read_text()
        store = Store(root)
        registry = store.load()
        registry.submit_amv(AmvRecord("p1", "c1", "av", 50.0))
        assert registry._rows is not None  # the appended place was accepted
        # the profile table reads p1's c2 mean, which refuses its place: the
        # places become the parse's, and the save appends the one row past them
        store.save(registry)
        assert registry._rows is None
        assert (root / Store.AMVS_FILE).read_text() == before + "p1,c1,availability,50.0,3\n"
        assert self.loads_as_parsed(root) and Store(root).load() == registry

    def test_a_store_that_a_parse_refuses_is_refused_by_an_import_that_reads_it(
            self, tmp_path, capsys):
        work = tmp_path / "work"
        work.mkdir()
        root = tmp_path / "store"
        self.build(root, work)
        path = root / Store.SNAPSHOT_FILE
        # a hand-appended row that a parse refuses, under a snapshot crafted to
        # match the files, with a place of SvcA's that a read refuses
        with open(root / Store.AMVS_FILE, "a", encoding="utf-8") as fh:
            fh.write("p1,c1,av,-1,9\n")
        stamps = tuple((zlib.crc32(data), len(data)) for data in (
            (root / name).read_bytes() for name in Store.FILES))
        path.write_bytes(dict(self.mutated(path, stamps))["number-value-inf"])
        refusal = (f"{root / Store.AMVS_FILE}: line 20: monitored value must be finite and "
                   "nonnegative, got -1.0")
        # an import that reads no held place saves, as a command that reads no row does
        assert self.run(root, self.commands(work)["import-qws-new"], capsys)[0] == 0
        with pytest.raises(StoreRefusedError) as refused:
            import_qws(Store(root).load(), io.StringIO(qws_rows(3)))
        assert str(refused.value) == refusal
        files = {name: (root / name).read_bytes() for name in Store.FILES}
        code, out, err, after = self.run(root, self.commands(work)["import-qws"], capsys)
        assert (code, out, after) == (2, "", files)
        assert refusal in err and "conflict" not in err

    @pytest.mark.parametrize("command, kind", [("import-qws", "number-value-inf"),
                                               ("submit-amv", "number-value-negative")])
    def test_a_store_that_a_parse_refuses_is_reported_as_the_store_s_refusal(
            self, tmp_path, capsys, command, kind):
        work = tmp_path / "work"
        work.mkdir()
        root = tmp_path / "store"
        self.build(root, work)
        # a hand-appended row that a parse refuses, under a snapshot crafted to
        # match the files, with a place that the command reads refused: SvcA's
        # first triple, or p1's c2 on availability, after an append to p2's c2
        with open(root / Store.AMVS_FILE, "a", encoding="utf-8") as fh:
            fh.write("p1,c1,av,-1,9\n")
        stamps = tuple((zlib.crc32(data), len(data)) for data in (
            (root / name).read_bytes() for name in Store.FILES))
        path = root / Store.SNAPSHOT_FILE
        path.write_bytes(dict(self.mutated(path, stamps))[kind])
        argv = self.commands(work)["import-qws"] if command == "import-qws" else [
            "submit-amv", write_rows(work / "two.csv", AMV_COLUMNS, [
                ["p2", "c2", "la", "13", ""], ["p1", "c2", "av", "97", ""]])]
        files = {name: (root / name).read_bytes() for name in Store.FILES}
        # the refusal names the store's file and line alone, fails the command,
        # not an input row, and nothing is saved
        assert self.run(root, argv, capsys) == (
            2, "", f"error: {root / Store.AMVS_FILE}: line 20: monitored value must be finite "
                   "and nonnegative, got -1.0\n", files)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestIngestBatches:
    """The benchmark's write path, op by op: each save leaves what a parse gives."""

    def test_each_op_leaves_the_log_and_table_that_a_parse_gives(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))  # for the workloads' own imports
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workload = workloads.IngestBatches()
        state, _ = workload.setup(workload.generate(3, 60), tmp_path)
        root = state["store"]
        for i in range(len(state["argvs"])):
            ok, out = workload.run_op(state, i)
            assert ok and workload.check_op(state, i, out) == [], (i, out)
            parsed = Store(root)._parse({name: (root / name).read_bytes() for name in Store.FILES})
            # the table that the save built is that of a parse
            assert snapshot_parts(root / Store.SNAPSHOT_FILE)[2] == _table(parsed), i
            loaded = Store(root).load()
            assert loaded._rows is not None
            assert loaded == parsed and list(loaded.amvs) == list(parsed.amvs), i
        assert workload.check_end(state) == []
