"""The case study on the bundled QWS sample, run through the CLI (README "Case study").

The sample holds monitored values alone. The rule that gives it SLOs is
this repository's own construction: each service's five rows become five
consumers, and consumer ``<service>/c<j>`` monitored row j and agreed, on
each attribute, the mean of the service's other four rows, summed from
the left, one float addition at a time, as the committed SLO file was
written. The service names are their own ``import-qws`` slugs.
"""

import csv
import importlib.util
import io
import json
import re
import shutil
from functools import reduce
from importlib import resources
from operator import add
from pathlib import Path

import pytest

from fastcloud.cli import main
from fastcloud.registry import (
    AMV_COLUMNS,
    SLO_COLUMNS,
    STANDARD_ATTRIBUTES,
    STANDARD_QWS_MAPPING,
    ProfileTable,
    Store,
)

DATA = resources.files("fastcloud") / "data"
SLO_FILE, AMV_FILE = DATA / "qws_sample_slos.csv", DATA / "qws_sample_amvs.csv"
CHAIN = ("StockQuoteHub > CurrencyConverter > FlightStatusFeed > RouteFinder > SmsGatewayLite"
         " > GeoCoderPlus > IbanValidator > MailCheckPro > WeatherPoint > TaxCalcService")


def case_files():
    """The SLO and AMV files' text that the rule builds from the sample."""
    services = {}
    with (DATA / "qws_sample.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            services.setdefault(row["Service Name"], []).append(row)
    slos, amvs = io.StringIO(), io.StringIO()
    slo_writer, amv_writer = (csv.writer(out, lineterminator="\n") for out in (slos, amvs))
    slo_writer.writerow(SLO_COLUMNS)
    amv_writer.writerow(AMV_COLUMNS)
    for service, rows in services.items():
        for j, row in enumerate(rows, start=1):
            consumer, others = f"{service}/c{j}", rows[:j - 1] + rows[j:]
            for column, attribute in STANDARD_QWS_MAPPING.items():
                agreed = [float(other[column]) for other in others]
                # not the built-in sum, which compensates its additions from Python 3.12 on
                mean = reduce(add, agreed) / len(agreed)
                slo_writer.writerow([service, consumer, attribute, repr(mean)])
                amv_writer.writerow([service, consumer, attribute, repr(float(row[column])), 1])
    return slos.getvalue(), amvs.getvalue()


def perfbench_oracle():
    """The benchmark's independent reference, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_committed_files_are_the_rule_applied_to_the_sample():
    slos, amvs = case_files()
    assert SLO_FILE.read_bytes() == slos.encode("utf-8")
    assert AMV_FILE.read_bytes() == amvs.encode("utf-8")
    assert slos.count("\n") == amvs.count("\n") == 1 + 10 * 5 * 6


def case_store(tmp_path, capsys, *slo_rows):
    """The case store's ``--store`` arguments, built through the CLI from the committed
    files and then ``slo_rows``, and a request for all six attributes."""
    store = ["--store", str(tmp_path / "store")]
    commands = [["register-attributes", "--qws-defaults"], ["submit-slo", str(SLO_FILE)],
                ["submit-amv", str(AMV_FILE)]]
    if slo_rows:
        extra = tmp_path / "extra-slos.csv"
        extra.write_text("\n".join(map(",".join, [SLO_COLUMNS, *slo_rows])) + "\n",
                         encoding="utf-8")
        commands.append(["submit-slo", str(extra)])
    for argv in commands:
        assert main([*store, *argv]) == 0
    request = tmp_path / "request.csv"
    request.write_text("attribute,min,max\n" + "".join(
        f"{attr.abbreviation},0,1e6\n" for attr in STANDARD_ATTRIBUTES), encoding="utf-8")
    capsys.readouterr()
    return store, request


def test_the_case_study_ranks_the_sample_through_the_cli(tmp_path, capsys):
    store, request = case_store(tmp_path, capsys)
    assert main([*store, "assess", str(request), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chain"] == CHAIN
    # the interval part of the model at work: every rate and possibility
    # degree off its ends, and every trust level of positive width
    rates = [profile["consistency_rate"] for profile in doc["profiles"]]
    assert len(rates) == 60 and all(0 < rate < 1 for rate in rates)
    widths = [upper - lower for lower, upper in (r["trust_level"] for r in doc["ranking"])]
    assert round(min(widths), 4) == 0.0233
    degrees = [degree for row in doc["possibility_matrix"] for degree in row]
    assert len(degrees) == 100 and sum(0 < degree < 1 for degree in degrees) == 78
    # and the benchmark's straight-line reference agrees
    names = {attr.abbreviation: attr.name for attr in STANDARD_ATTRIBUTES}

    def records(path):
        with path.open(newline="", encoding="utf-8") as fh:
            return [(row["csp_id"], row["csc_id"], names[row["attribute"]], float(row["value"]))
                    for row in csv.DictReader(fh)]

    oracle = perfbench_oracle()
    reference = oracle.AssessOracle(records(SLO_FILE), records(AMV_FILE),
                                    {attr.name: attr.polarity.value for attr in STANDARD_ATTRIBUTES})
    candidates, scores = reference.assess([(attr.name, 0.0, 1e6) for attr in STANDARD_ATTRIBUTES])
    assert sorted(doc["candidates"]) == candidates and len(candidates) == 10
    assert oracle.ranking_errors([(r["csp_id"], r["ordering_score"]) for r in doc["ranking"]],
                                 scores) == []
    assert main([*store, "assess", str(request)]) == 0
    assert capsys.readouterr().out.startswith(f"ranking: {CHAIN}\n")


@pytest.mark.parametrize("row", [["TaxCalcService", "nobody", "av", "1000"],
                                 ["TaxCalcService", "nobody", "la", "5"],
                                 ["TaxCalcService", "nobody", "th", "60"]],
                         ids=["availability", "latency", "throughput"])
def test_an_unmonitored_agreement_moves_no_provider(tmp_path, capsys, row):
    """One SLO row with no monitored value, the best on its attribute, agreed by a
    consumer that monitored nothing: it is not satisfied and does not widen the
    provider's span, so the case's ranking stays as it was."""
    store, request = case_store(tmp_path, capsys, row)
    assert main([*store, "assess", str(request)]) == 0
    assert capsys.readouterr().out.startswith(f"ranking: {CHAIN}\n")


@pytest.mark.parametrize("damage", ["snapshot missing", "slos.csv edited"])
def test_a_reader_without_a_usable_snapshot_gives_a_fresh_parse_s_table(
        tmp_path, capsys, monkeypatch, damage):
    """A reader whose ``.snapshot`` is missing, or stale after a hand edit of slos.csv,
    parses the files: it gives the table of a fresh parse of them, and ``assess`` gives
    the bytes that a store re-snapshotted from the same files gives."""
    store, request = case_store(tmp_path, capsys)
    root = Path(store[1])
    before = repr(sorted(Store(root).load(log=False).rows.items()))
    if damage == "snapshot missing":
        (root / Store.SNAPSHOT_FILE).unlink()
    else:  # the first SLO agreed at 1.0: met by any monitored availability
        lines = (root / Store.SLOS_FILE).read_text(encoding="utf-8").split("\n")
        lines[1] = ",".join([*lines[1].split(",")[:3], "1.0"])
        (root / Store.SLOS_FILE).write_text("\n".join(lines), encoding="utf-8")
    # the fresh parse: the same CSV files in a new store, loaded by a writer,
    # which then saves them with a snapshot
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for name in Store.FILES:
        shutil.copy(root / name, fresh / name)
    parsed = Store(fresh).load().profile_table()
    assert main(["--store", str(fresh), "register-attributes", "--qws-defaults"]) == 0
    parses = []
    parse = Store._parse
    monkeypatch.setattr(Store, "_parse", lambda *args: parses.append(args) or parse(*args))
    table = Store(root).load(log=False)
    assert isinstance(table, ProfileTable) and len(parses) == 1
    assert table == parsed and table.attributes == parsed.attributes
    rows = repr(sorted(table.rows.items()))
    assert rows == repr(sorted(parsed.rows.items()))
    assert (rows == before) == (damage == "snapshot missing")
    outputs = []
    for where, parsed_now in ((root, True), (fresh, False)):
        capsys.readouterr()
        parses.clear()
        assert main(["--store", str(where), "assess", "--format", "structured", str(request)]) == 0
        assert bool(parses) == parsed_now
        outputs.append(re.sub(r'"elapsed_seconds": [^,}]+', "", capsys.readouterr().out))
    assert outputs[0] == outputs[1]
