"""Quick tests of the benchmark itself, on inputs far smaller than its runs."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import workloads

SMALL = {
    "assess-deep": {"providers": 3, "consumers": 2, "samples": 2},
    "ingest-batches": {"providers": 2, "consumers": 2, "base_samples": 3, "append_rows": 3,
                       "duplicate_rows": 4, "slo_rows": 5, "import_services": 2,
                       "import_rows": 2},
    "rank-wide": {"providers": 12},
}


def run_all_ops(name, tmp_path, n_ops):
    workload = workloads.WORKLOADS[name]
    inputs = workload.generate(7, n_ops, **SMALL[name])
    state, cpu = workload.setup(inputs, tmp_path / "work")
    assert cpu > 0
    outputs = []
    for i in range(n_ops):
        ok, out = workload.run_op(state, i)
        assert ok
        assert workload.check_op(state, i, out) == []
        outputs.append(out)
    assert workload.check_end(state) == []
    return workload, state, outputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = workload.generate(3, 8, **SMALL[name])
    assert first == workload.generate(3, 8, **SMALL[name])
    assert first != workload.generate(4, 8, **SMALL[name])


def test_assess_check_rejects_swapped_ranking(tmp_path):
    workload, state, outputs = run_all_ops("assess-deep", tmp_path, 2)
    doc = json.loads(outputs[0])
    doc["ranking"][0]["csp_id"], doc["ranking"][1]["csp_id"] = (
        doc["ranking"][1]["csp_id"], doc["ranking"][0]["csp_id"])
    assert workload.check_op(state, 0, json.dumps(doc))
    doc = json.loads(outputs[0])
    doc["candidates"].pop()
    assert workload.check_op(state, 0, json.dumps(doc))


def test_rank_check_rejects_swapped_ranking(tmp_path):
    workload, state, outputs = run_all_ops("rank-wide", tmp_path, 2)
    context, ranking = outputs[0]
    swapped = (ranking[1], ranking[0]) + ranking[2:]
    assert workload.check_op(state, 0, (context, swapped))


def test_ingest_checks_reject_dropped_record_and_wrong_count(tmp_path):
    workload, state, outputs = run_all_ops("ingest-batches", tmp_path, 8)
    assert workload.check_op(state, 0, outputs[0].replace("3 appended", "2 appended"))
    amvs = state["store"] / "amvs.csv"
    with open(amvs, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(amvs, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows[:-1])
    assert workload.check_end(state)


def test_traced_counts_repeat_and_wrappers_are_removed(tmp_path):
    workload = workloads.WORKLOADS["rank-wide"]
    state, _ = workload.setup(workload.generate(1, 1, providers=6), tmp_path)
    original = workloads.trust.evaluate
    counts = []
    for _ in range(2):
        with layertrace.Tracer() as tracer:
            workload.run_op(state, 0)
        counts.append(tracer.metrics(1))
    assert workloads.trust.evaluate is original
    assert counts[0]["intervals.constructed"] == counts[1]["intervals.constructed"] > 0
    assert counts[0]["store.load.records"] == 0


def test_refuses_to_run_without_program_sources(tmp_path):
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--workload", "rank-wide"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
