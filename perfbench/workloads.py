"""The benchmark's workloads: input generators, set-up, ops and output checks.

Every workload has the same shape:

* ``generate(seed, n_ops)`` returns plain data only; the same seed gives the
  same inputs and no randomness is left for later phases;
* ``setup(inputs, workdir)`` prepares what the ops need and returns the state
  with the CPU seconds spent inside program calls;
* ``run_op(state, i)`` is the timed op and returns ``(ok, output)``;
* ``check_op`` and ``check_end`` compare outputs with the generator's own
  records and the independent reference in ``oracle`` and return a list of
  errors.

Program entry points are looked up on their modules at call time
(``cli.main``, ``trust.evaluate``), so the traced run can wrap them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fastcloud import cli, trust
from fastcloud.intervals import IntervalNumber
from fastcloud.registry import Polarity, QosAttribute

import oracle

# The standard six attributes: name, polarity, range SLO values are drawn from.
ATTRIBUTES = (
    ("availability", "benefit", (85.0, 99.5)),
    ("throughput", "benefit", (5.0, 50.0)),
    ("successability", "benefit", (80.0, 99.0)),
    ("reliability", "benefit", (60.0, 95.0)),
    ("latency", "cost", (20.0, 200.0)),
    ("response_time", "cost", (50.0, 500.0)),
)
POLARITY = {name: pol for name, pol, _ in ATTRIBUTES}
RANGE = {name: rng for name, _, rng in ATTRIBUTES}
QWS_COLUMNS = {
    "availability": "Availability", "throughput": "Throughput",
    "successability": "Successability", "reliability": "Reliability",
    "latency": "Latency", "response_time": "Response Time",
}
SLO_HEADER = ["csp_id", "csc_id", "attribute", "value"]
AMV_HEADER = ["csp_id", "csc_id", "attribute", "value", "sequence"]

MIN_TIMED_OPS = 100


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``fastcloud`` command; returns exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _value(rng: random.Random, attribute: str) -> float:
    return round(rng.uniform(*RANGE[attribute]), 3)


def _monitored(rng: random.Random, attribute: str, slo: float, passes: bool) -> float:
    """A monitored value clearly on the passing or failing side of ``slo``."""
    up = passes == (POLARITY[attribute] == "benefit")
    u = rng.uniform(0.02, 0.3)
    return round(slo * (1 + u if up else 1 - u), 3)


def build_store(store: Path, workdir: Path, slo_batches, amv_batches) -> float:
    """Build a store through the CLI's own submit path, one command per batch.

    Returns the CPU seconds spent inside the program's commands.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    commands = [(["register-attributes", "--qws-defaults"], "6 attributes registered")]
    for j, rows in enumerate(slo_batches):
        path = workdir / f"setup-slo-{j:03d}.csv"
        write_csv(path, SLO_HEADER, rows)
        commands.append((["submit-slo", str(path)], f"{len(rows)} accepted, 0 replaced"))
    for j, rows in enumerate(amv_batches):
        path = workdir / f"setup-amv-{j:03d}.csv"
        # an empty sequence lets the program number each triple's values
        write_csv(path, AMV_HEADER, [row + ("",) for row in rows])
        commands.append((["submit-amv", str(path)], f"{len(rows)} appended"))
    cpu = 0.0
    for argv, expected in commands:
        started = time.process_time()
        code, out = run_cli(["--store", str(store)] + argv)
        cpu += time.process_time() - started
        if code != 0 or out.strip() != expected:
            raise RuntimeError(f"set-up command {argv[0]} gave {code}: {out.strip()!r}")
    return cpu


class Workload:
    name = ""
    ops_per_second = 1.0  # about today's rate, so that --seconds sets the run length
    round_length = 1  # ops repeat in whole rounds of this many

    def timed_ops(self, seconds: int) -> int:
        wanted = max(MIN_TIMED_OPS, math.ceil(seconds * self.ops_per_second))
        return math.ceil(wanted / self.round_length) * self.round_length

    def check_end(self, state) -> list[str]:
        return []


class AssessDeep(Workload):
    """In-process ``fastcloud assess --format structured`` on an on-disk store."""

    name = "assess-deep"
    ops_per_second = 7.5

    def generate(self, seed, n_ops, providers=12, consumers=3, samples=4):
        rng = random.Random(f"{self.name}/{seed}")
        slo_batches, amv_batches = [], []
        # one extra provider whose throughput objectives lie above every
        # requested span, so that matching always excludes exactly one
        for p in range(providers + 1):
            csp = f"csp{p + 1:02d}"
            slos = []
            monitored = [[] for _ in range(consumers)]
            for attribute, _, _ in ATTRIBUTES:
                passes = [rng.random() < 0.7 for _ in range(consumers)]
                if not any(passes):
                    passes[rng.randrange(consumers)] = True
                for c in range(consumers):
                    if p == providers and attribute == "throughput":
                        slo = round(rng.uniform(5000.0, 9000.0), 3)
                    else:
                        slo = _value(rng, attribute)
                    key = (csp, f"{csp}-u{c + 1}", attribute)
                    slos.append(key + (slo,))
                    monitored[c] += [key + (_monitored(rng, attribute, slo, passes[c]),)
                                     for _ in range(samples)]
            slo_batches.append(slos)
            amv_batches += monitored
        # each consumer submits its own monitored values, in a shuffled order
        rng.shuffle(amv_batches)
        # A lower bound under range_min / consumers and an upper bound above
        # range_max keep every rate-scaled interval of a regular provider
        # inside the match, whatever the rate.
        requests = [
            [(attribute, round(rng.uniform(0.1, 0.9) * lo / consumers, 3),
              round(rng.uniform(1.0, 2.0) * hi, 3))
             for attribute, _, (lo, hi) in ATTRIBUTES]
            for _ in range(n_ops)
        ]
        return {"slo_batches": slo_batches, "amv_batches": amv_batches, "requests": requests}

    def setup(self, inputs, workdir: Path):
        store = workdir / "store"
        cpu = build_store(store, workdir, inputs["slo_batches"], inputs["amv_batches"])
        requests = []
        for i, request in enumerate(inputs["requests"]):
            path = workdir / f"request-{i:04d}.csv"
            write_csv(path, ["attribute", "min", "max"], request)
            requests.append(str(path))
        state = {
            "store": str(store),
            "requests": requests,
            "inputs": inputs,
            "oracle": oracle.AssessOracle(
                [r for batch in inputs["slo_batches"] for r in batch],
                [r for batch in inputs["amv_batches"] for r in batch],
                POLARITY,
            ),
        }
        return state, cpu

    def run_op(self, state, i):
        code, out = run_cli(["--store", state["store"], "assess", state["requests"][i],
                             "--format", "structured"])
        return code == 0, out

    def check_op(self, state, i, out) -> list[str]:
        doc = json.loads(out)
        candidates, scores = state["oracle"].assess(state["inputs"]["requests"][i])
        if doc["candidates"] != candidates:
            return [f"candidates {doc['candidates']} != {candidates}"]
        ranking = [(r["csp_id"], r["ordering_score"]) for r in doc["ranking"]]
        return oracle.ranking_errors(ranking, scores)


class IngestBatches(Workload):
    """A fixed interleaved mix of in-process write commands on one store."""

    name = "ingest-batches"
    ops_per_second = 10.0
    ROUND = ("append", "duplicate", "slo", "import")
    round_length = len(ROUND)

    def generate(self, seed, n_ops, providers=10, consumers=5, base_samples=8,
                 append_rows=30, duplicate_rows=120, slo_rows=300, import_services=2,
                 import_rows=3):
        rng = random.Random(f"{self.name}/{seed}")
        slo_keys = [(f"csp{p + 1:02d}", f"csp{p + 1:02d}-u{c + 1}", attribute)
                    for p in range(providers) for c in range(consumers)
                    for attribute, _, _ in ATTRIBUTES]
        final_slo = {key: _value(rng, key[2]) for key in slo_keys}
        base_slos = [key + (value,) for key, value in final_slo.items()]
        sequences: Counter = Counter()
        stored = []  # expected amvs.csv rows, in submission order

        def append(key, value):
            sequences[key] += 1
            stored.append(key + (value, sequences[key]))
            return stored[-1]

        base_amvs = []
        for key in slo_keys:
            for _ in range(base_samples):
                base_amvs.append(key + (_value(rng, key[2]),))
        rng.shuffle(base_amvs)
        # rows with an agreed SLO, which submit-amv may re-send
        resendable = [append(row[:3], row[3]) for row in base_amvs]

        ops = []
        imports = 0
        for i in range(n_ops):
            kind = self.ROUND[i % len(self.ROUND)]
            if kind == "append":
                rows = []
                for _ in range(append_rows):
                    key = rng.choice(slo_keys)
                    value = _value(rng, key[2])
                    resendable.append(append(key, value))
                    rows.append(key + (value, ""))
                ops.append(("submit-amv", AMV_HEADER, rows, f"{append_rows} appended"))
            elif kind == "duplicate":
                # evenly spaced picks: finding a duplicate scans the store up
                # to it, so the batch's cost must not depend on the seed
                step = len(resendable) / duplicate_rows
                start = rng.uniform(0, step)
                rows = [resendable[int(start + k * step)] for k in range(duplicate_rows)]
                rng.shuffle(rows)
                ops.append(("submit-amv", AMV_HEADER, rows,
                            f"0 appended, {duplicate_rows} duplicates skipped"))
            elif kind == "slo":
                rows = []
                for key in rng.sample(slo_keys, slo_rows):
                    final_slo[key] = _value(rng, key[2])
                    rows.append(key + (final_slo[key],))
                ops.append(("submit-slo", SLO_HEADER, rows, f"0 accepted, {slo_rows} replaced"))
            else:
                imports += 1
                rows = []
                for _ in range(import_rows):
                    for s in range(import_services):
                        service = f"svc{imports:04d}-{s + 1}"
                        values = {a: _value(rng, a) for a, _, _ in ATTRIBUTES}
                        for attribute, value in values.items():
                            append((service, f"{service}/monitor", attribute), value)
                        rows.append([service] + [values[a] for a, _, _ in ATTRIBUTES])
                total = import_rows * import_services
                ops.append((
                    "import-qws",
                    ["Service Name"] + [QWS_COLUMNS[a] for a, _, _ in ATTRIBUTES],
                    rows,
                    f"{total} rows accepted, 0 rejected; "
                    f"{total * len(ATTRIBUTES)} records added, 0 duplicates skipped",
                ))
        return {"slos": base_slos, "amvs": base_amvs, "ops": ops,
                "stored": stored, "final_slo": final_slo}

    def setup(self, inputs, workdir: Path):
        store = workdir / "store"
        cpu = build_store(store, workdir, [inputs["slos"]], [inputs["amvs"]])
        argvs = []
        for i, (command, header, rows, _) in enumerate(inputs["ops"]):
            path = workdir / f"op-{i:04d}.csv"
            write_csv(path, header, rows)
            argvs.append(["--store", str(store), command, str(path)])
        return {"store": store, "argvs": argvs, "inputs": inputs}, cpu

    def run_op(self, state, i):
        code, out = run_cli(state["argvs"][i])
        return code == 0, out

    def check_op(self, state, i, out) -> list[str]:
        expected = state["inputs"]["ops"][i][3]
        got = out.strip().splitlines()[-1] if out.strip() else ""
        return [] if got == expected else [f"printed {got!r}, expected {expected!r}"]

    def check_end(self, state) -> list[str]:
        errors = []
        inputs = state["inputs"]
        rows = [(r["csp_id"], r["csc_id"], r["attribute"], float(r["value"]), int(r["sequence"]))
                for r in read_csv(state["store"] / "amvs.csv")]
        # every generated record is unique, so this also catches a repeated one
        stored, expected = Counter(rows), Counter(inputs["stored"])
        if stored != expected:
            errors.append(f"{sum((expected - stored).values())} generated records missing, "
                          f"{sum((stored - expected).values())} unexpected or repeated")
        per_triple: dict = {}
        for row in rows:
            per_triple.setdefault(row[:3], []).append(row[3:])
        if any([seq for _, seq in got] != list(range(1, len(got) + 1))
               for got in per_triple.values()):
            errors.append("per-triple sequences do not run 1..n")
        expected_order: dict = {}
        for row in inputs["stored"]:
            expected_order.setdefault(row[:3], []).append(row[3:])
        if per_triple != expected_order:
            errors.append("stored values are not in submission order")
        slos = read_csv(state["store"] / "slos.csv")
        got_slo = {(r["csp_id"], r["csc_id"], r["attribute"]): float(r["value"]) for r in slos}
        if len(slos) != len(got_slo) or got_slo != inputs["final_slo"]:
            errors.append("stored SLOs differ from the last submitted values")
        return errors


class RankWide(Workload):
    """``trust.evaluate`` + ``trust.rank`` on pre-built wide decision matrices."""

    name = "rank-wide"
    ops_per_second = 7.5
    # mixed benefit and cost columns
    BENEFIT = (True, False, True, True, False, True, False, True)

    def generate(self, seed, n_ops, providers=200):
        rng = random.Random(f"{self.name}/{seed}")
        matrices = []
        for _ in range(n_ops):
            ids = [f"p{i:03d}" for i in range(providers)]
            rng.shuffle(ids)
            cells = []
            for _ in ids:
                row = []
                for _ in self.BENEFIT:
                    lower = round(rng.uniform(1.0, 100.0), 3)
                    width = 0.0 if rng.random() < 0.2 else round(rng.uniform(0.0, 0.6) * lower, 3)
                    row.append((lower, round(lower + width, 3)))
                cells.append(row)
            matrices.append((ids, cells))
        return {"matrices": matrices}

    def setup(self, inputs, workdir: Path):
        started = time.process_time()
        attributes = tuple(
            QosAttribute(f"a{k + 1}", f"a{k + 1}", "u",
                         Polarity.BENEFIT if benefit else Polarity.COST)
            for k, benefit in enumerate(self.BENEFIT)
        )
        matrices = [
            trust.DecisionMatrix(
                tuple(ids), attributes,
                tuple(tuple(IntervalNumber(lo, hi) for lo, hi in row) for row in cells),
            )
            for ids, cells in inputs["matrices"]
        ]
        cpu = time.process_time() - started
        return {"matrices": matrices, "inputs": inputs}, cpu

    def run_op(self, state, i):
        context = trust.evaluate(state["matrices"][i])
        return True, (context, trust.rank(context))

    def check_op(self, state, i, out) -> list[str]:
        context, ranking = out
        ids, cells = state["inputs"]["matrices"][i]
        errors = []
        weights = context.weights.weights
        if min(weights) < 0 or abs(math.fsum(weights) - 1.0) > oracle.TOLERANCE:
            errors.append("weights are negative or do not sum to 1")
        p = context.possibility
        n = len(ids)
        if any(abs(p[a][b] + p[b][a] - 1.0) > 1e-12 for a in range(n) for b in range(a, n)):
            errors.append("p(i,e) + p(e,i) != 1")
        if abs(math.fsum(context.ordering) - 1.0) > oracle.TOLERANCE:
            errors.append("ordering does not sum to 1")
        pairs = [(r.csp_id, r.ordering_score) for r in ranking]
        if pairs != sorted(pairs, key=lambda r: (-r[1], r[0])):
            errors.append("ranking is not sorted by score, then id")
        return errors + oracle.ranking_errors(pairs, oracle.score(ids, self.BENEFIT, cells))


WORKLOADS = {w.name: w for w in (AssessDeep(), IngestBatches(), RankWide())}
