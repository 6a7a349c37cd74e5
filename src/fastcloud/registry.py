"""Data model and file-backed store for QoS attributes, SLO and AMV submissions.

The store keeps three human-diffable CSV files (attributes.csv, slos.csv,
amvs.csv) under one directory and rewrites them atomically (write to a temp
file, then rename). Loading applies the same record checks as submission.
Saves are serialized through a lock that holds only within one process.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import os
import re
import tempfile
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, TextIO


class Polarity(enum.Enum):
    """Whether a higher attribute value is better (benefit) or worse (cost)."""

    BENEFIT = "benefit"
    COST = "cost"


class UnknownAttributeError(ValueError):
    """A record references an attribute that is not registered."""


class MissingSloError(ValueError):
    """A monitored value was submitted for a triple with no agreed objective."""


class DuplicateSubmissionError(ValueError):
    """A monitored value identical to one already held at the same sequence."""


@dataclass(frozen=True, slots=True)
class QosAttribute:
    name: str
    abbreviation: str
    unit: str
    polarity: Polarity


@dataclass(frozen=True, slots=True)
class SloRecord:
    """Agreed service-level objective for one (provider, consumer, attribute)."""

    csp_id: str
    csc_id: str
    attribute: str
    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"SLO value must be finite and positive, got {self.value}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.csp_id, self.csc_id, self.attribute)


@dataclass(frozen=True, slots=True)
class AmvRecord:
    """One monitored observation; sequence orders submissions within a triple."""

    csp_id: str
    csc_id: str
    attribute: str
    value: float
    sequence: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"monitored value must be finite and nonnegative, got {self.value}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.csp_id, self.csc_id, self.attribute)


# The six attributes of the standard web-service QoS dataset layout.
STANDARD_ATTRIBUTES = (
    QosAttribute("availability", "av", "%", Polarity.BENEFIT),
    QosAttribute("throughput", "th", "invokes/s", Polarity.BENEFIT),
    QosAttribute("successability", "su", "%", Polarity.BENEFIT),
    QosAttribute("reliability", "re", "%", Polarity.BENEFIT),
    QosAttribute("latency", "la", "ms", Polarity.COST),
    QosAttribute("response_time", "res", "ms", Polarity.COST),
)

# Dataset column -> attribute abbreviation, for the same standard layout.
STANDARD_QWS_MAPPING = {
    "Availability": "av",
    "Throughput": "th",
    "Successability": "su",
    "Reliability": "re",
    "Latency": "la",
    "Response Time": "res",
}


@dataclass
class Registry:
    """In-memory registry of attributes, SLO records and AMV records.

    Attributes are keyed by name and by abbreviation (both must be unique).
    SLO records replace on resubmission of the same (csp, csc, attribute)
    triple; AMV records append. Records enter only through ``submit_*``,
    ``import_qws`` and ``Store.load``, which keeps the per-triple AMV index
    whole; appending to ``amvs`` directly bypasses it.
    """

    attributes: dict[str, QosAttribute] = field(default_factory=dict)
    slos: dict[tuple[str, str, str], SloRecord] = field(default_factory=dict)
    amvs: list[AmvRecord] = field(default_factory=list)
    # (csp, csc, attribute) -> {sequence: value}, updated only by _append_amv
    _samples: dict[tuple[str, str, str], dict[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    # -- attribute handling ------------------------------------------------

    def register_attribute(self, attr: QosAttribute) -> None:
        existing = self.attributes.get(attr.name)
        if existing is not None and existing.polarity is not attr.polarity:
            raise ValueError(f"attribute {attr.name!r} already registered with different polarity")
        for other in self.attributes.values():
            if other.name != attr.name and other.abbreviation == attr.abbreviation:
                raise ValueError(f"abbreviation {attr.abbreviation!r} already used by {other.name!r}")
        self.attributes[attr.name] = attr

    def resolve_attribute(self, name: str) -> QosAttribute:
        """Look up an attribute by name or abbreviation."""
        attr = self.attributes.get(name)
        if attr is None:
            for candidate in self.attributes.values():
                if candidate.abbreviation == name:
                    return candidate
            raise UnknownAttributeError(f"unknown attribute {name!r}")
        return attr

    # -- derived entity sets ----------------------------------------------

    @property
    def providers(self) -> set[str]:
        return {r.csp_id for r in self.slos.values()}

    # -- submissions --------------------------------------------------------

    def submit_slo(self, record: SloRecord) -> bool:
        """Store an agreed objective; returns True if it replaced a prior one."""
        attr = self.resolve_attribute(record.attribute)
        if record.attribute != attr.name:
            record = replace(record, attribute=attr.name)
        replaced = record.key in self.slos
        self.slos[record.key] = record
        return replaced

    def submit_amv(self, record: AmvRecord) -> AmvRecord:
        """Append a monitored value; requires a matching SLO for the triple.

        A record without a sequence gets the next per-triple index. A record
        carrying an explicit sequence is the file/import path: an identical
        record already present is a no-op signalled by DuplicateSubmissionError,
        and the same key with a different value is a conflict (ValueError).
        """
        attr = self.resolve_attribute(record.attribute)
        if record.attribute != attr.name:
            record = replace(record, attribute=attr.name)
        if record.key not in self.slos:
            raise MissingSloError(
                f"no agreed SLO for ({record.csp_id}, {record.csc_id}, {record.attribute})"
            )
        return self._append_amv(record)

    def _append_amv(self, record: AmvRecord) -> AmvRecord:
        samples = self._samples.setdefault(record.key, {})
        if record.sequence is None:
            record = replace(record, sequence=1 + max(samples, default=0))
        elif record.sequence in samples:
            existing = samples[record.sequence]
            if existing == record.value:
                raise DuplicateSubmissionError(
                    f"duplicate submission {record.key} sequence {record.sequence}"
                )
            raise ValueError(
                f"sequence {record.sequence} for {record.key} already holds "
                f"value {existing}, refusing to overwrite with {record.value}"
            )
        samples[record.sequence] = record.value
        self.amvs.append(record)
        return record

    def amv_samples(self, csp_id: str, csc_id: str, attribute: str) -> list[float]:
        """Monitored values for one triple, in submission order."""
        samples = self._samples.get((csp_id, csc_id, attribute), {})
        return [samples[sequence] for sequence in sorted(samples)]

    def slos_for(self, csp_id: str, attribute: str) -> list[SloRecord]:
        return [r for r in self.slos.values()
                if r.csp_id == csp_id and r.attribute == attribute]


@dataclass(frozen=True)
class ImportSummary:
    rows_accepted: int
    rows_rejected: int
    records_added: int
    records_skipped: int
    # same sequence, different value: reported in rejections, not stored
    records_conflicting: int = 0
    rejections: tuple[str, ...] = ()

    def __str__(self) -> str:
        return (f"{self.rows_accepted} rows accepted, {self.rows_rejected} rejected; "
                f"{self.records_added} records added, {self.records_skipped} duplicates skipped"
                + (f", {self.records_conflicting} conflicting"
                   if self.records_conflicting else ""))


def _slugify(text: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", text.strip()).strip("-")
    return slug or "service"


def import_qws(
    registry: Registry,
    source: TextIO,
    mapping: dict[str, str] | None = None,
    service_column: str = "Service Name",
) -> ImportSummary:
    """Import a delimiter-separated QoS dataset as monitored values.

    Each accepted row yields one AmvRecord per mapped column. The dataset
    carries no provider/consumer identities, so the provider id is derived
    from the service-identity column and a single synthetic consumer id is
    used per service; the per-attribute sequence is the row's 1-based index
    within its service group. Re-importing the same file regenerates the
    same records, which are skipped as duplicates; a record whose sequence
    already holds a different value is reported as a conflict, counted in
    ``records_conflicting`` and not stored.

    Rows with missing, non-numeric, non-finite or negative values in a mapped
    column are counted and reported, not fatal. These are bulk third-party
    observations, so no agreed SLO is required (unlike ``Registry.submit_amv``).
    """
    mapping = dict(mapping or STANDARD_QWS_MAPPING)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ValueError("import source is empty: no header row")
    header = [h.strip() for h in reader.fieldnames]
    missing = [col for col in mapping if col not in header]
    if missing:
        raise ValueError(f"mapped columns missing from header: {', '.join(sorted(missing))}")
    if service_column not in header:
        raise ValueError(f"service identity column {service_column!r} missing from header")
    # resolve targets up front so a bad mapping fails before any mutation
    targets = {col: registry.resolve_attribute(attr).name for col, attr in mapping.items()}

    accepted = rejected = added = skipped = conflicting = 0
    rejections: list[str] = []
    group_counts: dict[str, int] = {}
    for line_no, row in enumerate(reader, start=2):
        row = {(k.strip() if k else k): v for k, v in row.items()}
        service = (row.get(service_column) or "").strip()
        if not service:
            rejected += 1
            rejections.append(f"line {line_no}: missing service identity")
            continue
        try:
            values = {targets[col]: float(row[col]) for col in mapping}
        except (TypeError, ValueError):
            rejected += 1
            rejections.append(f"line {line_no}: non-numeric or missing value in mapped column")
            continue
        csp_id = _slugify(service)
        sequence = group_counts.get(csp_id, 0) + 1
        try:
            records = [AmvRecord(csp_id, f"{csp_id}/monitor", attr_name, value, sequence)
                       for attr_name, value in values.items()]
        except ValueError as exc:
            rejected += 1
            rejections.append(f"line {line_no}: {exc}")
            continue
        group_counts[csp_id] = sequence
        accepted += 1
        for record in records:
            try:
                registry._append_amv(record)
                added += 1
            except DuplicateSubmissionError:
                skipped += 1
            except ValueError as exc:
                conflicting += 1
                rejections.append(f"line {line_no}: {exc}")
    return ImportSummary(accepted, rejected, added, skipped, conflicting, tuple(rejections))


# What a malformed or refused store row raises: a record check, a missing
# column (KeyError) or a short row (None reaching float() or int()).
_ROW_ERRORS = (ValueError, TypeError, KeyError)


def _row_error(path: Path, line: int, exc: Exception) -> ValueError:
    """The refusal of one store row, naming its file and line.

    The record checks' own error types are kept, so callers can still tell a
    duplicate or an unknown attribute apart; anything else becomes a
    ValueError.
    """
    where = f"{path}: line {line}"
    if type(exc) in (ValueError, UnknownAttributeError, DuplicateSubmissionError):
        return type(exc)(f"{where}: {exc}")
    return ValueError(f"{where}: malformed row ({type(exc).__name__}: {exc})")


class Store:
    """Directory-backed persistence for a registry.

    One CSV file per record kind; every save rewrites the affected file via
    a temp file and atomic rename, so a crash never leaves a half-written
    store. Loading applies the record checks of submission: non-finite or
    out-of-range values, unregistered attributes and a repeated (triple,
    sequence) in amvs.csv are refused with the record's error, prefixed with
    the file and its line; attribute abbreviations in slos.csv resolve to
    names. Saves are serialized through a ``threading.Lock``, which holds
    only within one process; concurrent writer processes can still lose
    records.
    """

    ATTRIBUTES_FILE = "attributes.csv"
    SLOS_FILE = "slos.csv"
    AMVS_FILE = "amvs.csv"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()

    def load(self) -> Registry:
        registry = Registry()
        path = self.root / self.ATTRIBUTES_FILE
        if path.exists():
            with path.open(newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                try:
                    for row in reader:
                        registry.register_attribute(QosAttribute(
                            row["name"], row["abbreviation"], row["unit"],
                            Polarity(row["polarity"]),
                        ))
                except _ROW_ERRORS as exc:
                    raise _row_error(path, reader.line_num, exc) from exc
        path = self.root / self.SLOS_FILE
        if path.exists():
            with path.open(newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                try:
                    for row in reader:
                        registry.submit_slo(SloRecord(row["csp_id"], row["csc_id"],
                                                      row["attribute"], float(row["value"])))
                except _ROW_ERRORS as exc:
                    raise _row_error(path, reader.line_num, exc) from exc
        path = self.root / self.AMVS_FILE
        if path.exists():
            with path.open(newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                try:
                    for row in reader:
                        registry._append_amv(AmvRecord(
                            row["csp_id"], row["csc_id"], row["attribute"],
                            float(row["value"]), int(row["sequence"]),
                        ))
                except _ROW_ERRORS as exc:
                    raise _row_error(path, reader.line_num, exc) from exc
        return registry

    def save(self, registry: Registry) -> None:
        with self._lock:
            self.root.mkdir(parents=True, exist_ok=True)
            self._write(self.ATTRIBUTES_FILE,
                        ["name", "abbreviation", "unit", "polarity"],
                        ([a.name, a.abbreviation, a.unit, a.polarity.value]
                         for a in registry.attributes.values()))
            self._write(self.SLOS_FILE,
                        ["csp_id", "csc_id", "attribute", "value"],
                        ([r.csp_id, r.csc_id, r.attribute, repr(r.value)]
                         for r in registry.slos.values()))
            self._write(self.AMVS_FILE,
                        ["csp_id", "csc_id", "attribute", "value", "sequence"],
                        ([r.csp_id, r.csc_id, r.attribute, repr(r.value), r.sequence]
                         for r in registry.amvs))

    def _write(self, name: str, header: list[str], rows: Iterable[list]) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fd, tmp_path = tempfile.mkstemp(dir=self.root, prefix=name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(buf.getvalue())
            os.replace(tmp_path, self.root / name)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
