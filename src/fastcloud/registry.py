"""Data model and file-backed store for QoS attributes, SLO and AMV submissions.

The store keeps three human-diffable CSV files (attributes.csv, slos.csv,
amvs.csv) under one directory. The store, the submit commands and the
request file share one record format, defined here: a header of the kind's
columns, then one record per row, read by ``read_rows`` and parsed by
``parse_*``. Loading applies the same record checks as submission.

amvs.csv is an append-only log: a save appends the monitored values added
since the load, while attributes.csv and slos.csv are replaced atomically,
and only when they changed. Writers serialize on an ``flock`` of the
store's ``.lock`` file across processes (see ``Store``).
"""

from __future__ import annotations

import contextlib
import csv
import enum
import fcntl
import io
import math
import os
import re
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .intervals import IntervalNumber


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


def _check_ids(csp_id: str, csc_id: str) -> None:
    """Refuse an empty provider or consumer id, or one with surrounding whitespace."""
    if not (csp_id and csc_id and csp_id.strip() == csp_id and csc_id.strip() == csc_id):
        raise ValueError("provider and consumer ids must be non-empty without surrounding "
                         f"whitespace, got {csp_id!r} and {csc_id!r}")


def _monitored_value(value: float) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"monitored value must be finite and nonnegative, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class SloRecord:
    """Agreed service-level objective for one (provider, consumer, attribute)."""

    csp_id: str
    csc_id: str
    attribute: str
    value: float

    def __post_init__(self) -> None:
        _check_ids(self.csp_id, self.csc_id)
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
        _check_ids(self.csp_id, self.csc_id)
        _monitored_value(self.value)

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

# The record file format, shared by the store, the submit commands and the
# request file: a header naming exactly these columns, then one row each.
ATTRIBUTE_COLUMNS = ("name", "abbreviation", "unit", "polarity")
SLO_COLUMNS = ("csp_id", "csc_id", "attribute", "value")
AMV_COLUMNS = ("csp_id", "csc_id", "attribute", "value", "sequence")
REQUEST_COLUMNS = ("attribute", "min", "max")


def read_rows(source: Iterable[str], columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """The rows of a record file whose header is ``columns``.

    Yields (physical line, stripped fields) for each row, skipping blank
    lines. An empty source or any other header is refused before the first
    row; the field count is left to the row parsers. A row the csv module
    cannot read, such as one with a field over ``csv.field_size_limit()``,
    is refused as a ValueError that names its line.
    """
    reader = csv.reader(source)
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("file is empty")
        if [h.strip() for h in header] != list(columns):
            raise ValueError(f"header must be {','.join(columns)!r}, got {','.join(header)!r}")
        for fields in reader:
            if fields:
                yield reader.line_num, list(map(str.strip, fields))
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc


def _fields(fields: list[str], columns: tuple[str, ...]) -> list[str]:
    if len(fields) != len(columns):
        raise ValueError(f"malformed row: {len(fields)} fields, expected {len(columns)}")
    return fields


def parse_attribute(fields: list[str]) -> QosAttribute:
    name, abbreviation, unit, polarity = _fields(fields, ATTRIBUTE_COLUMNS)
    return QosAttribute(name, abbreviation, unit, Polarity(polarity.lower()))


def parse_slo(fields: list[str]) -> SloRecord:
    csp_id, csc_id, attribute, value = _fields(fields, SLO_COLUMNS)
    return SloRecord(csp_id, csc_id, attribute, float(value))


def parse_amv(fields: list[str]) -> AmvRecord:
    """An AMV row; an empty sequence leaves the numbering to the registry."""
    csp_id, csc_id, attribute, value, sequence = _fields(fields, AMV_COLUMNS)
    return AmvRecord(csp_id, csc_id, attribute, float(value), int(sequence) if sequence else None)


def parse_request(fields: list[str]) -> tuple[str, IntervalNumber]:
    """A request row: an attribute name or abbreviation and its span."""
    attribute, lower, upper = _fields(fields, REQUEST_COLUMNS)
    span = IntervalNumber(float(lower), float(upper))
    if not attribute:
        raise ValueError("missing attribute name")
    return attribute, span


class AmvView:
    """Read-only view of a registry's monitored values, in submission order.

    Its length is the row count, two views are equal when their rows are,
    and an ``AmvRecord`` is built for a row only when the view is iterated.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list[tuple[str, str, str, float, int]]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[AmvRecord]:
        return (AmvRecord(*row) for row in self._rows)

    def __eq__(self, other: object) -> bool:
        return self._rows == other._rows if isinstance(other, AmvView) else NotImplemented


@dataclass
class Registry:
    """In-memory registry of attributes, SLO records and AMV records.

    Attributes are keyed by name and by abbreviation (both must be unique).
    SLO records replace on resubmission of the same (csp, csc, attribute)
    triple; AMV records append. Every path resolves a record's attribute
    and files it under the registered name. Monitored values are held once,
    as rows ``(csp, csc, attribute, value, sequence)`` in submission order,
    indexed per triple; ``amvs`` is a read-only view of those rows. Records
    enter only through ``submit_*``, ``import_qws`` and ``Store.load``. Only
    ``submit_amv`` requires an agreed SLO: imported monitored values, and
    the stored ones that load restores, have none.
    """

    attributes: dict[str, QosAttribute] = field(default_factory=dict)
    slos: dict[tuple[str, str, str], SloRecord] = field(default_factory=dict)
    # the monitored values in submission order; amvs.csv holds the same rows
    _rows: list[tuple[str, str, str, float, int]] = field(
        default_factory=list, init=False, repr=False)
    # (csp, csc, attribute) -> {sequence: value}, updated only by _append_amv
    _samples: dict[tuple[str, str, str], dict[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def amvs(self) -> AmvView:
        return AmvView(self._rows)

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
        record = self._named(record)
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
        record = self._named(record)
        if record.key not in self.slos:
            raise MissingSloError(
                f"no agreed SLO for ({record.csp_id}, {record.csc_id}, {record.attribute})"
            )
        sequence = self._append_amv(*record.key, record.value, record.sequence)
        return record if record.sequence == sequence else replace(record, sequence=sequence)

    def _named(self, record: SloRecord | AmvRecord) -> SloRecord | AmvRecord:
        """The record with its attribute spelled by the registered name."""
        name = self.resolve_attribute(record.attribute).name
        return record if record.attribute == name else replace(record, attribute=name)

    def _append_amv(self, csp_id: str, csc_id: str, attribute: str, value: float,
                    sequence: int | None) -> int:
        """Append a checked monitored value under a registered attribute name.

        A value without a sequence gets the next per-triple index, which is
        returned. A sequence already holding the same value raises
        DuplicateSubmissionError; one holding another value is a conflict
        (ValueError). Either way nothing is stored.
        """
        key = (csp_id, csc_id, attribute)
        samples = self._samples.setdefault(key, {})
        if sequence is None:
            sequence = 1 + max(samples, default=0)
        elif sequence in samples:
            existing = samples[sequence]
            if existing == value:
                raise DuplicateSubmissionError(f"duplicate submission {key} sequence {sequence}")
            raise ValueError(
                f"sequence {sequence} for {key} already holds "
                f"value {existing}, refusing to overwrite with {value}"
            )
        samples[sequence] = value
        self._rows.append((csp_id, csc_id, attribute, value, sequence))
        return sequence

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
    try:
        fieldnames = reader.fieldnames
    except csv.Error as exc:
        raise ValueError(f"line {reader.reader.line_num}: {exc}") from exc
    if fieldnames is None:
        raise ValueError("import source is empty: no header row")
    header = [h.strip() for h in fieldnames]
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
    try:
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
                    registry._append_amv(*record.key, record.value, record.sequence)
                    added += 1
                except DuplicateSubmissionError:
                    skipped += 1
                except ValueError as exc:
                    conflicting += 1
                    rejections.append(f"line {line_no}: {exc}")
    except csv.Error as exc:
        raise ValueError(f"line {reader.reader.line_num}: {exc}") from exc
    return ImportSummary(accepted, rejected, added, skipped, conflicting, tuple(rejections))


def _amv_restorer(registry: Registry):
    """Add one amvs.csv row to ``registry`` without building an AmvRecord.

    The row gets the checks of ``parse_amv`` and ``submit_amv``, except that
    it needs no SLO, since imported values have none, and must carry the
    sequence it was filed under. Each attribute spelling is resolved once.
    """
    names: dict[str, str] = {}

    def restore(fields: list[str]) -> None:
        csp_id, csc_id, attribute, value, sequence = _fields(fields, AMV_COLUMNS)
        _check_ids(csp_id, csc_id)
        value = _monitored_value(float(value))
        if not sequence:
            raise ValueError("stored monitored value has no sequence")
        name = names.get(attribute)
        if name is None:
            name = names[attribute] = registry.resolve_attribute(attribute).name
        registry._append_amv(csp_id, csc_id, name, value, int(sequence))

    return restore


def _row_error(path: Path, line: int, exc: ValueError) -> ValueError:
    """The refusal of one store row, naming its file and line.

    A duplicate or an unknown attribute keeps its error type, so callers can
    still tell them apart. A row the csv module could not read is already
    named by ``read_rows``.
    """
    kind = type(exc) if type(exc) in (UnknownAttributeError, DuplicateSubmissionError) else ValueError
    where = path if isinstance(exc.__cause__, csv.Error) else f"{path}: line {line}"
    return kind(f"{where}: {exc}")


def _csv_text(rows: Iterable[Iterable]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class Store:
    """Directory-backed persistence for a registry.

    One CSV file per record kind, in the format the submit commands take.
    amvs.csv is an append-only log: saving the registry that this store
    loaded appends the rows added since, in one write, then flushes and
    fsyncs the file. attributes.csv and slos.csv are rewritten only when
    their records changed or the file is missing, and amvs.csv only when
    it is missing or the registry was not loaded here: temp file, fsync,
    rename, then fsync of the directory. Every save leaves all three files.
    A crash thus leaves each file as it was or as saved, except that an
    append cut short can leave a last amvs.csv row without its line end.
    Load refuses such a row, since a cut value or sequence (``...,9`` of
    ``...,91``) can still read as valid.

    Loading applies the record checks of submission, prefixing each refusal
    with the file and its line: an empty file or another header, a row with
    a wrong field count, an empty or padded id, a non-finite or out-of-range
    value, an unregistered attribute, an empty sequence or a repeated
    (triple, sequence) in amvs.csv. Attribute abbreviations resolve to
    names.

    ``locked`` takes an ``flock`` on ``<root>/.lock``, which holds across
    processes: a writer holds it exclusively from its load through its
    save, so that no process loses another's rows or numbers a triple
    twice, and a reader holds it shared while it loads.
    """

    ATTRIBUTES_FILE = "attributes.csv"
    SLOS_FILE = "slos.csv"
    AMVS_FILE = "amvs.csv"
    LOCK_FILE = ".lock"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        # the registry last loaded or saved here, with what each file holds
        # of it: its attributes, its SLOs and its AMV row count (None: no file)
        self._synced: tuple[Registry, dict[str, object]] | None = None

    @contextlib.contextmanager
    def locked(self, shared: bool = False) -> Iterator[None]:
        """Hold the store's lock, exclusive unless ``shared``."""
        if shared and not self.root.is_dir():
            yield  # nothing to read, and a reader creates no store
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / self.LOCK_FILE, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def load(self) -> Registry:
        registry = Registry()
        missing = []
        for name, columns, add in (
            (self.ATTRIBUTES_FILE, ATTRIBUTE_COLUMNS,
             lambda fields: registry.register_attribute(parse_attribute(fields))),
            (self.SLOS_FILE, SLO_COLUMNS, lambda fields: registry.submit_slo(parse_slo(fields))),
            (self.AMVS_FILE, AMV_COLUMNS, _amv_restorer(registry)),
        ):
            path = self.root / name
            try:
                fh = path.open(newline="", encoding="utf-8")
            except FileNotFoundError:
                missing.append(name)
                continue
            with fh:
                line = 1
                try:
                    for line, fields in read_rows(fh, columns):
                        add(fields)
                    if name == self.AMVS_FILE:
                        end = os.fstat(fh.fileno()).st_size - 1
                        if os.pread(fh.fileno(), 1, end) != b"\n":
                            raise ValueError("row has no line end: its append was cut short")
                except ValueError as exc:
                    raise _row_error(path, line, exc) from exc
        self._remember(registry, missing)
        return registry

    def save(self, registry: Registry) -> None:
        """Write ``registry``: only what changed if it was loaded or saved here."""
        synced = self._synced[1] if self._synced and self._synced[0] is registry else {}
        self.root.mkdir(parents=True, exist_ok=True)
        if synced.get(self.ATTRIBUTES_FILE) != registry.attributes:
            self._replace(self.ATTRIBUTES_FILE, ATTRIBUTE_COLUMNS,
                          ([a.name, a.abbreviation, a.unit, a.polarity.value]
                           for a in registry.attributes.values()))
        if synced.get(self.SLOS_FILE) != registry.slos:
            self._replace(self.SLOS_FILE, SLO_COLUMNS,
                          ([r.csp_id, r.csc_id, r.attribute, repr(r.value)]
                           for r in registry.slos.values()))
        logged = synced.get(self.AMVS_FILE)
        if logged is None:
            self._replace(self.AMVS_FILE, AMV_COLUMNS, registry._rows)
        elif logged < len(registry._rows):
            with open(self.root / self.AMVS_FILE, "a", newline="", encoding="utf-8") as fh:
                fh.write(_csv_text(registry._rows[logged:]))
                fh.flush()
                os.fsync(fh.fileno())
        self._remember(registry)

    def _remember(self, registry: Registry, missing: Iterable[str] = ()) -> None:
        files = {self.ATTRIBUTES_FILE: dict(registry.attributes),
                 self.SLOS_FILE: dict(registry.slos),
                 self.AMVS_FILE: len(registry._rows)}
        files.update(dict.fromkeys(missing))
        self._synced = (registry, files)

    def _replace(self, name: str, header: tuple[str, ...], rows: Iterable[Iterable]) -> None:
        fd, tmp_path = tempfile.mkstemp(dir=self.root, prefix=name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(_csv_text([header, *rows]))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.root / name)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        dir_fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
