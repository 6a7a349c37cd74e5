"""Data model and file-backed store for QoS attributes, SLO and AMV submissions.

The store keeps three human-diffable CSV files (attributes.csv, slos.csv,
amvs.csv) under one directory. The store, the submit commands and the
request file share one record format, defined here: a header of the kind's
columns, then one record per row, read by ``read_rows`` and parsed by
``parse_*``. Loading applies the same record checks as submission, since
each file is read by that row loop, which names a refused row. A registry
holds its monitored values as a log of three columns.

amvs.csv is an append-only log: a save appends the monitored values added
since the load, while attributes.csv and slos.csv are replaced atomically,
and only when they changed. Writers serialize on an ``flock`` of the
store's ``.lock`` file across processes (see ``Store``). Each save also
rewrites ``.snapshot``, a derived file that is safe to delete: a load that
finds the CSV files as that save left them restores the registry from it
in place of parsing them.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import fcntl
import gc
import io
import marshal
import math
import os
import re
import sys
import tempfile
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from operator import add, setitem
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

# The record file format, shared by the store, the submit commands and the
# request file: a header naming exactly these columns, then one row each.
ATTRIBUTE_COLUMNS = ("name", "abbreviation", "unit", "polarity")
SLO_COLUMNS = ("csp_id", "csc_id", "attribute", "value")
AMV_COLUMNS = ("csp_id", "csc_id", "attribute", "value", "sequence")
REQUEST_COLUMNS = ("attribute", "min", "max")


def record_text(data: bytes) -> TextIO:
    """The text of a record file's bytes, decoded whole.

    A byte that is not UTF-8 is refused as a ValueError naming its line. The
    text is read through a wrapper: a ``StringIO`` holds four bytes a character.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: {exc}") from exc
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _rows(source: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(physical line, stripped fields) of the header, blank or not, and each non-blank row.

    A row the csv module cannot read, such as one with a field over
    ``csv.field_size_limit()``, is refused as a ValueError that names its line.
    """
    reader = csv.reader(source)
    try:
        for fields in reader:
            if fields or reader.line_num == 1:
                yield reader.line_num, list(map(str.strip, fields))
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc


class refused_at(contextlib.AbstractContextManager):
    """Put the file and line of an input refusal at the head of its text.

    ``refused_at(path, line)(exc)`` is the refusal ``<path>: line N: <exc>``,
    leaving out a part not given; as a context manager, it raises that
    refusal of a ValueError raised inside. A duplicate or an unknown
    attribute keeps its error type, so callers can still tell them apart.
    """

    def __init__(self, path: object = None, line: int | None = None):
        self.path, self.line = path, line

    def __call__(self, exc: ValueError) -> ValueError:
        kind = type(exc) if type(exc) in (UnknownAttributeError, DuplicateSubmissionError) else ValueError
        where = "" if self.path is None else f"{self.path}: "
        if self.line is not None:
            where += f"line {self.line}: "
        return kind(f"{where}{exc}")

    def __exit__(self, kind: type | None, exc: BaseException | None, traceback: object) -> None:
        if isinstance(exc, ValueError):
            raise self(exc) from exc


def read_rows(source: Iterable[str], columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """The rows of a record file whose header is ``columns``.

    Yields ``_rows`` after the header, which is checked before the first
    row: a missing one, or one that does not name exactly ``columns``, is
    refused. The field count is left to the row parsers.
    """
    rows = _rows(source)
    header = next(rows, (1, None))[1]
    if header is None:
        raise ValueError("file is empty")
    if header != list(columns):
        raise ValueError(f"line 1: header must be {','.join(columns)!r}, got {','.join(header)!r}")
    yield from rows


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

    Its length is the row count, two views are equal when their columns are,
    and an ``AmvRecord`` is built for a row only when the view is iterated.
    """

    __slots__ = ("_columns",)

    def __init__(self, triples: list[tuple[str, str, str]], values: list[float],
                 sequences: list[int]):
        self._columns = (triples, values, sequences)

    def __len__(self) -> int:
        return len(self._columns[1])

    def __iter__(self) -> Iterator[AmvRecord]:
        return (AmvRecord(*triple, value, sequence)
                for triple, value, sequence in zip(*self._columns))

    def __eq__(self, other: object) -> bool:
        return self._columns == other._columns if isinstance(other, AmvView) else NotImplemented


@dataclass
class Registry:
    """In-memory registry of attributes, SLO records and AMV records.

    Attributes are keyed by name and by abbreviation, and each spelling
    names one attribute. SLO records replace on resubmission of the same
    (csp, csc, attribute) triple; AMV records append. Every path resolves a
    record's attribute and files it under the registered name. Monitored
    values are held once, as a log of three columns in submission order
    (each row's ``(csp, csc, attribute)`` triple, its value and its
    sequence), and indexed per triple; ``amvs`` is a read-only view of that
    log. The rows that ``Store.load`` restores from its snapshot share one
    tuple per triple.
    SLO records are also indexed per (provider, attribute).
    Records enter only through ``submit_*``, ``import_qws`` and
    ``Store.load``. Only ``submit_amv`` requires an agreed SLO: imported
    monitored values, and the stored ones that load restores, have none.
    """

    attributes: dict[str, QosAttribute] = field(default_factory=dict)
    slos: dict[tuple[str, str, str], SloRecord] = field(default_factory=dict)
    # the monitored values in submission order, a column each; amvs.csv
    # holds the same rows
    _triples: list[tuple[str, str, str]] = field(default_factory=list, init=False, repr=False)
    _values: list[float] = field(default_factory=list, init=False, repr=False)
    _sequences: list[int] = field(default_factory=list, init=False, repr=False)
    # (csp, csc, attribute) -> {sequence: value}: filled by _append_amv, and
    # by Store._restore_snapshot on load
    _samples: dict[tuple[str, str, str], dict[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # (csp, attribute) -> {csc: SloRecord}: filled by _file_slo, and by
    # _file_slo_columns on a load from the snapshot
    _slo_index: dict[tuple[str, str], dict[str, SloRecord]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def amvs(self) -> AmvView:
        return AmvView(self._triples, self._values, self._sequences)

    def _amv_rows(self, start: int = 0) -> list[tuple[str, str, str, float, int]]:
        """The log from row ``start`` on, as rows ``(csp, csc, attribute, value, sequence)``."""
        return list(map(add, self._triples[start:],
                        zip(self._values[start:], self._sequences[start:])))

    # the whole log as rows, read-only
    _rows = property(_amv_rows)

    # -- attribute handling ------------------------------------------------

    def register_attribute(self, attr: QosAttribute) -> bool:
        """Register ``attr``; returns False if the same definition was registered already."""
        existing = self.attributes.get(attr.name)
        if existing is not None and existing.polarity is not attr.polarity:
            raise ValueError(f"attribute {attr.name!r} already registered with different polarity")
        if existing is not None and existing != attr:
            stored = ",".join([existing.name, existing.abbreviation, existing.unit,
                               existing.polarity.value])
            raise ValueError(f"attribute {attr.name!r} already registered as {stored!r}")
        for other in self.attributes.values():
            clash = {attr.name, attr.abbreviation} & {other.name, other.abbreviation}
            if other.name != attr.name and clash:
                raise ValueError(f"{min(clash)!r} already names attribute {other.name!r}")
        self.attributes[attr.name] = attr
        return existing is None

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
        return {csp_id for csp_id, _ in self._slo_index}

    # -- submissions --------------------------------------------------------

    def submit_slo(self, record: SloRecord) -> bool:
        """Store an agreed objective; returns True if it replaced a prior one."""
        return self._file_slo(self._named(record))

    def _file_slo(self, record: SloRecord) -> bool:
        """File an SLO already under its registered attribute name."""
        key = record.key
        replaced = key in self.slos
        self.slos[key] = record
        # a resubmission keeps its place, so slos_for keeps the order of slos
        self._slo_index.setdefault((record.csp_id, record.attribute), {})[record.csc_id] = record
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
        self._triples.append(key)
        self._values.append(value)
        self._sequences.append(sequence)
        return sequence

    def amv_samples(self, csp_id: str, csc_id: str, attribute: str) -> list[float]:
        """Monitored values for one triple, in submission order."""
        samples = self._samples.get((csp_id, csc_id, attribute), {})
        return [samples[sequence] for sequence in sorted(samples)]

    def amv_mean(self, csp_id: str, csc_id: str, attribute: str) -> float | None:
        """The mean of one triple's monitored values, or None if it has none.

        The values are summed in sequence order, then divided by their
        count, so the mean is ``average_amv(amv_samples(...))`` to the bit.
        """
        samples = self._samples.get((csp_id, csc_id, attribute))
        if not samples:
            return None
        return sum(map(samples.__getitem__, sorted(samples))) / len(samples)

    def slos_for(self, csp_id: str, attribute: str) -> list[SloRecord]:
        """The provider's objectives on a registered attribute, in submission order."""
        return list(self._slo_index.get((csp_id, attribute), {}).values())


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

    The provider id is a slug of the service name, and two names can share
    one (``Svc A`` and ``Svc-A`` both give ``Svc-A``). Within one import,
    the rows of a second name whose slug the rows of another name already
    took are rejected, naming both. The registry keeps ids, not names, so a
    later import cannot detect such a collision: it files the rows under
    the provider that holds the id.

    Rows with missing, non-numeric, non-finite or negative values in a mapped
    column are counted and reported, not fatal. These are bulk third-party
    observations, so no agreed SLO is required (unlike ``Registry.submit_amv``).
    """
    mapping = dict(mapping or STANDARD_QWS_MAPPING)
    rows = _rows(source)
    _, header = next(rows, (1, None))
    if header is None:
        raise ValueError("file is empty")
    missing = [col for col in mapping if col not in header]
    if missing:
        raise ValueError(f"line 1: mapped columns missing from header: {', '.join(sorted(missing))}")
    if service_column not in header:
        raise ValueError(f"line 1: service identity column {service_column!r} missing from header")
    # a name given twice reads its last column; a short row reads "" past its end
    place = {name: i for i, name in enumerate(header)}
    # resolve targets up front so a bad mapping fails before any mutation
    targets = {place[col]: registry.resolve_attribute(attr).name for col, attr in mapping.items()}

    accepted = added = skipped = conflicting = 0
    rejections: list[str] = []  # a line per rejected row or conflicting record
    group_counts: dict[str, int] = {}
    owners: dict[str, str] = {}  # provider id -> the service name whose rows took it
    for line_no, fields in rows:
        fields += [""] * (len(header) - len(fields))
        service = fields[place[service_column]]
        if not service:
            rejections.append(f"line {line_no}: missing service identity")
            continue
        try:
            values = {attr_name: float(fields[i]) for i, attr_name in targets.items()}
        except ValueError:
            rejections.append(f"line {line_no}: non-numeric or missing value in mapped column")
            continue
        csp_id = _slugify(service)
        owner = owners.get(csp_id, service)
        if owner != service:
            rejections.append(f"line {line_no}: service {service!r} maps to provider id "
                              f"{csp_id!r}, already taken by service {owner!r}")
            continue
        sequence = group_counts.get(csp_id, 0) + 1
        try:
            records = [AmvRecord(csp_id, f"{csp_id}/monitor", attr_name, value, sequence)
                       for attr_name, value in values.items()]
        except ValueError as exc:
            rejections.append(f"line {line_no}: {exc}")
            continue
        group_counts[csp_id] = sequence
        owners[csp_id] = service
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
    return ImportSummary(accepted, len(rejections) - conflicting, added, skipped, conflicting,
                         tuple(rejections))


def _set_items(dicts: Iterable[dict], keys: Iterable, values: Iterable) -> None:
    """``d[key] = value`` for each dict, key and value in turn, in one C loop."""
    deque(map(setitem, dicts, keys, values), maxlen=0)


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while the snapshot is restored.

    A restore makes no reference cycle, but the records and dicts it builds
    would set the collector off many times, and each run would trace the
    restore's whole-store lists again. The collector's state is restored on
    exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _file_slo_columns(registry: Registry, triples: list[tuple[str, str, str]],
                      values: Iterable[float]) -> None:
    """File a ``SloRecord`` per triple and value, in order, as ``submit_slo`` files them.

    Each record is built with its checks before any is filed: a failed
    check raises ValueError with the registry untouched.
    """
    csps, cscs, names = zip(*triples) if triples else ((), (), ())
    records = list(map(SloRecord, csps, cscs, names, values))
    # a repeated triple keeps its first place and its last record
    registry.slos.update(zip(triples, records))
    index = registry._slo_index
    index.update({key: {} for key in dict.fromkeys(zip(csps, names))})
    _set_items(map(index.__getitem__, zip(csps, names)), cscs, records)


def _restore_amv(registry: Registry, fields: list[str]) -> None:
    """File one amvs.csv row as ``submit_amv`` files it, bar the SLO check.

    Imported values have no SLO. A stored row must carry its sequence.
    """
    record = registry._named(parse_amv(fields))
    if record.sequence is None:
        raise ValueError("stored monitored value has no sequence")
    registry._append_amv(*record.key, record.value, record.sequence)


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
    with the file, and the line unless the file is empty: an empty file or
    another header, a row with a wrong field count, an empty or padded id, a
    non-finite or out-of-range value, an unregistered attribute, an empty
    sequence or a repeated (triple, sequence) in amvs.csv, or a byte that is
    not UTF-8. Attribute abbreviations resolve to names. Each file is read
    and decoded whole, then parsed a row at a time by the row loop of the
    submit commands, which names the refused row.

    ``<root>/.snapshot`` is derived from the CSV files and safe to delete.
    It holds, as a ``marshal`` blob, its own CRC-32, a tag of its format and
    the Python version, the CRC-32 and length of each CSV file it was made
    from (None for a missing one), and the registry as columns: attribute
    definitions, SLO columns, and the AMV log as its distinct triples plus
    per-row triple places, values and sequences. A load reads each CSV file
    whole, and uses the snapshot in place of parsing them only when its
    CRC, its tag and every file's CRC-32 and length match the bytes read;
    each ``SloRecord`` is still built with its checks. Any other snapshot
    (torn, foreign, or made before a hand edit) leaves the load to the
    parse, with its refusals. Only ``save`` writes the snapshot, once the
    CSV files are durable, rewriting it in place; it carries the amvs.csv
    CRC forward over the appended bytes, so no file is read again. A save
    that changes no file leaves a snapshot that already holds the registry
    as it is. Readers never write it.

    ``locked`` takes an ``flock`` on ``<root>/.lock``, which holds across
    processes: a writer holds it exclusively from its load through its
    save, so that no process loses another's rows or numbers a triple
    twice, and a reader holds it shared while it loads. Only a writer
    creates the store; a reader refuses a directory without one. A writer
    killed between its temp write and the rename leaves
    ``<file>.<random>.tmp``; the next writer removes it.
    """

    ATTRIBUTES_FILE = "attributes.csv"
    SLOS_FILE = "slos.csv"
    AMVS_FILE = "amvs.csv"
    FILES = (ATTRIBUTES_FILE, SLOS_FILE, AMVS_FILE)
    LOCK_FILE = ".lock"
    SNAPSHOT_FILE = ".snapshot"
    # marshal's format may change between Python minor versions
    _SNAPSHOT_TAG = f"fastcloud store snapshot 1 {sys.implementation.cache_tag}"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        # the registry last loaded or saved here, with what each file holds
        # of it (its attributes, its SLOs and its AMV row count; None: no
        # file), each file's CRC-32 and length, the index of its AMV log
        # (``_log_index``), and the file stamps that the snapshot holds
        # with this registry (None: it does not hold this registry)
        self._synced: tuple | None = None

    @contextlib.contextmanager
    def locked(self, shared: bool = False) -> Iterator[None]:
        """Hold the store's lock, exclusive unless ``shared``.

        Only a writer creates the store. A reader refuses a directory that
        is missing or holds none of the store's files as an OSError, and
        leaves it as it found it.
        """
        if not shared:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not any((self.root / name).exists() for name in self.FILES):
            raise FileNotFoundError(
                f"{self.root} holds no store: none of {', '.join(self.FILES)} is there")
        fd = os.open(self.root / self.LOCK_FILE, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            if not shared:
                # no writer is at work: a temp file left is a dead writer's
                for name in self.FILES:
                    for stray in self.root.glob(f"{name}.*.tmp"):
                        stray.unlink(missing_ok=True)
            yield
        finally:
            os.close(fd)

    def load(self) -> Registry:
        contents = {}
        for name in self.FILES:
            try:
                contents[name] = (self.root / name).read_bytes()
            except FileNotFoundError:
                contents[name] = None
        stamps = {name: None if data is None else (zlib.crc32(data), len(data))
                  for name, data in contents.items()}
        with _collector_paused():
            restored = self._restore_snapshot(stamps)
        if restored is None:
            registry, log_index, snapshot_stamps = self._parse(contents), None, None
        else:
            (registry, log_index), snapshot_stamps = restored, stamps
        self._remember(registry, stamps, log_index, snapshot_stamps)
        return registry

    def _parse(self, contents: dict[str, bytes | None]) -> Registry:
        """The registry that the CSV files' bytes hold, each read by the row loop."""
        registry = Registry()
        for name, columns, add in (
            (self.ATTRIBUTES_FILE, ATTRIBUTE_COLUMNS,
             lambda fields: registry.register_attribute(parse_attribute(fields))),
            (self.SLOS_FILE, SLO_COLUMNS, lambda fields: registry.submit_slo(parse_slo(fields))),
            (self.AMVS_FILE, AMV_COLUMNS, lambda fields: _restore_amv(registry, fields)),
        ):
            data = contents[name]
            if data is None:
                continue
            line = 1  # the header's, if no row follows
            with refused_at(self.root / name):
                for line, fields in read_rows(record_text(data), columns):
                    with refused_at(line=line):
                        add(fields)
                if name == self.AMVS_FILE and not data.endswith(b"\n"):
                    raise ValueError(f"line {line}: row has no line end: its append was cut short")
        return registry

    def save(self, registry: Registry) -> None:
        """Write ``registry``: only what changed if it was loaded or saved here.

        Once the CSV files are durable, the snapshot is rewritten in place,
        unless it already holds this registry and these files.
        """
        if self._synced and self._synced[0] is registry:
            _, synced, stamps, log_index, snapshot_stamps = self._synced
        else:
            synced, stamps, log_index, snapshot_stamps = {}, {}, None, None
        stamps = dict(stamps)
        self.root.mkdir(parents=True, exist_ok=True)
        if synced.get(self.ATTRIBUTES_FILE) != registry.attributes:
            stamps[self.ATTRIBUTES_FILE] = self._replace(
                self.ATTRIBUTES_FILE, ATTRIBUTE_COLUMNS,
                ([a.name, a.abbreviation, a.unit, a.polarity.value]
                 for a in registry.attributes.values()))
        if synced.get(self.SLOS_FILE) != registry.slos:
            stamps[self.SLOS_FILE] = self._replace(
                self.SLOS_FILE, SLO_COLUMNS,
                ([r.csp_id, r.csc_id, r.attribute, repr(r.value)] for r in registry.slos.values()))
        logged = synced.get(self.AMVS_FILE)
        if logged is None:
            stamps[self.AMVS_FILE] = self._replace(self.AMVS_FILE, AMV_COLUMNS, registry._rows)
        elif logged < len(registry.amvs):
            appended = _csv_text(registry._amv_rows(logged)).encode("utf-8")
            with open(self.root / self.AMVS_FILE, "ab") as fh:
                fh.write(appended)
                fh.flush()
                os.fsync(fh.fileno())
            crc, length = stamps[self.AMVS_FILE]
            stamps[self.AMVS_FILE] = (zlib.crc32(appended, crc), length + len(appended))
        log_index = self._log_index(registry, log_index)
        if stamps != snapshot_stamps:
            # the records are saved by now: a snapshot that cannot be written
            # only leaves the next load to parse the files
            snapshot_stamps = None
            with contextlib.suppress(OSError):
                self._write_snapshot(registry, stamps, log_index)
                snapshot_stamps = stamps
        self._remember(registry, stamps, log_index, snapshot_stamps)

    def _remember(self, registry: Registry, stamps: dict[str, tuple[int, int] | None],
                  log_index: tuple[list, list[int]] | None,
                  snapshot_stamps: dict[str, tuple[int, int] | None] | None) -> None:
        files = {self.ATTRIBUTES_FILE: dict(registry.attributes),
                 self.SLOS_FILE: dict(registry.slos),
                 self.AMVS_FILE: len(registry.amvs)}
        files.update({name: None for name, stamp in stamps.items() if stamp is None})
        self._synced = (registry, files, stamps, log_index, snapshot_stamps)

    # -- the snapshot ------------------------------------------------------

    @staticmethod
    def _log_index(registry: Registry, known: tuple[list, list[int]] | None
                   ) -> tuple[list, list[int]]:
        """The registry's AMV log as its distinct triples and each row's place among them.

        ``known`` is the index of a prefix of the same log, which is extended.
        """
        distinct, rows = known or ([], [])
        if len(rows) < len(registry._triples):
            place = dict(zip(distinct, range(len(distinct))))
            rows = rows + [place.setdefault(triple, len(place))
                           for triple in registry._triples[len(rows):]]
            distinct = list(place)
        return distinct, rows

    def _stamps_of(self, stamps: dict[str, tuple[int, int] | None]) -> tuple:
        return tuple(stamps[name] for name in self.FILES)

    def _write_snapshot(self, registry: Registry, stamps: dict[str, tuple[int, int] | None],
                        log_index: tuple[list, list[int]]) -> None:
        """Rewrite ``<root>/.snapshot`` in place to hold ``registry`` and the files' stamps.

        No temp file, rename or fsync: a snapshot torn by a crash fails its
        own CRC, and a stale one its files' stamps, so no load uses either.
        """
        distinct, rows = log_index
        slos = registry.slos
        csps, cscs, names = zip(*slos) if slos else ((), (), ())
        # the tag and the stamps come first, so that a stale snapshot is
        # refused without decoding the registry
        body = marshal.dumps((self._SNAPSHOT_TAG, self._stamps_of(stamps)), 2) + marshal.dumps((
            [[a.name, a.abbreviation, a.unit, a.polarity.value]
             for a in registry.attributes.values()],
            (csps, cscs, names, [float(r.value) for r in slos.values()]),
            (distinct, rows, list(map(float, registry._values)), registry._sequences),
        ), 2)
        blob = zlib.crc32(body).to_bytes(4, "little") + body
        # private, as the CSV files that the temp files become are
        fd = os.open(self.root / self.SNAPSHOT_FILE, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            os.pwrite(fd, blob, 0)
            os.ftruncate(fd, len(blob))
        finally:
            os.close(fd)

    def _restore_snapshot(self, stamps: dict[str, tuple[int, int] | None]
                          ) -> tuple[Registry, tuple[list, list[int]]] | None:
        """The registry that the snapshot holds, with its log index, if it can be trusted.

        That is when the snapshot passes its own CRC, carries this format's
        tag, and was made from files of exactly the stamps (CRC-32 and
        length) given. Otherwise None, and the CSV files are parsed.
        """
        try:
            blob = (self.root / self.SNAPSHOT_FILE).read_bytes()
        except FileNotFoundError:
            return None
        if blob[:4] != zlib.crc32(memoryview(blob)[4:]).to_bytes(4, "little"):
            return None  # torn, or not a snapshot
        stream = io.BytesIO(blob)
        stream.seek(4)
        try:
            header = marshal.load(stream)  # leaves the stream at the registry's columns
        except (EOFError, ValueError, TypeError):
            return None
        if header != (self._SNAPSHOT_TAG, self._stamps_of(stamps)):
            return None  # another format, or files changed since the snapshot was made
        attributes, (csps, cscs, names, slo_values), (distinct, rows, values, sequences) = (
            marshal.loads(memoryview(blob)[stream.tell():]))
        registry = Registry()
        try:
            for fields in attributes:
                registry.register_attribute(parse_attribute(fields))
            _file_slo_columns(registry, list(zip(csps, cscs, names)), slo_values)
        except ValueError:
            return None
        registry._triples = list(map(distinct.__getitem__, rows))
        registry._values, registry._sequences = values, sequences
        registry._samples = {triple: {} for triple in distinct}
        inner = list(registry._samples.values())
        _set_items(map(inner.__getitem__, rows), sequences, values)
        return registry, (distinct, rows)

    def _replace(self, name: str, header: tuple[str, ...], rows: Iterable[Iterable]
                 ) -> tuple[int, int]:
        """Replace a file atomically; returns the CRC-32 and length of its new bytes."""
        data = _csv_text([header, *rows]).encode("utf-8")
        fd, tmp_path = tempfile.mkstemp(dir=self.root, prefix=name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
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
        return zlib.crc32(data), len(data)
