"""Data model and file-backed store for QoS attributes, SLO and AMV submissions.

The store keeps three human-diffable CSV files (attributes.csv, slos.csv,
amvs.csv) under one directory. The store, the submit commands and the
request file share one record format, defined here: a header of the kind's
columns, then one record per row, read by ``read_rows``. ``Registry.file_*``
files a stored or submitted row, an SLO or AMV one with its record type's
checks in their order: field count, ``float`` and ``int``, ids, value,
attribute, then the agreed SLO or a stored row's sequence, then the log's
own refusals. Loading applies the same checks as submission, since each
file is read by that row loop, which names a refused row. A registry holds
its monitored values in one order, the log's: by triple, in order of its
first row, and each triple's by sequence, in submission order.

amvs.csv is an append-only log: a save appends the monitored values added
since the load, in the log's order, while attributes.csv and slos.csv are
replaced atomically, and only when they changed. Writers serialize on an
``flock`` of the store's ``.lock`` file across processes (see ``Store``).
Each save also rewrites ``.snapshot``, a derived file that is safe to
delete: a load that finds the CSV files as that save left them restores
from it in place of parsing them, a reader's ``ProfileTable`` whole and a
writer's registry with the rows of its log held until their first read.
A save encodes the snapshot from the registry, splicing only the rows
filed since the load onto the log that it held.
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import functools
import io
import marshal
import math
import os
import re
import struct
import sys
import tempfile
import weakref
import zlib
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter, le, sub
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TextIO

from .consistency import MissingSloError, Polarity, average_amv, profile_of
from .intervals import IntervalNumber


class UnknownAttributeError(ValueError):
    """A record references an attribute that is not registered."""


class DuplicateSubmissionError(ValueError):
    """A monitored value identical to one already held at the same sequence."""


class StoreRefusedError(Exception):
    """The store's own files, read again after its load, were refused: no input was."""


@dataclass(frozen=True, slots=True)
class QosAttribute:
    name: str
    abbreviation: str
    unit: str
    polarity: Polarity

    def __post_init__(self) -> None:
        _check_ids(self.name, self.abbreviation, "attribute name and abbreviation")
        if "\r" in self.unit:
            raise ValueError(f"attribute unit must not hold a carriage return, got {self.unit!r}")


def _check_ids(first: str, second: str, kind: str = "provider and consumer ids") -> None:
    """Refuse an empty id of the two, or one with surrounding whitespace or a carriage return.

    Before Python 3.13, the csv module writes a carriage return unquoted,
    and a parse reads it as a line end: the store could not be read back.
    """
    if not (first and second and first.strip() == first and second.strip() == second):
        raise ValueError(f"{kind} must be non-empty without surrounding whitespace, got "
                         f"{first!r} and {second!r}")
    if "\r" in first or "\r" in second:
        raise ValueError(f"{kind} must not hold a carriage return, got {first!r} and {second!r}")


def _check_slo(csp_id: str, csc_id: str, value: float) -> None:
    _check_ids(csp_id, csc_id)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"SLO value must be finite and positive, got {value}")


def _check_amv(csp_id: str, csc_id: str, value: float) -> None:
    _check_ids(csp_id, csc_id)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"monitored value must be finite and nonnegative, got {value}")


def _unpadded(ids: set[str]) -> bool:
    """Whether each id passes ``_check_ids``: C-level passes over the set."""
    return "" not in ids and set(map(str.strip, ids)) == ids and "\r" not in "".join(ids)


@dataclass(frozen=True, slots=True)
class SloRecord:
    """Agreed service-level objective for one (provider, consumer, attribute)."""

    csp_id: str
    csc_id: str
    attribute: str
    value: float

    def __post_init__(self) -> None:
        _check_slo(self.csp_id, self.csc_id, self.value)


@dataclass(frozen=True, slots=True)
class AmvRecord:
    """One monitored observation; sequence orders submissions within a triple."""

    csp_id: str
    csc_id: str
    attribute: str
    value: float
    sequence: int | None = None

    def __post_init__(self) -> None:
        _check_amv(self.csp_id, self.csc_id, self.value)


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


# the ASCII bytes that can put a character that str.strip strips into a
# field: each such character but the line breaks, which end an unquoted
# field, and the quote, which opens a field that can hold them
_PADDING = bytes(c for c in range(128) if chr(c).isspace() and c not in b"\r\n") + b'"'


def record_text(data: bytes) -> TextIO:
    """The text of a record file's bytes, decoded whole.

    A byte that is not UTF-8 is refused as a ValueError naming its line. The
    text is read through a wrapper: a ``StringIO`` holds four bytes a character.
    Its ``unpadded`` is True when the bytes are ASCII and hold no byte of
    ``_PADDING``, checked once here: no field of the text then holds a
    character that ``str.strip`` strips, and ``_rows`` reads the fields as
    they are.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: {exc}") from exc
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    text.unpadded = data.isascii() and not any(map(data.__contains__, _PADDING))
    return text


def _rows(source: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(physical line, stripped fields) of the header, blank or not, and each non-blank row.

    The fields of a ``record_text`` that is ``unpadded`` need no strip, and
    get none; any other source's are stripped. A row the csv module cannot
    read, such as one with a field over ``csv.field_size_limit()``, is
    refused as a ValueError that names its line.
    """
    reader = csv.reader(source)
    unpadded = getattr(source, "unpadded", False)
    try:
        for fields in reader:
            if fields or reader.line_num == 1:
                yield reader.line_num, fields if unpadded else [text.strip() for text in fields]
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc


class refused_at(contextlib.AbstractContextManager):
    """Put the file and line of an input refusal at the head of its text.

    ``refused_at(path, line)(exc)`` is the refusal ``<path>: line N: <exc>``,
    leaving out a part not given; as a context manager, it raises that
    refusal of a ValueError raised inside. A StoreRefusedError is not a
    ValueError, so it passes as it is. A duplicate or an unknown attribute
    keeps its error type, so callers can still tell them apart.
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


def _header(source: Iterable[str]) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The header's fields and the ``_rows`` after it: a file with no line is refused."""
    rows = _rows(source)
    for _, header in rows:
        return header, rows
    raise ValueError("file is empty")


def read_rows(source: Iterable[str], columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """The rows of a record file whose header is ``columns``: ``_rows`` after the header.

    The header is checked when called: a missing one, or one that does not
    name exactly ``columns``, is refused. The field count is left to the
    row parsers and filers.
    """
    header, rows = _header(source)
    if header != list(columns):
        raise ValueError(f"line 1: header must be {','.join(columns)!r}, got {','.join(header)!r}")
    return rows


def _fields(fields: list[str], columns: tuple[str, ...]) -> list[str]:
    if len(fields) != len(columns):
        raise ValueError(f"malformed row: {len(fields)} fields, expected {len(columns)}")
    return fields


def attribute_fields(attr: QosAttribute) -> list[str]:
    """The fields that ``Registry.file_attribute`` reads back as ``attr``."""
    return [attr.name, attr.abbreviation, attr.unit, attr.polarity.value]


def parse_request(fields: list[str]) -> tuple[str, IntervalNumber]:
    """A request row: an attribute name or abbreviation and its span."""
    attribute, lower, upper = _fields(fields, REQUEST_COLUMNS)
    span = IntervalNumber(float(lower), float(upper))
    if not attribute:
        raise ValueError("missing attribute name")
    return attribute, span


class SloView(Mapping):
    """Read-only view of a registry's SLOs by triple, in the order of its SLO index.

    A ``SloRecord`` is built when read.
    """

    __slots__ = ("_index",)

    def __init__(self, index: dict[tuple[str, str], dict[str, float]]):
        self._index = index

    def __getitem__(self, key: tuple[str, str, str]) -> SloRecord:
        csp_id, csc_id, attribute = key
        return SloRecord(*key, self._index[csp_id, attribute][csc_id])

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        return ((csp_id, csc_id, attribute) for (csp_id, attribute), consumers
                in self._index.items() for csc_id in consumers)

    def __len__(self) -> int:
        return sum(map(len, self._index.values()))


class AmvView:
    """Read-only view of a registry's monitored values, grouped by triple.

    The triples come in order of their first row, and each triple's rows in
    submission order, so a parse and a snapshot load of one store give equal
    views. Its length is the row count, which reads no row. Two views are
    equal when their rows are, in that order, and an ``AmvRecord`` is built
    for a row only when the view is iterated: both read the whole log.
    """

    __slots__ = ("_registry",)

    def __init__(self, registry: Registry):
        self._registry = registry

    def __len__(self) -> int:
        return sum(self._registry._counts)

    def __iter__(self) -> Iterator[AmvRecord]:
        return (AmvRecord(*row) for row in self._registry._grouped())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmvView):
            return NotImplemented
        return self._registry._grouped() == other._registry._grouped()


class _HeldRows:
    """The held log: the AMV rows that a writer's load left in the snapshot's sections.

    ``distinct`` is the distinct triples section, and ``values`` and
    ``sequences`` are packed arrays of 8 bytes a row, grouped by place,
    each place's rows together and in submission order. ``counts`` is the
    row count of each place, and ``starts`` the row where its rows start.
    It lives as long as its registry: reads decode from it and saves splice
    onto it (``_encode``), until ``refuse``, set by ``Store.load``, takes
    the log from a parse instead.
    """

    __slots__ = ("distinct", "values", "sequences", "counts", "starts", "refuse")

    def __init__(self, distinct: bytes, values: bytes, sequences: bytes, counts: list[int]):
        self.distinct, self.values, self.sequences = distinct, values, sequences
        self.counts = counts
        self.starts = list(accumulate(counts, initial=0))
        self.refuse: Callable[[Registry], None] | None = None


# the held log of a registry that holds no row in a snapshot
_NO_ROWS = _HeldRows(marshal.dumps([], 2), b"", b"", [])

# what decoding snapshot sections of another shape raises
_SHAPE_ERRORS = (EOFError, ValueError, TypeError, IndexError, AttributeError, OverflowError)


class _AttributeLookup:
    """The lookup of ``attributes`` by name or abbreviation, shared by a registry and a table."""

    def resolve_attribute(self, name: str) -> QosAttribute:
        """Look up an attribute by name or abbreviation."""
        if name in self.attributes:
            return self.attributes[name]
        for attr in self.attributes.values():
            if attr.abbreviation == name:
                return attr
        raise UnknownAttributeError(f"unknown attribute {name!r}")

    def resolve_names(self, entries: Mapping[str, str] | Iterable[str], kind: str
                      ) -> dict[str, str]:
        """Each entry's registered name; after all resolve, two entries naming one are refused.

        ``entries`` maps each entry to the spelling it gives, or lists
        spellings, each its own entry: one spelling listed twice is refused.
        """
        spelled = entries.items() if isinstance(entries, Mapping) else [(e, e) for e in entries]
        names = [(entry, self.resolve_attribute(spelling).name) for entry, spelling in spelled]
        first: dict[str, str] = {}  # registered name -> the first entry that names it
        for entry, name in names:
            if name in first:
                raise ValueError(f"{kind} {first[name]!r} and {entry!r} both name {name!r}")
            first[name] = entry
        return dict(names)


@dataclass
class ProfileTable(_AttributeLookup):
    """What ``assess`` reads: the attributes and the ``profile_of`` row of each pair.

    ``Store.load(log=False)`` gives one, from the snapshot or from a parse by
    ``Registry.profile_table``. It holds no record: nothing submits to it,
    and ``Store.save`` refuses it.
    """

    attributes: dict[str, QosAttribute]
    rows: dict[tuple[str, str], tuple]  # (csp, attribute) -> row, each pair with an SLO
    # empty: perfbench's layer tracer counts their lengths at every load,
    # until it counts table rows (ROADMAP item 7), when they go
    slos = amvs = ()


@dataclass(eq=False)
class Registry(_AttributeLookup):
    """In-memory registry of attributes, SLO records and AMV records.

    Attributes are keyed by name and by abbreviation, and each spelling
    names one attribute. SLO records replace on resubmission of the same
    (csp, csc, attribute) triple; AMV records append. Every path resolves a
    record's attribute and files it under the registered name. SLOs are
    held once, as values by consumer per (provider, attribute), in the one
    order of ``slos``: pairs in order of their first SLO, consumers in order
    of theirs, and a resubmission keeps its place.
    Monitored values are held by place, one per distinct ``(csp, csc,
    attribute)`` triple, in order of its first row: its values by sequence,
    in submission order, its row count, and its mean, cached until an
    append to the triple. That is the log's one order: ``amvs`` reads it,
    and a save writes amvs.csv in it (``_rows_after``). ``slos`` and
    ``amvs`` are read-only views. A registry that a writer's load restored
    from the snapshot holds the rows there, its held log (``_HeldRows``):
    it decodes one triple's rows at the first read of that triple
    (``_samples_of``), and the whole log at its first whole read
    (``_read_log``): iterating or comparing ``amvs``, comparing registries,
    or writing amvs.csv whole. It keeps the held log after either, as the
    base that its saves splice the rows filed since onto. ``len(amvs)``
    reads no row, and a command that reads no row decodes none.
    Records enter only through ``submit_*``, ``file_*``, ``import_qws`` and
    ``Store.load``. Only submitted monitored values require an agreed SLO:
    imported ones, and the stored ones that load restores, have none.
    Two registries are equal when their attributes, SLOs and logs are.
    """

    attributes: dict[str, QosAttribute] = field(default_factory=dict, init=False)
    # (csp, attribute) -> {csc: agreed value}, each in order of its first
    # SLO: filled by submit_slo, or taken whole from the snapshot
    _slo_index: dict[tuple[str, str], dict[str, float]] = field(default_factory=dict, init=False)
    # (csp, csc, attribute) -> its place, in order of its first row
    _place: dict[tuple[str, str, str], int] = field(default_factory=dict, init=False, repr=False)
    # by place, {sequence: value} in submission order, or None while its rows
    # are held in the snapshot: filled by _append_amv and _samples_of
    _samples: list[dict[int, float] | None] = field(default_factory=list, init=False, repr=False)
    # by place, amv_mean, or None until it is computed: _append_amv resets it
    _means: list[float | None] = field(default_factory=list, init=False, repr=False)
    # by place, its row count, held or not: _append_amv adds 1 a row
    _counts: list[int] = field(default_factory=list, init=False, repr=False)
    # set by Store.load alone: the held log, the rows that the load
    # restored from the snapshot, until the log is taken from a parse
    _rows: _HeldRows | None = field(default=None, init=False, repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Registry):
            return NotImplemented
        return ((self.attributes, self._slo_index, self.amvs)
                == (other.attributes, other._slo_index, other.amvs))

    def _samples_of(self, key: tuple[str, str, str]) -> dict[int, float] | None:
        """The {sequence: value} of a triple, or None if it has no value.

        Rows held in the snapshot are decoded at the first read of their
        triple (``_decode_place``). Refused ones leave every row, ``_place``
        and ``_means`` to a parse, and the triple is looked up again there.
        """
        place = self._place.get(key)
        if place is None:
            return None
        samples = self._samples[place]
        if samples is None:
            samples = _decode_place(self._rows, place)
            if samples is None:
                self._rows.refuse(self)
                return self._samples_of(key)
            self._samples[place] = samples
        return samples

    def _read_log(self) -> None:
        """Decode the rows of each held place that no read decoded yet (``_decode_place``).

        Only when all are accepted are their samples set: a refused one
        leaves every row, ``_place`` and ``_means`` to a parse.
        """
        if self._rows is not None:
            samples = [_decode_place(self._rows, place) if held is None else held
                       for place, held in enumerate(self._samples)]
            if None in samples:
                self._rows.refuse(self)
            else:
                self._samples = samples

    def _grouped(self) -> list[tuple[str, str, str, float, int]]:
        """The whole log (``_rows_after``), each held row decoded first (``_read_log``)."""
        self._read_log()
        return self._rows_after([])

    def _rows_after(self, counts: list[int]) -> list[tuple[str, str, str, float, int]]:
        """Each place's rows past its first ``counts[place]`` (``_places_after``).

        They are rows ``(csp, csc, attribute, value, sequence)`` in the log's
        one order: by place, each place's in submission order.
        """
        return [(*key, value, sequence) for key, rows in self._places_after(counts)
                for sequence, value in rows]

    def _places_after(self, counts: list[int]
                      ) -> Iterator[tuple[tuple[str, str, str], Iterator[tuple[int, float]]]]:
        """The triple of each place, in place order, and its (sequence, value) rows
        past its first ``counts[place]`` (all past the list's end), in submission order.

        Only places whose count differs are read, which hold their samples: a
        row is filed in a decoded place, and ``_grouped`` decodes every place.
        """
        return ((key, islice(samples.items(), start, None)) for key, samples, count, start
                in zip(self._place, self._samples, self._counts, chain(counts, repeat(0)))
                if count != start)

    @property
    def slos(self) -> SloView:
        return SloView(self._slo_index)

    @property
    def amvs(self) -> AmvView:
        return AmvView(self)

    def register_attribute(self, attr: QosAttribute) -> bool:
        """Register ``attr``; returns False if the same definition was registered already."""
        existing = self.attributes.get(attr.name)
        if existing is not None and existing != attr:
            stored = ",".join(attribute_fields(existing))
            raise ValueError(f"attribute {attr.name!r} already registered as {stored!r}")
        for other in self.attributes.values():
            clash = {attr.name, attr.abbreviation} & {other.name, other.abbreviation}
            if other.name != attr.name and clash:
                raise ValueError(f"{min(clash)!r} already names attribute {other.name!r}")
        self.attributes[attr.name] = attr
        return existing is None

    def file_attribute(self, fields: list[str]) -> bool:
        """``register_attribute`` of an attribute row's stripped fields."""
        name, abbreviation, unit, polarity = _fields(fields, ATTRIBUTE_COLUMNS)
        attr = QosAttribute(name, abbreviation, unit, Polarity(polarity.lower()))
        return self.register_attribute(attr)

    # -- submissions --------------------------------------------------------

    def submit_slo(self, record: SloRecord) -> bool:
        """Store an agreed objective; returns True if it replaced a prior one, in its place."""
        return self.file_slo([record.csp_id, record.csc_id, record.attribute, record.value])

    def file_slo(self, fields: list) -> bool:
        """``submit_slo`` of an SLO row's stripped fields, or a record's, with no record built."""
        csp_id, csc_id, attribute, value = _fields(fields, SLO_COLUMNS)
        value = float(value)  # as a parse gives it
        _check_slo(csp_id, csc_id, value)
        consumers = self._slo_index.setdefault((csp_id, self.resolve_attribute(attribute).name), {})
        replaced = csc_id in consumers
        consumers[csc_id] = value
        return replaced

    def submit_amv(self, record: AmvRecord) -> AmvRecord:
        """Append a monitored value; requires a matching SLO for the triple.

        A record without a sequence gets the next per-triple index. A record
        carrying an explicit sequence is the file/import path: an identical
        record already present is a no-op signalled by DuplicateSubmissionError,
        and the same key with a different value is a conflict (ValueError).
        """
        name, sequence = self._append_amv(record.csp_id, record.csc_id, record.attribute,
                                          record.value, record.sequence, stored=False)
        return (record if (record.attribute, record.sequence) == (name, sequence)
                else replace(record, attribute=name, sequence=sequence))

    def file_amv(self, fields: list[str], stored: bool = False) -> int:
        """``submit_amv`` of an AMV row's stripped fields, no record built; returns its sequence."""
        csp_id, csc_id, attribute, value, sequence = _fields(fields, AMV_COLUMNS)
        value, sequence = float(value), int(sequence) if sequence else None
        _check_amv(csp_id, csc_id, value)
        return self._append_amv(csp_id, csc_id, attribute, value, sequence, stored)[1]

    def _append_amv(self, csp_id: str, csc_id: str, attribute: str, value: float,
                    sequence: int | None, stored: bool = True) -> tuple[str, int]:
        """Append a checked monitored value; returns its attribute's registered name and sequence.

        A ``stored`` value, of amvs.csv or an import, must carry its sequence.
        Another needs an agreed SLO, and without a sequence gets the next
        per-triple index. A sequence holding the same value raises
        DuplicateSubmissionError; another value, or a sequence outside int64,
        which the snapshot cannot hold, raises ValueError and files nothing.
        """
        name = self.resolve_attribute(attribute).name
        if stored:
            if sequence is None:
                raise ValueError("stored monitored value has no sequence")
        elif csc_id not in self._slo_index.get((csp_id, name), ()):
            raise MissingSloError(f"no agreed SLO for ({csp_id}, {csc_id}, {name})")
        key = (csp_id, csc_id, name)
        place = self._place.get(key)
        samples = {} if place is None else self._samples[place]
        if samples is None:  # rows held in the snapshot: a refusal of them renumbers the places
            samples = self._samples_of(key) or {}
            place = self._place.get(key)
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
        if not -2 ** 63 <= sequence < 2 ** 63:
            raise ValueError(f"sequence {sequence} for {key} is outside int64")
        if place is None:  # the triple's first row: its place is filed with it
            place = self._place[key] = len(self._place)
            self._samples.append(samples)
            self._means.append(None)
            self._counts.append(0)
        samples[sequence] = float(value)  # as a parse gives it
        self._means[place] = None
        self._counts[place] += 1
        return name, sequence

    def amv_samples(self, csp_id: str, csc_id: str, attribute: str) -> list[float]:
        """Monitored values for one triple, in sequence order."""
        samples = self._samples_of((csp_id, csc_id, attribute)) or {}
        return [samples[sequence] for sequence in sorted(samples)]

    def amv_mean(self, csp_id: str, csc_id: str, attribute: str) -> float | None:
        """The mean of one triple's monitored values, or None if it has none.

        It is ``average_amv`` of the values, so ``average_amv(amv_samples(...))``
        to the bit, in any row order and on any interpreter.
        """
        key = (csp_id, csc_id, attribute)
        place = self._place.get(key)
        if place is None:
            return None
        mean = self._means[place]
        if mean is None:
            samples = self._samples_of(key)
            if samples is None:  # held rows refused, and the parse holds no row of the triple
                return None
            mean = average_amv(samples.values())
            self._means[self._place[key]] = mean  # a refusal of held rows renumbers the places
        return mean

    def slos_for(self, csp_id: str, attribute: str) -> list[SloRecord]:
        """The provider's objectives on a registered attribute, in submission order."""
        return [SloRecord(csp_id, csc_id, attribute, value)
                for csc_id, value in self._slo_index.get((csp_id, attribute), {}).items()]

    def profile_table(self) -> ProfileTable:
        """The ``profile_of`` row of each pair with an SLO, from its SLOs and their ``amv_mean``."""
        attributes, mean = self.attributes, self.amv_mean
        return ProfileTable(dict(attributes), {
            (csp_id, name): profile_of(attributes[name].polarity, slos.values(),
                                       [mean(csp_id, csc_id, name) for csc_id in slos])
            for (csp_id, name), slos in self._slo_index.items()})


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

    Each accepted row files one monitored value per mapped column. The dataset
    carries no provider/consumer identities, so the provider id is derived
    from the service-identity column and a single synthetic consumer id is
    used per service; the per-attribute sequence is the row's 1-based index
    among the rows of its service name, rejected ones included, so a row
    keeps its sequence when another row is corrected. Re-importing the same
    file regenerates the same records, which are skipped as duplicates; a
    record whose sequence already holds a different value is reported as a
    conflict, counted in ``records_conflicting`` and not stored.

    The provider id is a slug of the service name, and two names can share
    one (``Svc A`` and ``Svc-A`` both give ``Svc-A``). Within one import,
    a slug is taken by the first name with a row that gives it, accepted
    or not, and the rows of another name that gives it are rejected,
    naming both. The registry keeps ids, not names, so a later import
    cannot detect such a collision: it files the rows under the provider
    that holds the id.

    ``mapping=None`` maps the standard six columns. Before ``source`` is read,
    anything but a ``Registry`` (TypeError) and an empty mapping are refused,
    and ``Registry.resolve_names`` refuses an unknown or doubly mapped target.
    A row with a missing, non-numeric, non-finite or negative mapped value is
    counted and reported, not fatal, and files no value (README "Import semantics").
    Bulk third-party observations need no agreed SLO (unlike ``Registry.submit_amv``).
    """
    if not isinstance(registry, Registry):
        raise TypeError(f"only a Registry is imported into, not a {type(registry).__name__}")
    mapping = STANDARD_QWS_MAPPING if mapping is None else mapping
    if not mapping:
        raise ValueError("a mapping must name at least one column")
    names = registry.resolve_names(mapping, "mapped columns")
    header, rows = _header(source)
    missing = [col for col in names if col not in header]
    if missing:
        raise ValueError(f"line 1: mapped columns missing from header: {', '.join(sorted(missing))}")
    if service_column not in header:
        raise ValueError(f"line 1: service identity column {service_column!r} missing from header")
    # a name given twice reads its last column; a short row reads "" past its end
    place = {name: i for i, name in enumerate(header)}
    targets = {place[col]: name for col, name in names.items()}

    accepted = added = skipped = conflicting = 0
    rejections: list[str] = []  # a line per rejected row or conflicting record
    group_counts: dict[str, int] = {}  # service name -> its rows so far
    owners: dict[str, str] = {}  # provider id -> the service name whose rows took it
    for line_no, fields in rows:
        fields += [""] * (len(header) - len(fields))
        service = fields[place[service_column]]
        if not service:
            rejections.append(f"line {line_no}: missing service identity")
            continue
        sequence = group_counts[service] = group_counts.get(service, 0) + 1
        csp_id = _slugify(service)
        owner = owners.setdefault(csp_id, service)
        try:
            values = {attr_name: float(fields[i]) for i, attr_name in targets.items()}
        except ValueError:
            rejections.append(f"line {line_no}: non-numeric or missing value in mapped column")
            continue
        if owner != service:
            rejections.append(f"line {line_no}: service {service!r} maps to provider id "
                              f"{csp_id!r}, already taken by service {owner!r}")
            continue
        csc_id = f"{csp_id}/monitor"
        try:
            for value in values.values():
                _check_amv(csp_id, csc_id, value)
        except ValueError as exc:
            rejections.append(f"line {line_no}: {exc}")
            continue
        accepted += 1
        for attr_name, value in values.items():
            try:
                registry._append_amv(csp_id, csc_id, attr_name, value, sequence)
                added += 1
            except DuplicateSubmissionError:
                skipped += 1
            except ValueError as exc:
                conflicting += 1
                rejections.append(f"line {line_no}: {exc}")
    return ImportSummary(accepted, len(rejections) - conflicting, added, skipped, conflicting,
                         tuple(rejections))


def _stamp(data: bytes | None) -> tuple[int, int] | None:
    """A file's CRC-32 and length, or None for a missing one."""
    return None if data is None else (zlib.crc32(data), len(data))


def _csv_text(rows: Iterable[Iterable]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class _Written(list):
    """A file of the rows that a ``csv.writer`` writes, one entry each."""

    write = list.append


def _csv_fields(texts: Iterable[str]) -> dict[str, str]:
    """Each distinct text of ``texts``, as a field of a row of ``csv.writer(lineterminator="\\n")``.

    The csv module quotes field by field (QUOTE_MINIMAL), and neither a
    finite float's ``repr`` nor an int's ``str`` needs quotes, so a row of
    these fields and such numbers, joined by commas, is the row that
    ``csv.writer`` writes. The texts are written as one row: one with no
    quote quoted no field, so each text is its own field. Otherwise each
    text is written as a row of its own.
    """
    distinct = list(set(texts))
    written = _Written()
    writer = csv.writer(written, lineterminator="\n")
    writer.writerow(distinct)
    if '"' not in written.pop():
        return dict(zip(distinct, distinct))
    writer.writerows((text, "") for text in distinct)  # a second field: a lone "" is quoted
    return {text: row[:-2] for text, row in zip(distinct, written)}  # less "," and line end


def _slo_text(index: dict[tuple[str, str], dict[str, float]]) -> str:
    """The slos.csv rows of an SLO index, in its order."""
    fields = _csv_fields([*chain.from_iterable(index), *chain.from_iterable(index.values())])
    return "".join([f"{fields[csp_id]},{fields[csc_id]},{fields[name]},{value!r}\n"
                    for (csp_id, name), consumers in index.items()
                    for csc_id, value in consumers.items()])


def _log_text(places: list[tuple[tuple[str, str, str], Iterable[tuple[int, float]]]]) -> str:
    """The amvs.csv rows of ``places`` (``Registry._places_after``), each triple's prefix once."""
    fields = _csv_fields(chain.from_iterable(key for key, _ in places))
    return "".join([f"{prefix}{value!r},{sequence}\n" for (csp_id, csc_id, name), rows in places
                    for prefix in (f"{fields[csp_id]},{fields[csc_id]},{fields[name]},",)
                    for sequence, value in rows])


def _extended(part: bytes, entries: list) -> bytes:
    """marshal's bytes of the list that ``part`` holds, with ``entries`` after its own.

    marshal writes a list as "[", its length and its elements, so only the
    entries are written.
    """
    count = int.from_bytes(part[1:5], "little") + len(entries)
    return b"[" + count.to_bytes(4, "little") + part[5:] + marshal.dumps(entries, 2)[5:]


def _packed(code: str, entries: list) -> bytes:
    """``entries`` as a little-endian array of ``struct`` format ``code``, 8 bytes each."""
    return struct.pack(f"<{len(entries)}{code}", *entries)


def _regrouped(log: _HeldRows, part: bytes, code: str, column: Callable,
               tails: dict[int, dict], new: list[dict]) -> bytes:
    """``part``, a section of ``log`` packed as ``code``, with the rows filed since spliced in.

    ``column`` gives a place's entries from its samples. Those of held place
    ``p`` past its held rows, the end of ``tails[p]``, go right after its
    held entries, and those of the places ``new`` after every held entry,
    in place order. The held entries keep their bytes.
    """
    chunks, at = [], 0
    for place, samples in sorted(tails.items()):
        end = 8 * log.starts[place + 1]
        chunks += (part[at:end], _packed(code, [*column(samples)][log.counts[place]:]))
        at = end
    chunks += (part[at:], _packed(code, [*chain.from_iterable(map(column, new))]))
    return b"".join(chunks)


def _table(registry: Registry) -> bytes:
    """The profile table section: each pair with an SLO and its ``profile_of`` row."""
    rows = registry.profile_table().rows
    return marshal.dumps([*zip(*((*pair, *row) for pair, row in rows.items()))] or [()] * 6, 2)


def _encode(registry: Registry) -> tuple:
    """The eight sections of ``registry``'s snapshot.

    The first six are ``marshal`` version 2 bytes: the attribute
    definitions; the profile table, the ``profile_of`` row of each
    (provider, attribute) with an SLO, in the SLO index's order, as six
    columns; the SLO index, ``(csp, attribute) -> {csc: value}``; by place,
    the ``amv_mean`` of each distinct AMV triple, or None where none was
    computed; the distinct AMV triples, in order of their first row; and by
    place, its row count. The last two are the values and the sequences,
    headerless little-endian arrays of ``<d`` and ``<q``, 8 bytes a row,
    grouped by place: each place's rows together, in place order, and in
    submission order within a place, the log's one order. Version 2 shares
    no object, and each row has one packed form.

    Every section but the log's three is encoded from the registry alone,
    so its bytes depend only on the registry's contents, not on how its
    load built it. The log is spliced: the rows filed since the load go
    onto the registry's held log (``_HeldRows``), or an empty one. Each
    held place's appended rows, at the end of its samples, go after its
    held ones, and the places filed since after every held row
    (``_regrouped``), whose triples extend the distinct ones, so no held
    row is decoded. So a crafted place that the load accepted keeps its
    rows, and a crafted mean its value, until an append to its triple.
    """
    held_log = registry._rows
    table = _table(registry)
    if held_log is not None and registry._rows is None:
        # a place that the table read was refused: the log, the places and
        # the means are the parse's, and the table is built again on them
        table = _table(registry)
    log = registry._rows or _NO_ROWS
    samples, held_count = registry._samples, len(log.counts)
    new = samples[held_count:]
    # each held place appended to since the load, by its samples
    tails = {place: samples[place] for place, (count, loaded)
             in enumerate(zip(registry._counts, log.counts)) if count != loaded}
    return (marshal.dumps([*map(attribute_fields, registry.attributes.values())], 2),
            table, marshal.dumps(registry._slo_index, 2), marshal.dumps(registry._means, 2),
            _extended(log.distinct, [*registry._place][held_count:]),
            marshal.dumps(registry._counts, 2),
            _regrouped(log, log.values, "d", dict.values, tails, new),
            _regrouped(log, log.sequences, "q", dict.keys, tails, new))


def _decode_attributes(section: bytes) -> Registry:
    """A registry of the attribute section's definitions, each checked as a parse checks it."""
    registry = Registry()
    for fields in marshal.loads(section):
        registry.file_attribute(fields)
    return registry


def _decode_table(sections: tuple) -> ProfileTable | None:
    """The reader's ``ProfileTable`` of the attribute and table sections, or None.

    It is None unless a parse could give it. The table section, ``(csp,
    name) -> (satisfied, agreed, lower, upper)``, is checked whole: six
    columns of one length, no pair twice, unpadded provider ids, registered
    names, int counts with 0 <= satisfied <= agreed and agreed > 0, and
    finite positive float bounds, the lower at most the upper, as SLO
    values are.
    """
    try:
        attributes = _decode_attributes(sections[0]).attributes
        csp_ids, names, satisfied, agreed, lows, highs = marshal.loads(sections[1])
        rows = dict(zip(zip(csp_ids, names, strict=True),
                        zip(satisfied, agreed, lows, highs, strict=True), strict=True))
        bounds = (*lows, *highs)
        # a sum that overflows on huge values only leaves the load to the parse
        checked = (len(rows) == len(csp_ids)
                   and _unpadded(set(csp_ids))
                   and set(names) <= attributes.keys()
                   and set(map(type, bounds)) <= {float}
                   and set(map(type, (*satisfied, *agreed))) <= {int}
                   and math.isfinite(sum(bounds)) and min(lows, default=1) > 0
                   and min(agreed, default=1) > 0 and min(satisfied, default=0) >= 0
                   and min(map(sub, agreed, satisfied), default=0) >= 0
                   and all(map(le, lows, highs)))
    except _SHAPE_ERRORS:
        return None
    return ProfileTable(attributes, rows) if checked else None


def _decode_records(sections: tuple) -> Registry | None:
    """The writer's registry of ``_encode``'s eight sections, if a parse could give it, or None.

    Its rows stay in the sections (``_HeldRows``), which its saves splice
    onto, and its table is not decoded: each save builds it (``_table``).
    The rest is checked whole, with no Python loop per SLO or row, and used
    as decoded: an SLO index of (provider id, registered name) pairs, each
    to a non-empty dict of consumer ids to positive finite floats; no
    repeated distinct triple, each a tuple of checked ids and a registered
    name; a mean per distinct triple, None or finite and at least 0; and a
    row count per distinct triple, an int of at least 1, whose sum is the
    row count of the values and sequences sections, 8 bytes a row. The
    means and the rows' grouping are derived data that only this program
    writes: checked for shape alone.
    """
    try:
        (head, _, slo_part, means_part, distinct_part, counts_part, values_part,
         sequences_part) = sections
        registry = _decode_attributes(head)
        registry._slo_index, means, distinct, counts = map(
            marshal.loads, (slo_part, means_part, distinct_part, counts_part))
        registry._place = dict(zip(distinct, range(len(distinct))))
        registry._means = means
        pairs, consumers = list(registry._slo_index), list(registry._slo_index.values())
        # an SLO section that is not a dict of dicts raises here
        slo_values = [*chain.from_iterable(map(dict.values, consumers))]
        present = [mean for mean in means if mean is not None]
        checked = (type(means) is type(distinct) is type(counts) is list
                   and len(registry._place) == len(distinct) == len(means) == len(counts)
                   and set(map(type, pairs)) <= {tuple} and set(map(len, pairs)) <= {2}
                   and set(map(type, distinct)) <= {tuple}
                   and min(map(len, consumers), default=1) > 0  # no pair without a consumer
                   and _unpadded({*map(itemgetter(0), pairs), *chain.from_iterable(consumers),
                                  *map(itemgetter(0), distinct), *map(itemgetter(1), distinct)})
                   # SLO values as a parse gives them, which a save may keep
                   and set(map(type, slo_values)) <= {float}
                   and all(map(math.isfinite, (*slo_values, *present)))
                   and min(slo_values, default=1) > 0 and min(present, default=0) >= 0
                   and {*map(itemgetter(1), pairs), *(name for _, _, name in distinct)}
                   <= registry.attributes.keys()
                   and set(map(type, counts)) <= {int} and min(counts, default=1) > 0)
        rows = sum(counts) if checked else 0
        checked = checked and len(values_part) == len(sequences_part) == 8 * rows
    except _SHAPE_ERRORS:
        return None
    if not checked:
        return None
    registry._samples, registry._counts = [None] * len(counts), [*counts]
    if rows:
        registry._rows = _HeldRows(distinct_part, values_part, sequences_part, counts)
    return registry


def _decode_place(rows: _HeldRows, place: int) -> dict[int, float] | None:
    """The {sequence: value} of one place's rows in ``rows``, if a parse could give them.

    They are a slice of each grouped section, one ``struct.unpack_from``
    each: the values must be finite and at least 0, and the sequences
    distinct.
    """
    count, at = rows.counts[place], 8 * rows.starts[place]
    values = struct.unpack_from(f"<{count}d", rows.values, at)
    samples = dict(zip(struct.unpack_from(f"<{count}q", rows.sequences, at), values))
    # a sum that overflows on huge values only leaves the rows to the parse
    checked = len(samples) == count and math.isfinite(sum(values)) and min(values) >= 0
    return samples if checked else None


class Store:
    """Directory-backed persistence for a registry.

    One CSV file per record kind, in the format the submit commands take.
    amvs.csv is an append-only log: saving the registry that this store
    loaded appends the rows added since, in one write, then flushes and
    fsyncs the file. attributes.csv and slos.csv are rewritten only when
    their records changed or the file is missing, and amvs.csv only when
    it is missing or the registry was not loaded here: temp file, fsync,
    rename, then fsync of the directory. Every save leaves all three files.
    slos.csv holds the SLOs as ``Registry.slos`` reads them, grouped by
    (provider, attribute). A whole amvs.csv holds the log as
    ``Registry.amvs`` reads it, grouped by triple, and an append the rows
    added since in that order, so equal registries write equal bytes. Their
    rows are written as ``csv.writer`` writes them, a formatted line each
    from the fields of their ids and names (``_csv_fields``); a header and
    attributes.csv by ``csv.writer`` itself.
    A crash thus leaves each file as it was or as saved, except that an
    append cut short can leave a last amvs.csv row without its line end.
    Load refuses such a row, since a cut value or sequence (``...,9`` of
    ``...,91``) can still read as valid.

    Loading applies the record checks of submission, prefixing each refusal
    with the file, and the line unless the file is empty: an empty file or
    another header, a row with a wrong field count, an empty or padded id, a
    non-finite or out-of-range value, an unregistered attribute, an empty
    sequence, one outside int64 or a repeated (triple, sequence) in
    amvs.csv, or a byte that is not UTF-8. Attribute abbreviations resolve
    to names. Each file is read and decoded whole, then filed a row at a
    time by the row filers of the submit commands, and the refused row named.

    ``<root>/.snapshot`` is derived from the CSV files and safe to delete.
    It holds its own CRC-32, then a ``marshal`` header of a tag of its
    format and the Python version, the CRC-32 and length of each CSV file it
    was made from (None for a missing one) and the byte length of each
    section but the last, then the eight sections that ``_encode`` gives. A
    load reads each CSV file whole, and uses the snapshot in place of
    parsing them only when its CRC, its tag and every file's CRC-32 and
    length match the bytes read, so that no torn or stale snapshot is used,
    and the decode accepts what it reads of it. Any other snapshot
    (unreadable, torn, foreign, of another shape, with columns no parse
    gives, or made before a hand edit) leaves the load to the parse, with
    its refusals. A reader's load decodes the attributes and the profile
    table (``_decode_table``), a writer's its records (``_decode_records``),
    leaving its rows held. A refused place or log leaves the rows to a
    parse of the files (``_reparse``), which are read again then, under the
    lock, and refused if they are not as loaded: a refusal of the store,
    not of the input that the command was filing. Only ``save`` writes the
    snapshot, in place, once the CSV files are durable. It encodes every
    section from the registry, splicing only the log onto the held one
    (``_encode``), and carries the amvs.csv CRC forward over the appended
    bytes, so no file is read again. A save that changes no file leaves a
    snapshot that already holds the registry as it is. Readers never write
    it.

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
    _SNAPSHOT_TAG = f"fastcloud store snapshot 11 {sys.implementation.cache_tag}"
    _STRAY_PREFIXES = tuple(f"{name}." for name in FILES)

    def __init__(self, root: str | Path):
        self.root = Path(root)
        # the registry last loaded by a writer or saved here, by a weak
        # reference (one whose rows are held in the snapshot refers to this
        # store), with what each file holds of it (its attributes, its SLOs
        # and its AMV row count by place; None: no file), each file's CRC-32
        # and length, and the file stamps that the snapshot holds with this
        # registry (None: it does not hold this registry)
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
                # no writer is at work: a temp file left, <file>.*.tmp, is a dead writer's
                for name in os.listdir(self.root):
                    if name.endswith(".tmp") and name[:-4].startswith(self._STRAY_PREFIXES):
                        (self.root / name).unlink(missing_ok=True)
            yield
        finally:
            os.close(fd)

    def load(self, *, log: bool = True) -> Registry | ProfileTable:
        """The writer's registry, or without ``log`` the reader's ``ProfileTable``."""
        contents = self._contents()
        stamps = {name: _stamp(data) for name, data in contents.items()}
        sections = self._restore_snapshot(stamps)
        if not log:
            table = None if sections is None else _decode_table(sections)
            return self._parse(contents).profile_table() if table is None else table
        registry = None if sections is None else _decode_records(sections)
        if registry is None:
            registry, sections = self._parse(contents), None
        elif registry._rows is not None:  # each place's rows at their first read
            registry._rows.refuse = functools.partial(self._reparse, stamps)
        self._remember(registry, stamps, None if sections is None else stamps)
        return registry

    def _contents(self) -> dict[str, bytes | None]:
        """Each CSV file's bytes, read whole, or None for a missing one."""
        contents = {}
        for name in self.FILES:
            try:
                contents[name] = (self.root / name).read_bytes()
            except FileNotFoundError:
                contents[name] = None
        return contents

    def _reparse(self, stamps: dict[str, tuple[int, int] | None], registry: Registry) -> None:
        """Take the rows of ``registry``, whose held rows were refused, from a parse of the files.

        The files are read again, under the lock that the command holds:
        they must be as the registry's load, or its last save here, left
        them (``stamps``, and amvs.csv the held log's counts, or that save's),
        or a file whose CRC-32 or length differs is refused. The log,
        ``_place``, ``_means``, ``_samples`` and ``_counts`` become the
        parse's, and the rows past what amvs.csv holds are filed again. The
        next save encodes every section afresh. A refusal, of a changed file
        or by the parse, is raised as a StoreRefusedError.
        """
        logged, files = registry._rows.counts, {}
        if self._synced and self._synced[0]() is registry:
            ref, files, stamps, _ = self._synced
            logged = files[self.AMVS_FILE]
            self._synced = (ref, files, stamps, None)
        contents = self._contents()
        for name, data in contents.items():
            if _stamp(data) != stamps[name]:
                raise StoreRefusedError(f"{self.root / name}: changed since the store was "
                                        "loaded (its CRC-32 or length differs)")
        try:
            parsed = self._parse(contents)
        except ValueError as exc:
            raise StoreRefusedError(exc) from exc
        appended = registry._rows_after(logged)
        for name in ("_samples", "_place", "_means", "_counts"):
            setattr(registry, name, getattr(parsed, name))
        registry._rows = None
        files[self.AMVS_FILE] = [*parsed._counts]  # what amvs.csv holds, by the parse's places
        for row in appended:
            registry._append_amv(*row)

    def _parse(self, contents: dict[str, bytes | None]) -> Registry:
        """The registry that the CSV files' bytes hold, each read by the row loop."""
        registry = Registry()
        for name, columns, add in (
            (self.ATTRIBUTES_FILE, ATTRIBUTE_COLUMNS, registry.file_attribute),
            (self.SLOS_FILE, SLO_COLUMNS, registry.file_slo),
            (self.AMVS_FILE, AMV_COLUMNS, lambda fields: registry.file_amv(fields, stored=True)),
        ):
            data = contents[name]
            if data is None:
                continue
            line = 1  # the header's, if no row follows
            with refused_at(self.root / name):
                for line, fields in read_rows(record_text(data), columns):
                    try:
                        add(fields)
                    except ValueError as exc:
                        raise refused_at(line=line)(exc) from exc
                if name == self.AMVS_FILE and not data.endswith(b"\n"):
                    raise ValueError(f"line {line}: row has no line end: its append was cut short")
        return registry

    def save(self, registry: Registry) -> None:
        """Write ``registry``: only what changed if it was loaded or saved here.

        Once the CSV files are durable, the snapshot is rewritten in place,
        unless it already holds this registry and these files. Its sections
        are encoded before any file is written, so that a held place that
        the encoding reads, and refuses, is parsed from the files as loaded.
        A save that writes amvs.csv whole reads the whole log first, so that
        a refused held row sends both amvs.csv and the snapshot to the parse.
        """
        if not isinstance(registry, Registry):
            raise TypeError(f"only a writer's Registry is saved, not a {type(registry).__name__}")
        if self._synced and self._synced[0]() is registry:
            _, synced, stamps, snapshot_stamps = self._synced
        else:
            synced, stamps, snapshot_stamps = {}, {}, None
        stamps = dict(stamps)
        self.root.mkdir(parents=True, exist_ok=True)
        attributes_kept = synced.get(self.ATTRIBUTES_FILE) == registry.attributes
        slos_kept = synced.get(self.SLOS_FILE) == registry._slo_index
        logged = synced.get(self.AMVS_FILE)
        unchanged = (attributes_kept and slos_kept and logged == registry._counts
                     and stamps == snapshot_stamps)
        if logged is None:
            registry._read_log()
        sections = None if unchanged else _encode(registry)
        if not attributes_kept:
            stamps[self.ATTRIBUTES_FILE] = self._replace(self.ATTRIBUTES_FILE, _csv_text(
                [ATTRIBUTE_COLUMNS, *map(attribute_fields, registry.attributes.values())]))
        if not slos_kept:
            stamps[self.SLOS_FILE] = self._replace(
                self.SLOS_FILE, _csv_text([SLO_COLUMNS]) + _slo_text(registry._slo_index))
        logged = synced.get(self.AMVS_FILE)  # by the parse's places if _encode reparsed
        log = _log_text([*registry._places_after(logged or [])])
        if logged is None:
            stamps[self.AMVS_FILE] = self._replace(self.AMVS_FILE, _csv_text([AMV_COLUMNS]) + log)
        elif log:
            appended = log.encode("utf-8")
            with open(self.root / self.AMVS_FILE, "ab") as fh:
                fh.write(appended)
                fh.flush()
                os.fsync(fh.fileno())
            crc, length = stamps[self.AMVS_FILE]
            stamps[self.AMVS_FILE] = (zlib.crc32(appended, crc), length + len(appended))
        if sections is not None:
            # the records are saved by now: a snapshot that cannot be written
            # only leaves the next load to parse the files
            snapshot_stamps = None
            with contextlib.suppress(OSError):
                self._write_snapshot(stamps, sections)
                snapshot_stamps = stamps
        self._remember(registry, stamps, snapshot_stamps)

    def _remember(self, registry: Registry, stamps: dict[str, tuple[int, int] | None],
                  snapshot_stamps: dict[str, tuple[int, int] | None] | None) -> None:
        files = {self.ATTRIBUTES_FILE: dict(registry.attributes),
                 self.SLOS_FILE: {pair: dict(slos) for pair, slos in registry._slo_index.items()},
                 self.AMVS_FILE: [*registry._counts]}
        files.update({name: None for name, stamp in stamps.items() if stamp is None})
        self._synced = (weakref.ref(registry), files, stamps, snapshot_stamps)

    # -- the snapshot ------------------------------------------------------

    def _stamps_of(self, stamps: dict[str, tuple[int, int] | None]) -> tuple:
        return tuple(stamps[name] for name in self.FILES)

    def _write_snapshot(self, stamps: dict[str, tuple[int, int] | None], sections: tuple
                        ) -> None:
        """Rewrite ``<root>/.snapshot`` in place to hold ``sections`` and the files' stamps.

        No temp file, rename or fsync: a snapshot torn by a crash fails its
        own CRC, and a stale one its files' stamps, so no load uses either.
        """
        # the tag and the stamps come first, so that a stale snapshot is
        # refused without decoding the registry, then the sections' lengths
        header = (self._SNAPSHOT_TAG, self._stamps_of(stamps), tuple(map(len, sections[:-1])))
        body = b"".join((marshal.dumps(header, 2), *sections))
        blob = zlib.crc32(body).to_bytes(4, "little") + body
        # private, as the CSV files that the temp files become are
        fd = os.open(self.root / self.SNAPSHOT_FILE, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            os.pwrite(fd, blob, 0)
            os.ftruncate(fd, len(blob))
        finally:
            os.close(fd)

    def _restore_snapshot(self, stamps: dict) -> tuple | None:
        """The snapshot's eight sections, undecoded, or None if it cannot be trusted.

        It is trusted if it can be read, passes its own CRC, and carries this
        format's tag, eight sections, and the given files' CRC-32s and lengths.
        """
        try:
            blob = (self.root / self.SNAPSHOT_FILE).read_bytes()
            if blob[:4] != zlib.crc32(memoryview(blob)[4:]).to_bytes(4, "little"):
                return None  # torn, or not a snapshot
            stream = io.BytesIO(blob)
            stream.seek(4)
            tag, file_stamps, sizes = marshal.load(stream)
            if (tag, file_stamps, len(sizes)) != (self._SNAPSHOT_TAG, self._stamps_of(stamps), 7):
                return None  # another format, or files changed since the snapshot was made
            starts = list(accumulate(sizes, initial=stream.tell()))
            view = memoryview(blob)
            return tuple(view[start:end] for start, end in zip(starts, [*starts[1:], len(blob)]))
        except (OSError, EOFError, ValueError, TypeError):
            return None  # unreadable, or a header of another shape

    def _replace(self, name: str, text: str) -> tuple[int, int]:
        """Replace a file atomically by ``text``; returns the CRC-32 and length of its bytes."""
        data = text.encode("utf-8")
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
