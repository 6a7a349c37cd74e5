"""Command-line workbench binding the registry, assessment and benchmark.

Subcommands:

    register-attributes  load attribute definitions (or the standard six)
    submit-slo           merge agreed objectives from a CSV file
    submit-amv           append monitored values from a CSV file
    import-qws           bulk-import a QoS dataset as monitored values
    assess               rank providers for a request file
    bench                run a scaling sweep of the scoring pipeline

The store directory comes from --store or the FASTCLOUD_STORE environment
variable (flag wins). Exit codes: 0 success, 2 validation error or a
refused store, 3 insufficient candidates, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

from .bench import BenchConfig, BenchMode, render_report, run_benchmark
from .registry import (
    AMV_COLUMNS,
    ATTRIBUTE_COLUMNS,
    DuplicateSubmissionError,
    SLO_COLUMNS,
    STANDARD_ATTRIBUTES,
    STANDARD_QWS_MAPPING,
    Store,
    StoreRefusedError,
    import_qws,
    read_rows,
    record_text,
    refused_at,
)
from .selection import (
    InsufficientCandidatesError,
    assess,
    read_request,
    render_human,
    render_structured,
    # no command calls it: the benchmark's layer tracer wraps it by this name
    result_document,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CANDIDATES = 3
EXIT_IO = 4

log = logging.getLogger("fastcloud")


def _store(args: argparse.Namespace) -> Store:
    path = args.store or os.environ.get("FASTCLOUD_STORE")
    if not path:
        raise ValueError("no store directory: pass --store or set FASTCLOUD_STORE")
    return Store(path)


def _submit_file(path: str, columns: tuple[str, ...], file) -> tuple[list, int, int]:
    """File each row of a record file by ``file``, which takes the row's stripped fields.

    A refused row fails only its own line, reported on stderr, and a refusal
    of the store the command. Returns what ``file`` gave for each filed
    row, the number of rows skipped as duplicates (DuplicateSubmissionError),
    and the number of failed rows.
    """
    with refused_at(path):
        rows = list(read_rows(record_text(Path(path).read_bytes()), columns))
    results, skipped, failed = [], 0, 0
    for line, fields in rows:
        try:
            results.append(file(fields))
        except DuplicateSubmissionError:
            skipped += 1
        except ValueError as exc:
            failed += 1
            print(f"  {refused_at(path, line)(exc)}", file=sys.stderr)
    return results, skipped, failed


def cmd_register_attributes(args: argparse.Namespace) -> int:
    store = _store(args)
    with store.locked():
        registry = store.load()
        # whether each definition given changed the registry
        added = []
        if args.qws_defaults:
            added += map(registry.register_attribute, STANDARD_ATTRIBUTES)
        if args.file:
            results, _, failed = _submit_file(args.file, ATTRIBUTE_COLUMNS,
                                              registry.file_attribute)
            if failed:
                raise ValueError(f"{args.file}: {failed} rows refused, nothing registered")
            added += results
        if not added:
            raise ValueError("nothing to register: pass a file and/or --qws-defaults")
        store.save(registry)
    print(f"{sum(added)} attributes registered")
    return EXIT_OK


def cmd_submit_slo(args: argparse.Namespace) -> int:
    store = _store(args)
    with store.locked():
        registry = store.load()
        results, _, failed = _submit_file(args.file, SLO_COLUMNS, registry.file_slo)
        replaced = sum(results)
        accepted = len(results) - replaced
        if results:
            store.save(registry)
    print(f"{accepted} accepted, {replaced} replaced"
          + (f", {failed} failed" if failed else ""))
    return EXIT_VALIDATION if failed and not results else EXIT_OK


def cmd_submit_amv(args: argparse.Namespace) -> int:
    store = _store(args)
    with store.locked():
        registry = store.load()
        results, skipped, failed = _submit_file(args.file, AMV_COLUMNS, registry.file_amv)
        appended = len(results)
        if appended:
            store.save(registry)
    print(f"{appended} appended"
          + (f", {skipped} duplicates skipped" if skipped else "")
          + (f", {failed} failed" if failed else ""))
    return EXIT_VALIDATION if failed and not (results or skipped) else EXIT_OK


def cmd_import_qws(args: argparse.Namespace) -> int:
    store = _store(args)
    mapping = STANDARD_QWS_MAPPING
    if args.map is not None:
        mapping = {}
        for pair in args.map.split(","):
            column, _, attr = map(str.strip, pair.partition("="))
            if not column or not attr:
                raise ValueError(f"bad --map entry {pair!r}: expected COLUMN=attribute")
            if column in mapping:
                raise ValueError(f"bad --map: column {column!r} is mapped twice")
            mapping[column] = attr
    with store.locked():
        registry = store.load()
        registry.resolve_names(mapping, "mapped columns")  # a bad target: refused without a path
        with refused_at(args.file):
            summary = import_qws(registry, record_text(Path(args.file).read_bytes()), mapping,
                                 service_column=args.service_column)
        if summary.records_added:
            store.save(registry)
    for reason in summary.rejections:
        print(f"  {args.file}: {reason}", file=sys.stderr)
    print(summary)
    return EXIT_OK


def cmd_assess(args: argparse.Namespace) -> int:
    store = _store(args)
    with store.locked(shared=True):
        table = store.load(log=False)
    with refused_at(args.request):
        request = read_request(record_text(Path(args.request).read_bytes()))
    if args.attributes is not None:
        entries = [n.strip() for n in args.attributes.split(",")]
        subset = table.resolve_names(entries, "selected attributes")
        request = request.resolved(table).restrict(list(subset.values()))
    result = assess(table, request)
    output = render_structured(result) if args.format == "structured" else render_human(result)
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
        print(f"result written to {args.out}")
        print(f"ranking: {result.chain}")
    else:
        print(output)
    return EXIT_OK


def _parse_sweep(text: str) -> tuple[int, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad sweep {text!r}: expected START:STOP:STEP")
    start, stop, step = (int(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"bad sweep {text!r}: need START <= STOP and STEP > 0")
    return tuple(range(start, stop + 1, step))


def cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig(
        mode=BenchMode(args.mode),
        fixed_value=args.fixed,
        sweep=_parse_sweep(args.sweep),
        repetitions=args.reps,
        seed=args.seed,
    )
    report = run_benchmark(config)
    print(render_report(report))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fastcloud",
        description="QoS-based trust assessment and provider ranking workbench",
    )
    parser.add_argument("--store", "-s", help="store directory (default: $FASTCLOUD_STORE)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register-attributes", help="load attribute definitions")
    p.add_argument("file", nargs="?", help="CSV: name,abbreviation,unit,polarity")
    p.add_argument("--qws-defaults", action="store_true",
                   help="register the six standard QoS attributes")
    p.set_defaults(func=cmd_register_attributes)

    p = sub.add_parser("submit-slo", help="merge agreed objectives from a CSV file")
    p.add_argument("file", help="CSV: csp_id,csc_id,attribute,value")
    p.set_defaults(func=cmd_submit_slo)

    p = sub.add_parser("submit-amv", help="append monitored values from a CSV file")
    p.add_argument("file", help="CSV: csp_id,csc_id,attribute,value,sequence")
    p.set_defaults(func=cmd_submit_amv)

    p = sub.add_parser("import-qws", help="bulk-import a QoS dataset as monitored values")
    p.add_argument("file", help="delimiter-separated dataset with a header row")
    p.add_argument("--map", help="column mapping COLUMN=attr,COLUMN=attr,... "
                                 "(default: the standard six)")
    p.add_argument("--service-column", default="Service Name",
                   help="column holding the service identity")
    p.set_defaults(func=cmd_import_qws)

    p = sub.add_parser("assess", help="rank providers for a request file")
    p.add_argument("request", help="CSV: attribute,min,max")
    p.add_argument("--attributes", help="comma-separated subset of the request to use")
    p.add_argument("--format", choices=["human", "structured"], default="human")
    p.add_argument("--out", help="write the result document to a file")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("bench", help="run a scaling sweep of the scoring pipeline")
    p.add_argument("--mode", choices=[m.value for m in BenchMode], required=True)
    p.add_argument("--fixed", type=int, required=True,
                   help="value of the dimension held constant")
    p.add_argument("--sweep", required=True, help="START:STOP:STEP for the swept dimension")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING - 10 * min(args.verbose, 2),
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except InsufficientCandidatesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CANDIDATES
    except (ValueError, StoreRefusedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
