"""Command-line interface.

One subcommand per capability; each prints to stdout in the selected
--format (text, json, csv), building only that format, and can
additionally drop its JSON artifact into a directory given with --out.
Exit codes: 0 success, 1 domain error or failed verification, 2 usage
error.

Partitions on the command line are space-separated positive integers and
must already be nonincreasing — the library never sorts silently, so the
CLI does not either.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import TnSpecError
from .oracle import (
    EnumerationConstraints,
    cayley_spectrum,
    contains,
    spectrum,
)
from .partitions import conjugate, eigenvalue, make_partition
from .segments import (
    conjecture_scan,
    linear_segment_cover,
    linear_segment_witness,
    quadratic_segment_bounds,
    quadratic_segment_cover,
    quadratic_segment_witness,
)
from .verify import DEFAULT_CHECKS, format_table, run_checks, summary_dict


def _write_artifact(args: argparse.Namespace, name: str, payload: dict) -> None:
    if args.out is None:
        return
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    """What csv.writer writes for rows, one "\n" per row.

    csv.writer scans every character for quoting.  A row none of whose
    fields holds ',', '"', '\r' or '\n', and that is not a lone empty
    field (which csv.writer quotes), is written as its fields joined with
    ','; only the other rows go through csv.writer.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        line = ",".join(row)
        if (
            line.count(",") == len(row) - 1
            and '"' not in line
            and "\n" not in line
            and "\r" not in line
            and (line or len(row) != 1)
        ):
            buffer.write(line + "\n")
        else:
            writer.writerow(row)
    return buffer.getvalue()


def _emit(
    args: argparse.Namespace,
    payload: Callable[[], dict],
    text_lines: Callable[[], Iterable[str]],
    csv_rows: Callable[[], Iterable[Sequence[str]]],
    artifact_name: str,
    artifact: Callable[[], dict] | None = None,
) -> None:
    """Print the format --format selects; write the artifact (default: the
    payload) under --out.  Each output is a zero-argument builder, and only
    the builders of what is printed or written are called."""
    built = None
    if args.format == "json":
        built = payload()
        print(json.dumps(built, sort_keys=True, indent=2))
    elif args.format == "csv":
        sys.stdout.write(_csv_text(csv_rows()))
    else:
        for line in text_lines():
            print(line)
    if args.out is not None:
        if artifact is not None:
            built = artifact()
        elif built is None:
            built = payload()
        _write_artifact(args, artifact_name, built)


def _cmd_eig(args: argparse.Namespace) -> int:
    partition = make_partition(args.parts)
    value = eigenvalue(partition)
    _emit(
        args,
        lambda: {"partition": list(partition.parts), "eigenvalue": value},
        lambda: [str(value)],
        lambda: [["partition", "eigenvalue"], [str(partition), str(value)]],
        "eig",
    )
    return 0


def _cmd_conj(args: argparse.Namespace) -> int:
    partition = make_partition(args.parts)
    transposed = conjugate(partition)
    _emit(
        args,
        lambda: {
            "partition": list(partition.parts),
            "conjugate": list(transposed.parts),
        },
        lambda: [str(transposed)],
        lambda: [["partition", "conjugate"], [str(partition), str(transposed)]],
        "conj",
    )
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    constraints = EnumerationConstraints(max_first_part=args.max_first_part)
    result = spectrum(args.n, constraints)

    def text() -> list[str]:
        lines = [" ".join(str(value) for value in result.values)]
        if args.witnesses:
            witnesses = result.witnesses
            lines.extend(f"{value}: {witnesses[value]}" for value in result.values)
        return lines

    def rows() -> list[list[str]]:
        if args.witnesses:
            witnesses = result.witnesses
            body = [[str(value), str(witnesses[value])] for value in result.values]
        else:
            body = [[str(value), ""] for value in result.values]
        return [["value", "witness"], *body]

    _emit(
        args,
        lambda: result.to_json_dict(with_witnesses=args.witnesses),
        text,
        rows,
        f"spectrum_{args.n}",
    )
    return 0


def _cmd_contains(args: argparse.Namespace) -> int:
    answer, witness = contains(args.n, args.k)

    def text() -> list[str]:
        if witness is None:
            return [str(answer).lower()]
        return [str(answer).lower(), f"witness: {witness}"]

    _emit(
        args,
        lambda: {
            "n": args.n,
            "k": args.k,
            "contained": answer,
            "witness": list(witness.parts) if witness else None,
        },
        text,
        lambda: [
            ["n", "k", "contained", "witness"],
            [
                str(args.n),
                str(args.k),
                str(answer).lower(),
                str(witness) if witness else "",
            ],
        ],
        f"contains_{args.n}_{args.k}",
    )
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.theorem == 5:
        record = quadratic_segment_witness(args.n, args.k)
    else:
        record = linear_segment_witness(args.n, args.k)
    verified = str(record.verified).lower()
    _emit(
        args,
        record.to_json_dict,
        lambda: [
            str(record.partition),
            f"family: {record.family}",
            f"verified: {verified}",
        ],
        lambda: [
            ["n", "target", "family", "partition", "verified"],
            [
                str(record.n),
                str(record.target),
                record.family,
                str(record.partition),
                verified,
            ],
        ],
        f"witness_{args.n}_{args.k}",
    )
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    if args.theorem == 5:
        report = quadratic_segment_cover(args.n)
        name = f"cover_quadratic_{args.n}"
    else:
        report = linear_segment_cover(args.n)
        name = f"cover_linear_{args.n}"

    def text() -> list[str]:
        lines = [
            f"n={report.n} segment=[{report.segment[0]}, {report.segment[1]}] "
            f"covered={report.covered} failures={len(report.failures)} "
            f"max_first_part={report.max_first_part}"
        ]
        for family, count in report.histogram.items():
            lines.append(f"  {family}: {count}")
        for target, message in report.failures:
            lines.append(f"  FAILED {target}: {message}")
        return lines

    _emit(args, report.to_json_dict, text, report.to_csv_rows, name)
    return 0 if not report.failures else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    bounds = quadratic_segment_bounds(args.n)
    _emit(
        args,
        bounds.to_json_dict,
        lambda: [f"y1={bounds.y1} y2={bounds.y2}"],
        lambda: [["n", "y1", "y2"], [str(bounds.n), str(bounds.y1), str(bounds.y2)]],
        f"bounds_{args.n}",
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    check_ids = args.checks.split(",") if args.checks is not None else None
    reports = run_checks(check_ids, args.n_min, args.n_max)
    summary = summary_dict(reports)
    # artifacts leave out timing so that re-runs diff clean
    untimed = [report.to_json_dict(include_elapsed=False) for report in reports]

    def rows() -> list[list[str]]:
        return [
            ["check_id", "n_low", "n_high", "cases_run", "cases_failed"],
            *(
                [
                    report.check_id,
                    str(report.n_range[0]),
                    str(report.n_range[1]),
                    str(report.cases_run),
                    str(report.cases_failed),
                ]
                for report in reports
            ),
        ]

    _emit(
        args,
        lambda: summary,
        lambda: format_table(reports).split("\n"),
        rows,
        "verify_summary",
        lambda: {**summary, "reports": untimed},
    )
    if args.out is not None:
        for report, payload in zip(reports, untimed):
            safe = report.check_id.replace(":", "_").replace("-", "_")
            _write_artifact(args, f"verify_{safe}", payload)
    return 0 if summary["ok"] else 1


def _cmd_conjecture(args: argparse.Namespace) -> int:
    report = conjecture_scan(args.n)

    def text() -> list[str]:
        lines = [
            f"n={report.n} gap=[{report.segment[0]}, {report.segment[1]}] "
            f"present={report.covered} absent={len(report.failures)}"
        ]
        lines.extend(
            f"  {record.target}: {record.partition}" for record in report.records
        )
        if report.failures:
            absent = " ".join(str(target) for target, _ in report.failures)
            lines.append("  absent: " + absent)
        return lines

    _emit(
        args,
        lambda: report.to_json_dict(with_witnesses=True),
        text,
        report.to_csv_rows,
        f"conjecture_{args.n}",
    )
    return 0


def _cmd_cayley(args: argparse.Namespace) -> int:
    result = cayley_spectrum(args.n)
    _emit(
        args,
        result.to_json_dict,
        lambda: [" ".join(str(value) for value in result.values)],
        lambda: [["value"], *([str(value)] for value in result.values)],
        f"cayley_{args.n}",
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused: every
    parse_args returns a fresh Namespace and leaves the parser as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write the JSON artifact(s) into this directory",
    )

    parser = argparse.ArgumentParser(
        prog="tnspec",
        description="Exact integer spectra of transposition graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", parents=[common], help="eigenvalue of a partition")
    p.add_argument("parts", nargs="+", type=int, help="nonincreasing positive parts")
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("conj", parents=[common], help="conjugate of a partition")
    p.add_argument("parts", nargs="+", type=int)
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser(
        "spectrum", parents=[common], help="spectrum of T_n from the oracle table"
    )
    p.add_argument("n", type=int)
    p.add_argument("--max-first-part", type=int, default=None, metavar="M")
    p.add_argument(
        "--witnesses", action="store_true", help="include one witness per value"
    )
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "contains", parents=[common], help="is k an eigenvalue of T_n?"
    )
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser(
        "witness", parents=[common], help="explicit partition with eigenvalue k"
    )
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument(
        "--theorem",
        type=int,
        choices=(3, 5),
        default=3,
        help="3: linear segment [-n, n], from the oracle below n = 31; "
        "5: quadratic segment [y1, y2]",
    )
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser(
        "cover", parents=[common], help="witness every target in a segment"
    )
    p.add_argument("n", type=int)
    p.add_argument("--theorem", type=int, choices=(3, 5), default=3)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser(
        "bounds", parents=[common], help="quadratic segment endpoints y1, y2"
    )
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "verify", parents=[common], help="run re-verification sweeps"
    )
    p.add_argument(
        "--checks",
        default=None,
        metavar="LIST",
        help="comma-separated check ids (default: all); "
        f"known: {', '.join(DEFAULT_CHECKS)}",
    )
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "conjecture",
        parents=[common],
        help="oracle scan of the unproven gap above the linear segment",
    )
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser(
        "cayley", parents=[common], help="exact spectrum of the Cayley graph (n <= 6)"
    )
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_cayley)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except TnSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
