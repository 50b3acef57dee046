"""Command-line front end: analyze, encode, decode, region, verify.

Reports are canonical JSON on stdout: report_version 1, sorted keys, and no
wall times (identical invocations must produce byte-identical reports);
human-oriented timing goes to stderr.  Exit codes: 0 success, 1 a verification
check failed, 2 usage or format error, 3 infeasible parameters or an exceeded
enumeration budget.

This module holds what every subcommand shares: sequence file I/O, the report
plumbing, the flags every call reads (SHARED), the parser and `main`.  A call
compiles every module it imports when no bytecode is kept, so each subcommand
lives in a private module of its own, `cmd_<name>`: its help line (HELP), its
flags (add_arguments), the flags each of its calls reads (READS, and `row`,
which picks a call's row) and its body (run).  A command module reaches the
file I/O through this module, so a patch of `cli.save_sequence` reaches every
command.  When argv[0] names a subcommand, `main` imports only its module.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
from typing import TYPE_CHECKING, List, Optional, Sequence as Seq

# Only what every subcommand needs is imported here; each command module
# imports the rest, so a call loads just the modules it runs.
from .bitio import fnv1a64
from .container import (
    BudgetExceededError,
    InfeasibleError,
    StreamFormatError,
)
from .lz_core import Alphabet, Sequence

if TYPE_CHECKING:
    from . import regions, sr_codec

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

MODES = ("lz", "cond", "sr", "md-egc", "md-zb")
DISTORTIONS = ("hamming", "absdiff")


class UsageError(ValueError):
    """Bad flags or malformed inputs; maps to exit code 2."""


# ---------------------------------------------------------------------------
# sequence file I/O: raw bytes, or token text with an alphabet header


def _bad_token(symbols: Seq[str]) -> Optional[str]:
    """The first symbol a token file cannot hold, or None: a token symbol is
    non-empty, has no whitespace and does not start with '#', which marks a
    comment line."""
    return next((s for s in symbols if s.split() != [s] or s.startswith("#")), None)


def _read(path: str, sums: Optional[dict] = None) -> bytes:
    """The bytes of a file; with `sums`, also sets sums[path] to their
    checksum: a call's `sums` is its report's inputs block."""
    with open(path, "rb") as fh:
        data = fh.read()
    if sums is not None:
        sums[path] = f"{fnv1a64(data):016x}"
    return data


def load_sequence(path: str, fmt: str = "auto",
                  sums: Optional[dict] = None) -> Sequence:
    """The sequence in a file, read by _read with `sums`."""
    data = _read(path, sums)
    if fmt == "auto":
        fmt = "tokens" if data.startswith(b"alphabet:") else "bytes"
    if fmt == "bytes":
        return Sequence.from_bytes(data)
    if fmt != "tokens":
        raise UsageError(f"unknown input format: {fmt}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: token files must be UTF-8") from exc
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("alphabet:"):
        raise UsageError(
            f"{path}: token files start with a line 'alphabet: <sym> <sym> ...'")
    names = tuple(lines[0][len("alphabet:"):].split())
    if not names:
        raise UsageError(f"{path}: the alphabet header lists no symbols")
    bad = _bad_token(names)
    if bad is not None:
        raise UsageError(f"{path}: alphabet symbol {bad!r} starts with '#', "
                         "which marks a comment line")
    try:
        alpha = Alphabet(names)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    try:
        return Sequence.from_symbols(alpha, lines[1:])
    except KeyError as exc:
        raise UsageError(
            f"{path}: token {exc.args[0]!r} is not in the declared alphabet") from exc


def save_sequence(seq: Sequence, path: str, fmt: str = "auto") -> bytes:
    """Write seq to path in format fmt; the bytes written."""
    if fmt == "auto":
        fmt = "bytes" if seq.alphabet.byte_named else "tokens"
    if fmt == "bytes":
        if not seq.alphabet.byte_named:
            raise UsageError("alphabet symbols are not byte values; use token output")
        payload = seq.to_bytes()
    elif fmt == "tokens":
        bad = _bad_token(seq.alphabet.symbols)
        if bad is not None:
            raise UsageError(f"alphabet symbol {bad!r} cannot be written as a token: token "
                             "symbols are non-empty, without whitespace, not starting with '#'")
        lines = ["alphabet: " + " ".join(seq.alphabet.symbols)]
        lines.extend(seq.symbols())
        payload = ("\n".join(lines) + "\n").encode("utf-8")
    else:
        raise UsageError(f"unknown output format: {fmt}")
    with open(path, "wb") as fh:
        fh.write(payload)
    return payload


def _write(path: str, data, fmt: str = "auto", **fields) -> dict:
    """Write a container's bytes, or a decoded sequence through save_sequence,
    to path; the file's report entry, with the checksum of the bytes written."""
    if isinstance(data, Sequence):
        data = save_sequence(data, path, fmt)
    else:
        with open(path, "wb") as fh:
            fh.write(data)
        fields["bytes"] = len(data)
    return {"path": path, **fields, "checksum": f"{fnv1a64(data):016x}"}


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    return obj


def emit_report(report: dict) -> None:
    report = dict(report)
    report["report_version"] = REPORT_VERSION
    # Wall time would break byte-identical re-runs; it goes to stderr instead.
    report.setdefault("timing", None)
    sys.stdout.write(json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n")


def _region_dict(r: regions.HalfPlaneRegion) -> dict:
    return {"a": r.a, "b": r.b, "clamped_a": r.clamped_a, "clamped_b": r.clamped_b,
            "meta": r.meta}


def _md_region_dict(r: regions.HalfPlaneRegion, kind: str) -> dict:
    # report v1's layout: "b" is the R2 floor and "c" the sum floor
    return {"a": r.a, "b": r.c, "c": r.b, "kind": kind,
            "clamped_a": r.clamped_a, "clamped_b": r.clamped_c,
            "clamped_c": r.clamped_b, "meta": r.meta}


def _eps_mode(args) -> str:
    """--eps-mode, checked by bounds.eps_n_value, whose verdict on a mode does
    not depend on n or beta; the default needs no check, so a call without the
    flag does not load bounds."""
    if args.eps_mode != "default":
        from . import bounds

        try:
            bounds.eps_n_value(2, 2, args.eps_mode)
        except ValueError as exc:
            raise UsageError(f"--eps-mode: {exc}") from exc
    return args.eps_mode


def _distortion_spec(args) -> sr_codec.DistortionSpec:
    from . import sr_codec

    d = sr_codec.PerLetterDistortion(args.distortion)
    return sr_codec.DistortionSpec(d1=d, d2=d, level1=args.d1, level2=args.d2)


# ---------------------------------------------------------------------------
# parser


# Flags that every call of a subcommand defining them reads.  Each command
# module's READS holds the other flags a call reads, in rows keyed by what
# picks the call's path (its `row`); main refuses any other flag given.
SHARED = ("--output", "--format", "--q", "--eps-mode", "--mode", "--suite")
COMMANDS = ("analyze", "encode", "decode", "region", "verify")


def _reads(args) -> set:
    """The flags the call reads: the shared ones and its module's row."""
    return {*SHARED, *args.cmd.READS[args.cmd.row(args)]}


class _Given(argparse.Action):
    """argparse's store action, which also notes each flag given by its long name."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if option_string is not None:
            namespace.given = {**getattr(namespace, "given", {}),
                               self.option_strings[-1]: f"{option_string} {values}"}


# each subcommand accepts only the shared flags it reads
def _bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-mode", default="default",
                   help="slack mode: default, zero, or custom:<value>")
    p.add_argument("--q", type=int, default=1,
                   help="per-stage state budget for the bound terms")


def _format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="fmt", default="auto",
                   choices=("auto", "bytes", "tokens"),
                   help="sequence file format (auto sniffs the header)")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or one that fills only `command`'s
    subparser and loads only its module; either lists every subcommand in
    its usage line."""
    top = argparse.ArgumentParser(
        prog="srlz",
        description="Individual-sequence refinement codecs, rate regions, and "
                    "the verification harness for their converse bounds.")
    sub = top.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        if command not in (None, name):
            sub.add_parser(name)  # named in the usage line, never parsed
            continue
        mod = importlib.import_module(f".cmd_{name}", __package__)
        p = sub.add_parser(name, help=mod.HELP)
        p.register("action", None, _Given)  # every flag it adds notes itself
        p.set_defaults(cmd=mod)
        mod.add_arguments(p)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call that names its subcommand first builds only that subcommand's parser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    reads = _reads(args)
    unread = [given for flag, given in getattr(args, "given", {}).items() if flag not in reads]
    if unread:  # refused like a flag the subcommand never defines
        parser.error("unrecognized arguments: " + " ".join(unread))
    started = time.monotonic()
    try:
        code = args.cmd.run(args)
    except (BudgetExceededError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, StreamFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    # `python -m srlz.cli` runs this file as __main__; call the package's copy,
    # the one whose file I/O the command modules use
    from srlz import cli

    sys.exit(cli.main())
