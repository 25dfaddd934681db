"""Command-line surface: parse expressions, run decisions, emit JSON or DOT.

Exit codes: 0 success; 2 parse or validation error; 3 the input does not
define a compactification; 4 an operation precondition failed (for example
the requested witness kind is unavailable); 5 an internal error (a failed
consistency check, :class:`~semidegree.puiseux.InternalError`, or any other
exception: a bug), which in ``batch`` fails its own line only; a ``batch``
input file that cannot be read is exit 2.  All numbers inside JSON payloads
are decimal strings, never floats.

Output is streamed: a key form's text is made only as the JSON encoder
reaches it, and ``batch`` writes each line as soon as it is known, so no
command holds its whole output text in memory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import sys
from typing import Callable, Iterator, NamedTuple

from .algebra import LaurentPoly
from .algebra import semidegree as semidegree_value
from .decide import NotACompactificationError, cousin_decide, decide_algebraic
from .graphs import (
    WitnessError,
    algebraic_witness,
    classify,
    export_dot,
    nonalgebraic_witness,
    resolution_graph,
)
from .keyforms import KeyFormError, KeyFormSeq, compute_key_forms
from .parsing import ParseError, dps_to_str, laurent_to_str, parse_dps, parse_laurent
from .puiseux import FormalPuiseuxPairs, GenericDPS, formal_pairs

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_COMPACTIFICATION = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5


def _exit_code(error: Exception) -> int:
    if isinstance(error, NotACompactificationError):
        return EXIT_NOT_COMPACTIFICATION
    if isinstance(error, (WitnessError, KeyFormError)):
        return EXIT_PRECONDITION
    if isinstance(error, ValueError):
        return EXIT_INVALID
    return EXIT_INTERNAL


def _error_text(error: Exception) -> str:
    if _exit_code(error) == EXIT_INTERNAL:
        return f"internal error: {type(error).__name__}: {error}"
    return str(error)


def _ascii(text: str) -> str:
    """text, refused if it is not ASCII or holds ``_``: int() and Fraction() read both."""
    if not text.isascii() or "_" in text:
        raise ValueError("only ASCII digits, without _ separators")
    return text


def _parse_rational(text: str):
    from fractions import Fraction

    try:
        return Fraction(_ascii(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}", 0) from None


def _parse_pairs(text: str) -> FormalPuiseuxPairs:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty pair", 0)
        try:
            q_text, slash, p_text = _ascii(chunk).partition("/")
            pairs.append((int(q_text), int(p_text if slash else "1")))
        except ValueError:
            raise ParseError(f"bad pair {chunk!r}", 0) from None
    return FormalPuiseuxPairs(tuple(pairs))


def _generic_series(args) -> GenericDPS:
    return GenericDPS(parse_dps(args.phi), _parse_rational(args.r))


def _form_text(obj: object) -> str:
    """json's ``default`` hook: a key form's text, made only when the
    encoder writes it.  Anything else in a payload is a bug."""
    if isinstance(obj, LaurentPoly):
        return laurent_to_str(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _sequence_payload(seq: KeyFormSeq) -> dict:
    return {
        "key_forms": list(seq.forms),  # printed by _form_text
        "values": [str(v) for v in seq.values],
        "multipliers": [str(a) for a in seq.multipliers],
        "essential_indices": [str(j) for j in seq.essential_indices],
        "essential_values": [str(v) for v in seq.essential_values()],
    }


def _pairs_payload(pairs: FormalPuiseuxPairs) -> list[list[str]]:
    return [[str(q), str(p)] for q, p in pairs.pairs]


def _cmd_keyforms(args) -> dict:
    g = _generic_series(args)
    seq = compute_key_forms(g)
    return {
        "command": "keyforms",
        "phi": dps_to_str(g.phi),
        "r": str(g.r),
        "formal_pairs": _pairs_payload(formal_pairs(g)),
        **_sequence_payload(seq),
    }


def _cmd_semidegree(args) -> dict:
    g = _generic_series(args)
    f = parse_laurent(args.f)
    return {
        "command": "semidegree",
        "f": laurent_to_str(f),
        "phi": dps_to_str(g.phi),
        "r": str(g.r),
        "value": str(semidegree_value(f, g)),
    }


def _verdict_payload(command: str, verdict) -> dict:
    payload = {
        "command": command,
        "kind": verdict.kind,
        **_sequence_payload(verdict.keyforms),
    }
    if verdict.is_algebraic:
        payload["curve"] = laurent_to_str(verdict.curve)
        payload["embedding_weights"] = [str(w) for w in verdict.embedding_weights]
        payload["essential_weights"] = [str(w) for w in verdict.essential_weights]
    else:
        payload["witness_index"] = str(verdict.witness_index)
    return payload


def _cmd_decide(args) -> dict:
    return _verdict_payload("decide", decide_algebraic(_generic_series(args)))


def _cmd_cousin(args) -> dict:
    psi = parse_dps(args.psi)
    verdict = cousin_decide(psi, _parse_rational(args.r))
    return _verdict_payload("cousin", verdict)


def _cmd_classify(args) -> dict:
    result = classify(_parse_pairs(args.pairs))
    return {
        "command": "classify",
        "kind": result.kind,
        "essential_values": [str(v) for v in result.essential_values],
        "s1_failures": [str(k) for k in result.s1_failures],
        "s2_failures": [str(k) for k in result.s2_failures],
        "s2_witnesses": [{"k": str(k), "t": str(t)} for k, t in result.s2_witnesses],
    }


def _cmd_graph(args) -> dict | str:
    graph = resolution_graph(_parse_pairs(args.pairs))
    if args.dot:
        return export_dot(graph)
    return {
        "command": "graph",
        "vertices": [
            {"name": v.name, "weight": str(v.weight), "mark": v.mark} for v in graph.vertices
        ],
        "edges": [[a, b] for a, b in graph.edges],
    }


def _cmd_witness(args) -> dict:
    pairs = _parse_pairs(args.pairs)
    build = algebraic_witness if args.kind == "algebraic" else nonalgebraic_witness
    seq = build(pairs)
    return {
        "command": "witness",
        "kind": args.kind,
        "all_polynomial": all(f.is_polynomial for f in seq.forms),
        **_sequence_payload(seq),
    }


# Each line command's handler and flags: value flags (dest -> help, every
# one required), switches (dest -> help) and the allowed values of choice
# flags.  argparse is built from this table for the process's own argv;
# batch lines are read against it directly by _line_args.
_SERIES = {"phi": "descending Puiseux polynomial", "r": "generic exponent (rational)"}
_PAIRS = {"pairs": "comma-separated q/p pairs"}


class _Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], dict | str]
    values: dict[str, str]
    switches: dict[str, str] = {}
    choices: dict[str, tuple[str, ...]] = {}


_COMMANDS = {
    "keyforms": _Command("compute the key forms", _cmd_keyforms, _SERIES),
    "semidegree": _Command(
        "evaluate the semidegree", _cmd_semidegree, {**_SERIES, "f": "element of Q[x,1/x,y]"}
    ),
    "decide": _Command("decide algebraicity", _cmd_decide, _SERIES),
    "cousin": _Command(
        "decide approximability by a polynomial curve",
        _cmd_cousin,
        {"psi": "local Puiseux polynomial (positive exponents)", "r": "positive rational contact order"},
    ),
    "classify": _Command("classify a dual graph from its pairs", _cmd_classify, _PAIRS),
    "graph": _Command(
        "emit the resolution dual graph", _cmd_graph, _PAIRS, {"dot": "emit DOT instead of JSON"}
    ),
    "witness": _Command(
        "construct a witness key-form sequence",
        _cmd_witness,
        {**_PAIRS, "kind": "witness kind"},
        choices={"kind": ("algebraic", "nonalgebraic")},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidegree",
        description="Key forms, algebraicity decisions and resolution dual graphs "
        "for valuations at infinity on the plane.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for dest, text in command.values.items():
            p.add_argument(f"--{dest}", required=True, help=text, choices=command.choices.get(dest))
        for dest, text in command.switches.items():
            p.add_argument(f"--{dest}", action="store_true", help=text)

    p = sub.add_parser("batch", help="run one command per line of a file", allow_abbrev=False)
    p.add_argument("--input", required=True, help="file of command lines")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    return parser


_PARSER = _build_parser()

# commands run through this index, whose entries perfbench's self-test patches
_HANDLERS = {name: command.run for name, command in _COMMANDS.items()}

_VALUE_FLAGS = {"--input", "--jobs"} | {f"--{dest}" for c in _COMMANDS.values() for dest in c.values}


def _merge_flag_values(argv: list[str]) -> list[str]:
    """Join value flags with their argument so values like -6/5 survive
    argparse's option detection."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


# POSIX shell words, as shlex.split reads them: blanks are space, tab, CR
# and LF; single quotes are literal; double quotes honour only \" and \\;
# a backslash elsewhere escapes the next character.
_PIECE = r"[^ \t\r\n'\"\\]|\\.|'[^']*'|\"(?:[^\"\\]|\\.)*\""
_WORD = re.compile(rf"(?:{_PIECE})+", re.S)
# a blank or the end after every word, so a failed match cannot backtrack
# through the ways of cutting one word in two
_LINE = re.compile(rf"[ \t\r\n]*(?:{_WORD.pattern}(?:[ \t\r\n]+|\Z))*", re.S)
_QUOTED = re.compile(r"\\(.)|'([^']*)'|\"((?:[^\"\\]|\\.)*)\"", re.S)
_DOUBLE_ESCAPE = re.compile(r'\\(["\\])')


def _unquote(match: re.Match) -> str:
    escaped, single, double = match.groups()
    if double is not None:
        return _DOUBLE_ESCAPE.sub(r"\1", double)
    return escaped if single is None else single


def _split_line(line: str) -> list[str]:
    """shlex.split(line), without its character-at-a-time lexer."""
    if not _LINE.fullmatch(line):
        return shlex.split(line)  # a malformed line: raises shlex's own ValueError
    return [_QUOTED.sub(_unquote, word) for word in _WORD.findall(line)]


def _line_args(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace _PARSER would give for argv, or None where it would
    refuse argv or print help.  Flags are exact, ``--flag value`` or
    ``--flag=value``; a repeated flag keeps its last value."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    found: dict[str, object] = dict.fromkeys(command.switches, False)
    i = 1
    while i < len(argv):
        token = argv[i]
        name, joined, value = token.partition("=")
        dest = name[2:] if name.startswith("--") else None
        if dest in command.values:
            if not joined:
                if i + 1 == len(argv):
                    return None
                i += 1
                value = argv[i]
            if value not in command.choices.get(dest, (value,)):
                return None
            found[dest] = value
        elif dest in command.switches and not joined:
            found[dest] = True
        else:
            return None
        i += 1
    if any(dest not in found for dest in command.values):
        return None
    return argparse.Namespace(command=argv[0], **found)


def _error_line(text: str, code: int) -> str:
    return json.dumps({"error": text, "exit_code": str(code)})


def run_line(line: str) -> tuple[int, str]:
    """Run one command line; returns (exit code, single-line JSON or error)."""
    try:
        argv = _split_line(line)
        if argv and argv[0] == "batch":
            raise ParseError("batch lines may not nest", 0)
        args = _line_args(argv)
        if args is None:
            return EXIT_INVALID, _error_line("bad arguments", EXIT_INVALID)
        result = _HANDLERS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        code = _exit_code(exc)
        return code, _error_line(_error_text(exc), code)
    if isinstance(result, str):
        return EXIT_INVALID, _error_line("dot output is not available in batch mode", EXIT_INVALID)
    return EXIT_OK, json.dumps(result, separators=(",", ":"), default=_form_text)


def _line_results(lines: list[str], workers: int) -> Iterator[tuple[int, str]]:
    """run_line of each line, in input order, each as soon as it is known."""
    if workers > 1:
        # loaded only here: the pool pulls in multiprocessing, which no
        # other command uses
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
            # one single-line map per line, all submitted before any line is
            # written: a fork that fails falls back to the serial loop with
            # nothing written twice, and a worker that dies costs only the
            # lines whose results the pool lost with it
            pending = [pool.map(run_line, (line,)) for line in lines]
        except OSError:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        else:
            with pool:
                for results in pending:
                    try:
                        result = next(results)
                    except BrokenProcessPool:
                        result = EXIT_INTERNAL, _error_line(
                            "internal error: a batch worker process died", EXIT_INTERNAL
                        )
                    yield result
            return
    yield from map(run_line, lines)


def _cmd_batch(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError(f"cannot read {args.input}: {reason}") from None
    # the pool forks all its workers at the first submit, so never ask for
    # more than there are cores or lines
    workers = min(args.jobs, os.cpu_count() or 1, len(lines))
    code = EXIT_OK
    for line_code, text in _line_results(lines, workers):
        sys.stdout.write(text + "\n")
        code = code or line_code  # the first failing line's code
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_merge_flag_values(list(argv)))
    if [] in vars(args).values():  # argparse 3.11 reads a value of -- as []
        _PARSER.error("a flag's value may not be --")
    try:
        if args.command == "batch":
            return _cmd_batch(args)
        result = _HANDLERS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes
        print(_error_text(exc), file=sys.stderr)
        return _exit_code(exc)
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        json.dump(result, sys.stdout, indent=2, default=_form_text)
        sys.stdout.write("\n")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
