"""Command-line surface: parse expressions, run decisions, emit JSON or DOT.

One reader reads the process's argv and each ``batch`` line against one
command table, whose help strings ``-h`` prints.  Exit codes: 0 success;
1 stdout was closed by its reader, which ends the run with nothing on
stderr; 2 the package refused its input (an unreadable ``batch`` file
included), naming the command or flag at fault; 3 the input does not
define a compactification; 4 an operation precondition failed (for
example the requested witness kind is unavailable); 5 an internal error (a
failed consistency check, :class:`~semidegree.puiseux.InternalError`, or
any other exception: a bug), which in ``batch`` fails its own line only.
All numbers inside JSON payloads are decimal strings, never floats,
printed whole however many digits they have.

Output is streamed: a key form's text is made only as the JSON encoder
reaches it, and ``batch`` writes each line as soon as it is known, so no
command holds its whole output text in memory.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import sys
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

from .algebra import AlgebraError, LaurentPoly
from .algebra import semidegree as semidegree_value
from .decide import NotACompactificationError, cousin_decide, decide_algebraic
from .graphs import (
    GraphError,
    WitnessError,
    algebraic_witness,
    classify,
    export_dot,
    nonalgebraic_witness,
    resolution_graph,
)
from .keyforms import KeyFormError, KeyFormSeq, compute_key_forms
from .parsing import (
    ParseError, dps_to_str, laurent_to_str, number_to_str, parse_count, parse_dps, parse_laurent, parse_pairs,
    parse_rational,
)
from .puiseux import FormalPuiseuxPairs, GenericDPS, PuiseuxError, formal_pairs

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_INVALID = 2
EXIT_NOT_COMPACTIFICATION = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5


class UsageError(ValueError):
    """A refused command line; its text names the command or flag at fault."""


def _exit_code(error: Exception) -> int:
    if isinstance(error, NotACompactificationError):
        return EXIT_NOT_COMPACTIFICATION
    if isinstance(error, (WitnessError, KeyFormError)):
        return EXIT_PRECONDITION
    if isinstance(error, (ParseError, PuiseuxError, AlgebraError, GraphError, UsageError)):
        return EXIT_INVALID
    return EXIT_INTERNAL


def _error_text(error: Exception) -> str:
    if _exit_code(error) == EXIT_INTERNAL:
        return f"internal error: {type(error).__name__}: {error}"
    return str(error)


def _flag(parse, args, dest: str):
    """parse(args.<dest>), with the flag named in a ParseError's message."""
    try:
        return parse(getattr(args, dest))
    except ParseError as exc:
        raise ParseError(f"--{dest}: {exc.message}", exc.position) from None


def _generic_series(args) -> GenericDPS:
    return GenericDPS(_flag(parse_dps, args, "phi"), _flag(parse_rational, args, "r"))


def _form_text(obj: object) -> str:
    """json's ``default`` hook: a key form's text, made only when the
    encoder writes it.  Anything else in a payload is a bug."""
    if isinstance(obj, LaurentPoly):
        return laurent_to_str(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _sequence_payload(seq: KeyFormSeq) -> dict:
    return {
        "key_forms": list(seq.forms),  # printed by _form_text
        "values": [number_to_str(v) for v in seq.values],
        "multipliers": [number_to_str(a) for a in seq.multipliers],
        "essential_indices": [number_to_str(j) for j in seq.essential_indices],
        "essential_values": [number_to_str(v) for v in seq.essential_values()],
    }


def _pairs_payload(pairs: FormalPuiseuxPairs) -> list[list[str]]:
    return [[number_to_str(q), number_to_str(p)] for q, p in pairs.pairs]


def _cmd_keyforms(args) -> dict:
    g = _generic_series(args)
    seq = compute_key_forms(g)
    return {
        "command": "keyforms",
        "phi": dps_to_str(g.phi),
        "r": number_to_str(g.r),
        "formal_pairs": _pairs_payload(formal_pairs(g)),
        **_sequence_payload(seq),
    }


def _cmd_semidegree(args) -> dict:
    g = _generic_series(args)
    f = _flag(parse_laurent, args, "f")
    return {
        "command": "semidegree",
        "f": laurent_to_str(f),
        "phi": dps_to_str(g.phi),
        "r": number_to_str(g.r),
        "value": number_to_str(semidegree_value(f, g)),
    }


def _verdict_payload(command: str, verdict) -> dict:
    payload = {
        "command": command,
        "kind": verdict.kind,
        **_sequence_payload(verdict.keyforms),
    }
    if verdict.is_algebraic:
        payload["curve"] = laurent_to_str(verdict.curve)
        payload["embedding_weights"] = [number_to_str(w) for w in verdict.embedding_weights]
        payload["essential_weights"] = [number_to_str(w) for w in verdict.essential_weights]
    else:
        payload["witness_index"] = number_to_str(verdict.witness_index)
    return payload


def _cmd_decide(args) -> dict:
    return _verdict_payload("decide", decide_algebraic(_generic_series(args)))


def _cmd_cousin(args) -> dict:
    psi = _flag(parse_dps, args, "psi")
    verdict = cousin_decide(psi, _flag(parse_rational, args, "r"))
    return _verdict_payload("cousin", verdict)


def _cmd_classify(args) -> dict:
    result = classify(_flag(parse_pairs, args, "pairs"))
    return {
        "command": "classify",
        "kind": result.kind,
        "essential_values": [number_to_str(v) for v in result.essential_values],
        "s1_failures": [number_to_str(k) for k in result.s1_failures],
        "s2_failures": [number_to_str(k) for k in result.s2_failures],
        "s2_witnesses": [{"k": number_to_str(k), "t": number_to_str(t)} for k, t in result.s2_witnesses],
    }


def _cmd_graph(args) -> dict | str:
    graph = resolution_graph(_flag(parse_pairs, args, "pairs"))
    if args.dot:
        return export_dot(graph)
    return {
        "command": "graph",
        "vertices": [
            {"name": v.name, "weight": number_to_str(v.weight), "mark": v.mark} for v in graph.vertices
        ],
        "edges": [[a, b] for a, b in graph.edges],
    }


def _cmd_witness(args) -> dict:
    pairs = _flag(parse_pairs, args, "pairs")
    build = algebraic_witness if args.kind == "algebraic" else nonalgebraic_witness
    seq = build(pairs)
    return {
        "command": "witness",
        "kind": args.kind,
        "all_polynomial": all(f.is_polynomial for f in seq.forms),
        **_sequence_payload(seq),
    }


def _cmd_batch(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot read {args.input}: {reason}") from None
    # the pool forks all its workers at the first submit, so never ask for
    # more than there are cores or lines
    workers = min(_flag(parse_count, args, "jobs"), os.cpu_count() or 1, len(lines))
    code = EXIT_OK
    for line_code, text in _line_results(lines, workers):
        sys.stdout.write(text + "\n")
        code = code or line_code  # the first failing line's code
    return code


# Each command's handler and flags: value flags (dest -> help, every one
# required unless it has a default), switches (dest -> help) and the
# allowed values of choice flags.  _line_args reads every command line
# against this table, and _usage prints it.
_SERIES = {"phi": "descending Puiseux polynomial", "r": "generic exponent (rational)"}
_PAIRS = {"pairs": "comma-separated q/p pairs"}


class _Command(NamedTuple):
    help: str
    run: Callable[[SimpleNamespace], dict | str | int]
    values: dict[str, str]
    switches: dict[str, str] = {}
    choices: dict[str, tuple[str, ...]] = {}
    defaults: dict[str, str] = {}


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
    "batch": _Command(
        "run one command per line of a file",
        _cmd_batch,
        {"input": "file of command lines", "jobs": "parallel workers, 1 if not given"},
        defaults={"jobs": "1"},
    ),
}


# commands run through this index, whose entries perfbench's self-test patches
_HANDLERS = {name: command.run for name, command in _COMMANDS.items()}


def _usage() -> str:
    """The text of -h: each command and each of its flags, with its help."""
    rows = []
    for name, command in _COMMANDS.items():
        rows.append((name, command.help))
        rows += [(f"  --{dest} " + "|".join(command.choices.get(dest, [dest.upper()])), text)
                 for dest, text in command.values.items()]
        rows += [(f"  --{dest}", text) for dest, text in command.switches.items()]
    width = max(len(left) for left, _ in rows) + 2
    return "usage: semidegree COMMAND FLAGS\n\n" + "".join(f"{left:<{width}}{text}\n" for left, text in rows)


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


def _line_args(argv: list[str]) -> SimpleNamespace | None:
    """argv read against _COMMANDS: a command, then its flags, exact, as
    ``--flag value`` or ``--flag=value``, the last of a repeated flag kept;
    None for -h or --help where a flag may stand.  Raises UsageError naming
    the command or flag at fault."""
    name = argv[0] if argv else ""
    if name in ("-h", "--help"):
        return None
    command = _COMMANDS.get(name)
    if command is None:
        raise UsageError(f"unknown command {name!r}; the commands are {', '.join(_COMMANDS)}")
    found: dict[str, object] = {**dict.fromkeys(command.switches, False), **command.defaults}
    words = iter(argv[1:])
    for token in words:
        flag, joined, value = token.partition("=")
        dest = flag[2:] if flag.startswith("--") else None
        if dest in command.values:
            if not joined:
                value = next(words, None)
                if value is None:
                    raise UsageError(f"{name}: {flag} needs a value")
            allowed = command.choices.get(dest, (value,))
            if value not in allowed:
                raise UsageError(f"{name}: {flag} must be {' or '.join(allowed)}")
            found[dest] = value
        elif dest in command.switches and not joined:
            found[dest] = True
        elif token in ("-h", "--help"):
            return None
        else:
            raise UsageError(f"{name}: unknown flag {token!r}")
    missing = [f"--{dest}" for dest in command.values if dest not in found]
    if missing:
        raise UsageError(f"{name}: missing {', '.join(missing)}")
    return SimpleNamespace(command=name, **found)


def _error_line(text: str, code: int) -> str:
    return json.dumps({"error": text, "exit_code": str(code)})


def run_line(line: str) -> tuple[int, str]:
    """Run one command line; returns (exit code, single-line JSON or error)."""
    try:
        argv = _split_line(line)
    except ValueError as exc:  # shlex's refusal of a malformed line
        return EXIT_INVALID, _error_line(str(exc), EXIT_INVALID)
    try:
        if argv and argv[0] == "batch":
            raise ParseError("batch lines may not nest", 0)
        args = _line_args(argv)
        if args is None:  # help: a batch line's only output is its result
            raise UsageError("-h")
        result = _HANDLERS[args.command](args)
        if isinstance(result, str):
            return EXIT_INVALID, _error_line("dot output is not available in batch mode", EXIT_INVALID)
        return EXIT_OK, json.dumps(result, separators=(",", ":"), default=_form_text)
    except UsageError:
        return EXIT_INVALID, _error_line("bad arguments", EXIT_INVALID)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        code = _exit_code(exc)
        return code, _error_line(_error_text(exc), code)


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
                    try:
                        yield result
                    except GeneratorExit:
                        # the writer stopped, as on a closed stdout: run no
                        # line that has not started
                        pool.shutdown(cancel_futures=True)
                        raise
            return
    yield from map(run_line, lines)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: as the signal module's note on SIGPIPE
        # does, point stdout at devnull, so that the flush at exit cannot
        # fail again, and end with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    return code


def _run(argv: list[str]) -> int:
    """Read and run a command line and write its output; its exit code."""
    try:
        args = _line_args(argv)
        result = _usage() if args is None else _HANDLERS[args.command](args)
        if isinstance(result, int):  # batch, whose lines are written
            return result
        if isinstance(result, str):
            sys.stdout.write(result)
        else:  # a key form is printed only here, as the encoder reaches it
            json.dump(result, sys.stdout, indent=2, default=_form_text)
            sys.stdout.write("\n")
    except BrokenPipeError:
        raise  # main ends the run
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes
        print(_error_text(exc), file=sys.stderr)
        return _exit_code(exc)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
