"""Command-line front end.

Human-readable output by default, ``--json`` for machine output with
stable key order and no timestamps, so identical invocations produce
byte-identical reports.  Reports go to stdout, diagnostics to stderr.

Exit codes: 0 on success with zero verifier failures, 1 on parse errors,
verifier failures or output that cannot be written, 2 when a requested
range or input length exceeds a resource limit, ``--workers`` is below
1, an option value is invalid or the command line is malformed.

The command line is read against one table, :data:`_COMMANDS`, by
argparse's rules: an option may be shortened to a unique prefix and
given its value after ``=``, the last of a repeated option wins, the
first bare ``--`` ends the options, and a token is a value, not an
option, when it does not start with '-', is a sequence or encoding text
('-' then only '+'/'-', or '-,' first), a negative number or contains a
space.  A malformed command line prints the usage line and one error
line to stderr and raises ``SystemExit(2)``; ``-h``/``--help`` prints
the usage and help lines to stdout and exits 0.

The import ends with ``gc.freeze()``: the modules live as long as the
process, so later collections stop rescanning them in whichever command
crosses a threshold, and the children a sweep forks after it leave those
pages shared.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from types import SimpleNamespace

from .lemmalab import SWEEP_TARGETS, sweep
from .search import SearchSpec, classify_odd_barker, counts_csv, enumerate_barker
from .seqcore import (
    BinarySequence,
    ParseError,
    RunLengthEncoding,
    aperiodic_autocorrelations,
    decode_text,
    encode_rle,
    is_balanced,
    packed_correlation_vectors,
    packed_rle,
    packed_skew_symmetric,
    parse_sequence,
    run_structure,
    run_vector_of,
)


#: Longest sequence ``analyze`` and ``rle`` accept; the text parsers
#: check it.  The ``analyze`` report multiplies two pairs of n-slot
#: integers, one for both autocorrelation vectors and one for the run
#: vector: a random or alternating sequence of this length takes about
#: 0.05 s (2-core VM, Python 3.11.7).
MAX_LENGTH = 10_000


def _parse_input(text: str, encoded: bool) -> tuple[str, int, RunLengthEncoding]:
    """The '+'/'-' text, the packed form and the encoding of the sequence
    that ``text``, an encoding text or not, describes."""
    if encoded:
        rle = RunLengthEncoding.from_text(text, MAX_LENGTH)
        text = decode_text(rle)
        return text, parse_sequence(text), rle
    x = parse_sequence(text, MAX_LENGTH)
    return text, x, packed_rle(x, len(text))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _fmt_vec(values) -> str:
    return " ".join(str(v) for v in values) if values else "(empty)"


def _cmd_analyze(args) -> int:
    if (args.sequence is None) == (args.rle is None):
        print("error: provide either a sequence or --rle", file=sys.stderr)
        return 1
    encoded = args.rle is not None
    text, x, rle = _parse_input(args.rle if encoded else args.sequence, encoded)
    n = len(text)
    rs = run_structure(rle)
    rv = run_vector_of(rs)
    c, c_periodic = packed_correlation_vectors(x, n)
    report = {
        "sequence": text,
        "n": n,
        "rle": rle.to_text(),
        "gamma": rle.gamma,
        "S": sorted(rs.s_set),
        "T": sorted(rs.t_set),
        "C": list(c),
        "C_periodic": list(c_periodic),
        "r_tilde": list(rv.r_tilde),
        "r": list(rv.r),
        "balanced": is_balanced(rs),
        "skew_symmetric": packed_skew_symmetric(x, n),
        "barker": all(-1 <= v <= 1 for v in c[1:n]),
    }
    if args.json:
        print(_dumps(report))
        return 0
    for key, value in report.items():
        if isinstance(value, list):
            value = _fmt_vec(value)
        elif isinstance(value, bool):
            value = "yes" if value else "no"
        print(f"{key:<15} {value}")
    return 0


def _cmd_rle(args) -> int:
    # an encoding always contains a comma; a bare sequence never does
    encoded = "," in args.input
    text, _, rle = _parse_input(args.input, encoded)
    if args.json:
        print(_dumps({"sequence": text, "rle": rle.to_text()}))
    else:
        print(text if encoded else rle.to_text())
    return 0


def _parse_targets(text: str) -> tuple[str, ...]:
    """The stripped, case-folded names of ``text``, each known one in its
    :data:`SWEEP_TARGETS` spelling; ``sweep`` checks the list."""
    lookup = {name.lower(): name for name in SWEEP_TARGETS}
    names = [token.strip().lower() for token in text.split(",")]
    return tuple([lookup.get(name, name) for name in names if name])


def _cmd_verify(args) -> int:
    report = sweep(args.max_n, _parse_targets(args.targets), workers=args.workers)
    if args.json:
        print(_dumps(report.to_json()))
    else:
        print(f"{'target':<10} {'n':>3} {'population':>11} {'hyp_met':>9} {'failures':>9}")
        for rec in report.records:
            print(
                f"{rec.target:<10} {rec.n:>3} {rec.population:>11} "
                f"{rec.hypotheses_met_count:>9} {rec.failure_count:>9}"
            )
        status = "ok" if report.ok else "FAILED"
        print(f"{status}: {len(report.records)} records, max n {args.max_n}")
    return 0 if report.ok else 1


def _search_record(seq: BinarySequence) -> dict:
    return {
        "n": seq.n,
        "sequence": seq.to_text(),
        "rle": encode_rle(seq).to_text(),
        "C": list(aperiodic_autocorrelations(seq)),
        "verdict": "barker",
    }


def _cmd_search(args) -> int:
    spec = SearchSpec(
        n_min=args.min_n, n_max=args.max_n, mode=args.mode, normalize=args.normalize
    )
    found = enumerate_barker(spec)
    if args.json:
        for seq in found:
            print(_dumps(_search_record(seq)))
    else:
        for seq in found:
            print(f"n={seq.n:<3} {seq.to_text()}  rle={encode_rle(seq).to_text()}")
        print(f"{len(found)} sequence(s) in [{args.min_n}, {args.max_n}] ({args.mode} mode)")
    return 0


def _cmd_classify(args) -> int:
    report = classify_odd_barker(args.max_n)
    if args.csv:
        try:
            with open(args.csv, "w") as out:
                out.write(counts_csv(report))
        except OSError as err:
            print(f"error: cannot write {args.csv}: {err.strerror or err}", file=sys.stderr)
            return 1
    if args.json:
        print(_dumps(report.to_json()))
        return 0
    print(f"{'n':>3} {'count':>6}  normalized rle(s)")
    for n in sorted(report.counts):
        rles = report.normalized_rles.get(n, ())
        shown = " ".join(rle.to_text() for rle in rles) if rles else "-"
        print(f"{n:>3} {report.counts[n]:>6}  {shown}")
    for check in report.checks:
        print(
            f"check n={check['n']} {check['rle']}: structure_ok={check['structure_ok']} "
            f"n<=bound({check['length_bound']})={check['length_bound_ok']}"
        )
    for note in report.notes:
        print(f"note: {note}")
    return 0


#: command -> (handler, help line, arguments).  An argument maps its name
#: to (type, default): a name without dashes is a positional, type ``bool``
#: makes a flag and the default ``...`` marks a required argument.
_COMMANDS = {
    "analyze": (_cmd_analyze, "full report for one sequence or encoding",
                {"sequence": (str, None), "--rle": (str, None), "--json": (bool, False)}),
    "rle": (_cmd_rle, "convert between a sequence and its encoding",
            {"input": (str, ...), "--json": (bool, False)}),
    "verify": (_cmd_verify, f"run verifier sweeps; targets {','.join(SWEEP_TARGETS)}",
               {"--targets": (str, ...), "--max-n": (int, ...), "--workers": (int, 1),
                "--json": (bool, False)}),
    "search": (_cmd_search, "enumerate Barker sequences of odd length; --mode full or skew",
               {"--min-n": (int, 1), "--max-n": (int, ...), "--mode": (str, "full"),
                "--normalize": (bool, False), "--workers": (int, 1), "--json": (bool, False)}),
    "classify": (_cmd_classify, "classify odd Barker encodings up to a length",
                 {"--max-n": (int, ...), "--csv": (str, None), "--workers": (int, 1),
                  "--json": (bool, False)}),
}


def _usage(command: str, error: str = ""):
    """Print usage and ``error`` to stderr and exit 2, or usage and help to stdout, exit 0."""
    usage = f"usage: runvec {command or '{' + ','.join(_COMMANDS) + '}'} [-h]"
    for name, (kind, default) in (_COMMANDS[command][2] if command else {}).items():
        word = name if kind is bool or name[0] != "-" else f"{name} {name[2:].upper()}"
        usage += f" {word}" if default is ... else f" [{word}]"
    if error:
        print(usage, f"runvec {command}".rstrip() + f": error: {error}", sep="\n", file=sys.stderr)
        raise SystemExit(2)
    rows = [f"  {name:<10}{about}" for name, (_, about, _) in _COMMANDS.items()
            if command in ("", name)]
    print(usage, "", *rows, sep="\n")
    raise SystemExit(0)


def _is_value(token: str) -> bool:
    """Whether ``token`` is a value, not an option: a '+' text, a '-' text of
    a sequence or encoding, a negative number or a text with a space."""
    return (token[:1] != "-" or token[:2] == "-," or not token.strip("+-") or " " in token
            or re.match(r"-\d+$|-\d*\.\d+$", token) is not None)


def _read_argv(argv: list[str]):
    """The handler and the arguments ``argv`` asks for, by the rules of the module docstring."""
    command = argv[0] if argv and argv[0] in _COMMANDS else ""
    handler, _, spec = _COMMANDS.get(command, (None, None, {}))
    args, values, extras = {name: default for name, (_, default) in spec.items()}, [], []
    # with no command, argv[0] can only ask for help or be the error
    names, tokens = ["-h", "--help", *spec], iter(argv[1:] if command else argv[:1])
    positionals = [name for name in spec if name[0] != "-"]
    for token in tokens:
        name, sep, value = token.partition("=")
        found = [name] if name in names else [
            n for n in names if name[:2] == "--" and n.startswith(name)]
        if token == "--":
            values += tokens  # the first "--" ends the options; the rest are values
        elif _is_value(token):
            (values if len(values) < len(positionals) else extras).append(token)
        elif len(found) > 1:
            _usage(command, f"ambiguous option: {token} could match {', '.join(found)}")
        elif not found:
            extras.append(token)
        else:
            name, value = found[0], value if sep else None
            kind = spec[name][0] if name in spec else bool  # or -h, --help
            if kind is not bool and value is None:
                value = next(tokens, "--")
                if value == "--" or not _is_value(value):
                    _usage(command, f"argument {name}: expected one argument")
            if kind is bool and value is not None:
                _usage(command, f"argument {name}: ignored explicit argument {value!r}")
            if name not in spec:
                _usage(command)
            try:
                args[name] = True if kind is bool else kind(value)
            except ValueError:
                _usage(command, f"argument {name}: invalid int value: {value!r}")
    if not command:  # the usage line names the commands
        _usage("", f"argument command: invalid choice: {extras[0]!r}" if extras
               else "the following arguments are required: command")
    args.update(zip(positionals, values))
    missing = [name for name, value in args.items() if value is ...]
    extras += values[len(positionals):]
    if missing or extras:
        _usage(command, f"the following arguments are required: {', '.join(missing)}" if missing
               else f"unrecognized arguments: {' '.join(extras)}")
    return handler, SimpleNamespace(**{n.lstrip("-").replace("-", "_"): v for n, v in args.items()})


def main(argv=None) -> int:
    handler, args = _read_argv(sys.argv[1:] if argv is None else list(argv))
    if getattr(args, "workers", 1) < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; let that go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before the report was written", file=sys.stderr)
        return 1
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


gc.freeze()  # see the module docstring

if __name__ == "__main__":
    sys.exit(main())
