"""Command-line front end.

Human-readable output by default, ``--json`` for machine output with
stable key order and no timestamps, so identical invocations produce
byte-identical reports.  Reports go to stdout, diagnostics to stderr.

Exit codes: 0 on success with zero verifier failures, 1 on parse errors,
verifier failures or output that cannot be written, 2 when a requested
range or input length exceeds a resource limit, ``--workers`` is below
1, an option value is invalid or argparse rejects the command line.

A sequence or encoding text that starts with '-' is read as a value
wherever a '+' text would be (:class:`_Parser`); a bare ``--`` stays
the end-of-options marker.

The argument parser is built on the first :func:`main` call and reused
by every later one, because a build costs about twenty parses.
``set_defaults`` binds the ``_cmd_*`` handlers at build time, so a test
that patches one must call ``_build_parser.cache_clear()``.

Start-up costs are paid at import, none by the first command.  argparse
imports ``locale`` and, on 3.10, 3.12 and 3.13, ``shutil`` with
``bz2``/``lzma``/``zlib`` on its first parser build.  Nothing else here
loads them, since :mod:`runvec.lemmalab` imports its process pool only
when a sweep starts one, so this module imports both up front.  The
first build ends with ``gc.freeze()``: the modules and the parser live
as long as the process, so later collections stop rescanning them in
whichever command crosses a threshold, and pool workers forked after it
leave those pages shared.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import locale  # for argparse, see the module docstring
import os
import shutil  # for argparse, see the module docstring
import sys
from pathlib import Path

from .lemmalab import SWEEP_LIMITS, SWEEP_TARGETS, sweep
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
    lookup = {name.lower(): name for name in SWEEP_TARGETS}
    targets = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in lookup:
            raise ValueError(
                f"unknown verify target {token!r}; choose from {', '.join(SWEEP_TARGETS)}"
            )
        targets.append(lookup[token])
    if not targets:
        raise ValueError("no verify targets given")
    return tuple(targets)


def _cmd_verify(args) -> int:
    targets = _parse_targets(args.targets)
    for target in targets:
        cap = SWEEP_LIMITS[target]
        if args.max_n > cap:
            print(
                f"error: target {target} limited to n <= {cap}, requested {args.max_n}",
                file=sys.stderr,
            )
            return 2
    report = sweep(args.max_n, targets, workers=args.workers)
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
            Path(args.csv).write_text(counts_csv(report))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``runvec`` parser, built on the first call and shared by every
    later :func:`main` call: building takes 1.2-1.5 ms, a parse with it
    0.05-0.07 ms (timeit, 2-core VM, Python 3.11.7).  ``set_defaults``
    binds the ``_cmd_*`` handlers here, so a test that patches one must
    call ``_build_parser.cache_clear()``.  The build ends with
    ``gc.freeze()``, which moves every object alive then out of the
    collector's generations."""
    parser = _Parser(
        prog="runvec",
        description="Run-vector analysis, verification sweeps, and Barker search "
        "for binary sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one sequence or encoding")
    p.add_argument("sequence", nargs="?", help="sequence as a '+-' string")
    p.add_argument("--rle", help="encoding as '<sign>,r1,r2,...'")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("rle", help="convert between sequence and encoding text")
    p.add_argument("input", help="'+-' string or '<sign>,r1,r2,...'")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_rle)

    p = sub.add_parser("verify", help="run verifier sweeps over full populations")
    p.add_argument(
        "--targets",
        required=True,
        help=f"comma-separated from: {', '.join(SWEEP_TARGETS)}",
    )
    p.add_argument("--max-n", type=int, required=True, help="largest length to sweep")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="enumerate Barker sequences of odd length")
    p.add_argument("--min-n", type=int, default=1)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--mode", choices=("full", "skew"), default="full")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="one representative per negation/reversal orbit",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true", help="JSON lines output")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("classify", help="classify odd Barker encodings up to a length")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--csv", help="also write per-length counts CSV to this path")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_classify)
    # the imported modules and this parser live as long as the process
    gc.freeze()
    return parser


def _is_input_text(token: str) -> bool:
    """A sequence or encoding text that argparse would read as an option:
    '-' then only '+'/'-', or an encoding that starts '-,'.  A bare
    ``--`` is argparse's end-of-options marker, never a sequence."""
    if token.startswith("-,"):
        return True
    return token.startswith("-") and token != "--" and not token.strip("+-")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads each token :func:`_is_input_text`
    accepts as a value, wherever a '+' text would be read.

    argparse decides whether a token is an option in the private
    ``_parse_optional`` hook, which returns ``None`` for a value, and
    offers no public switch for that decision, so this class overrides
    the hook.  Subparsers are built from the same class.  Checked on
    CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0."""

    def _parse_optional(self, arg_string):
        if _is_input_text(arg_string):
            return None
        return super()._parse_optional(arg_string)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
