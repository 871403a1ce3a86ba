"""Command-line behaviour: outputs, exit codes, determinism."""

import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from runvec import cli, lemmalab
from runvec.cli import MAX_LENGTH, main
from runvec.search import classify_odd_barker, find_barker_sequences

from oracles import (
    all_sign_tuples,
    brute_aperiodic,
    brute_is_balanced,
    brute_is_barker,
    brute_is_skew_symmetric,
    brute_periodic,
    brute_prefix_structure,
    brute_run_vector,
    brute_runs,
)


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one ``main`` call, usage errors too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_barker7_human(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "+++--+-")
        assert code == 0 and err == ""
        assert "barker          yes" in out
        assert "rle             +,3,2,1,1" in out

    def test_barker7_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "+++--+-", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["barker"] is True
        assert report["rle"] == "+,3,2,1,1"
        assert report["r_tilde"] == [-1, 1, -1, 1, -1, -3]

    def test_json_key_set(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "+++--+-", "--json")
        assert set(json.loads(out)) == {
            "sequence", "n", "rle", "gamma", "S", "T", "C", "C_periodic",
            "r_tilde", "r", "balanced", "skew_symmetric", "barker",
        }
        _, out, _ = run_cli(capsys, "rle", "+,3,2,1,1", "--json")
        assert set(json.loads(out)) == {"rle", "sequence"}

    def test_single_element(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "+", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 1
        assert report["C"] == [1, 0]
        assert report["r_tilde"] == [] and report["r"] == []
        assert report["barker"] is True

    def test_rle_input(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--rle", "+,3,2,2,1,1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["barker"] is False
        assert report["r_tilde"][5] == -1

    def test_parse_error_exit_and_position(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "++x-")
        assert code == 1
        assert out == ""  # no partial report on stdout
        assert "position 2" in err

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run_cli(capsys, "analyze")
        assert code == 1 and "provide either" in err
        code, _, err = run_cli(capsys, "analyze", "++-", "--rle", "+,2,1")
        assert code == 1


def _encoding_of(text):
    return ",".join([text[0]] + [str(r) for r in brute_runs(text)])


class TestAnalyzeMatchesOracles:
    """Every field of ``analyze --json`` against the first-principles
    oracles, for one seeded random sequence of each length 1..300, given
    bare and as an encoding."""

    def test_every_field_every_length_to_300(self, capsys):
        rng = random.Random(1501)
        for n in range(1, 301):
            text = "".join(rng.choice("+-") for _ in range(n))
            elems = tuple([1 if ch == "+" else -1 for ch in text])
            runs = brute_runs(elems)
            _, _, s_set, t_set = brute_prefix_structure(runs)
            r_tilde = brute_run_vector(runs)
            sign_gamma = -1 if len(runs) % 2 else 1
            want = {
                "sequence": text,
                "n": n,
                "rle": _encoding_of(text),
                "gamma": len(runs),
                "S": sorted(s_set),
                "T": sorted(t_set),
                "C": list(brute_aperiodic(elems)),
                "C_periodic": list(brute_periodic(elems)),
                "r_tilde": list(r_tilde),
                "r": [sign_gamma * r_tilde[n - k - 1] for k in range(1, n)],
                "balanced": brute_is_balanced(runs),
                "skew_symmetric": brute_is_skew_symmetric(elems),
                "barker": brute_is_barker(elems),
            }
            bare = run_cli(capsys, "analyze", text, "--json")
            assert bare[0] == 0 and bare[2] == ""
            assert json.loads(bare[1]) == want, n
            assert run_cli(capsys, "analyze", "--rle", _encoding_of(text), "--json") == bare

    @pytest.mark.parametrize("n", [126, 127, 128, 129])
    def test_constant_and_alternating_across_the_slot_switch(self, capsys, n):
        # C and C_periodic come from 8-bit product slots up to n = 127; the
        # constant sequence has P_k = n, the alternating one |P_k| = n for even n
        for text in ("+" * n, "-" * n, ("+-" * n)[:n], ("-+" * n)[:n]):
            elems = tuple([1 if ch == "+" else -1 for ch in text])
            code, out, _ = run_cli(capsys, "analyze", "--rle", _encoding_of(text), "--json")
            report = json.loads(out)
            assert code == 0 and report["sequence"] == text
            assert report["C"] == list(brute_aperiodic(elems))
            assert report["C_periodic"] == list(brute_periodic(elems))


class TestRleCommand:
    def test_encode_direction(self, capsys):
        code, out, _ = run_cli(capsys, "rle", "+++--+-")
        assert code == 0 and out.strip() == "+,3,2,1,1"

    def test_decode_direction(self, capsys):
        code, out, _ = run_cli(capsys, "rle", "+,5,2,2,1,1,1,1")
        assert code == 0 and out.strip() == "+++++--++-+-+"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "rle", "++-", "--json")
        assert json.loads(out) == {"sequence": "++-", "rle": "+,2,1"}

    def test_bad_run_length(self, capsys):
        code, _, err = run_cli(capsys, "rle", "+,3,0,1")
        assert code == 1 and "position 4" in err

    @pytest.mark.parametrize("digit", ["\u00b2", "\u00b3", "\u2460", "\u2466"])
    def test_non_ascii_digit_run_is_a_parse_error(self, capsys, digit):
        # '²', '³', '①', '⑦' satisfy str.isdigit(); they must exit 1, not 2
        code, out, err = run_cli(capsys, "rle", f"+,{digit},1")
        assert code == 1 and out == "" and "position 2" in err
        code, out, err = run_cli(capsys, "analyze", f"--rle=+,3,{digit}", "--json")
        assert code == 1 and out == "" and "position 4" in err


class TestLeadingMinus:
    """Texts that start with '-' reach analyze and rle bare, as they do
    after the ``--`` marker or in ``--rle=`` form."""

    def test_every_text_to_8_bare_equals_escaped(self, capsys):
        for n in range(1, 9):
            for elems in all_sign_tuples(n):
                text = "".join("+" if x == 1 else "-" for x in elems)
                enc = ",".join([text[0]] + [str(r) for r in brute_runs(elems)])
                pairs = [
                    (("analyze", "--json", "--rle", enc), ("analyze", "--json", f"--rle={enc}")),
                    (("rle", enc, "--json"), ("rle", "--json", "--", enc)),
                ]
                if text != "--":  # a bare "--" is the end-of-options marker
                    pairs += [
                        (("analyze", "--json", text), ("analyze", "--json", "--", text)),
                        (("rle", text, "--json"), ("rle", "--json", "--", text)),
                    ]
                for bare, escaped in pairs:
                    want = run_cli(capsys, *escaped)
                    assert want[0] == 0 and want[2] == ""
                    assert run_cli(capsys, *bare) == want, bare
                    assert json.loads(want[1])["sequence"] == text

    def test_two_minus_sequence_is_written_after_the_marker(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--json", "--", "--")
        assert code == 0 and json.loads(out)["rle"] == "-,2"
        assert run_cli(capsys, "rle", "--", "--") == (0, "-,2\n", "")
        assert run_cli(capsys, "analyze", "--rle", "-,2") == run_cli(capsys, "analyze", "--", "--")
        code, out, err = run_cli(capsys, "analyze", "--")
        assert (code, out) == (1, "") and "provide either" in err
        with pytest.raises(SystemExit) as exc:
            main(["rle", "--"])
        assert exc.value.code == 2
        assert "required: input" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("-,2,x", "error: expected a positive run length, got 'x' at position 4\n"),
            ("-,0", "error: expected a positive run length, got '0' at position 2\n"),
            ("-,2,\u00b2", "error: expected a positive run length, got '\u00b2' at position 4\n"),
            ("-,", "error: expected a positive run length, got '' at position 2\n"),
        ],
    )
    def test_malformed_encoding_gives_the_escaped_parse_error(self, capsys, text, message):
        escaped = [("rle", "--", text), ("analyze", f"--rle={text}")]
        bare = [("rle", text), ("analyze", "--rle", text)]
        for argv in escaped + bare:
            assert run_cli(capsys, *argv) == (1, "", message), argv

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("analyze", "-+x"), "unrecognized arguments: -+x"),
            (("rle", "-2,1"), "the following arguments are required: input"),
            (("rle", "-x"), "the following arguments are required: input"),
        ],
    )
    def test_other_dash_tokens_stay_options(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_dash_text_parses_like_its_negation(self, capsys):
        texts = ["-++", "-,2,1", "-", "---", "-,x"]
        tokens = texts + ["--json", "--rle", "--rl", "--"]
        negate = str.maketrans("+-", "-+")
        for command in ("analyze", "rle"):
            for size in (1, 2, 3):
                for rest in itertools.product(tokens, repeat=size):
                    negated = [t.translate(negate) if t in texts else t for t in rest]
                    codes = []
                    for argv in (rest, negated):
                        code, _, err = run_cli(capsys, command, *argv)
                        assert code == 0 or "error:" in err, argv
                        codes.append(code)
                    assert codes[0] == codes[1], rest


class TestLengthCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("rle", "+,1000000000"),
            ("analyze", "--rle=+,1000000000", "--json"),
            ("analyze", f"--rle=+,{MAX_LENGTH // 2},{MAX_LENGTH // 2 + 1}"),
            ("rle", "+" * (MAX_LENGTH + 1)),
            ("analyze", "+" * (MAX_LENGTH + 1), "--json"),
            ("rle", "+" + ",1" * (MAX_LENGTH + 1)),  # refused before parsing
            ("analyze", "--rle=+," + "9" * 5000),  # a run too long to convert
        ],
    )
    def test_over_cap_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert " limited to " in err
        if argv[-1].endswith("9" * 5000):
            # the length cap, not int()'s 4300-digit conversion limit
            assert err == (
                f"error: sequence length limited to n <= {MAX_LENGTH}, "
                "got a run of 5000 digits\n"
            )

    def test_leading_zeros_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "rle", "+,0003")
        assert code == 0 and out == "+++\n"
        code, out, _ = run_cli(capsys, "analyze", "--rle=-," + "0" * 5000 + "2,1", "--json")
        assert code == 0 and json.loads(out)["sequence"] == "--+"

    def test_at_cap_accepted(self, capsys):
        half = MAX_LENGTH // 2
        code, out, _ = run_cli(capsys, "rle", f"+,{half},{MAX_LENGTH - half}")
        assert code == 0 and out == "+" * half + "-" * (MAX_LENGTH - half) + "\n"
        code, out, _ = run_cli(capsys, "rle", "+" + ",1" * MAX_LENGTH)
        assert code == 0 and out == "+-" * (MAX_LENGTH // 2) + "\n"
        code, out, _ = run_cli(capsys, "rle", "+" * MAX_LENGTH)
        assert code == 0 and out == f"+,{MAX_LENGTH}\n"


class TestVerify:
    def test_theorem1_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--targets", "theorem1", "--max-n", "8")
        assert code == 0
        assert "ok:" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--targets", "L1,L5", "--max-n", "9", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True and report["complete"] is True
        assert {rec["target"] for rec in report["records"]} == {"L1", "L5"}

    def test_unknown_target_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--targets", "nope", "--max-n", "5")
        assert code == 2 and out == ""
        assert err == (
            "error: unknown sweep target 'nope'; choose from theorem1, delta, prop-skew, "
            "L1, L2, L3, L4, L5, L6, L7, L7n, p-odd\n"
        )
        code, out, err = run_cli(capsys, "verify", "--targets", " , ,", "--max-n", "5")
        assert code == 2 and out == ""
        assert err == "error: no sweep targets given\n"

    def test_target_names_are_case_folded(self, capsys):
        folded = run_cli(capsys, "verify", "--targets", " l1,P-ODD ,Theorem1,l7N", "--max-n", "7")
        plain = run_cli(capsys, "verify", "--targets", "L1,p-odd,theorem1,L7n", "--max-n", "7")
        assert folded == plain and plain[0] == 0
        code, out, _ = run_cli(
            capsys, "verify", "--targets", "PROP-SKEW,l6", "--max-n", "5", "--json"
        )
        assert code == 0 and json.loads(out)["targets"] == ["prop-skew", "L6"]

    def test_over_limit_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--targets", "theorem1", "--max-n", "99"
        )
        assert code == 2 and out == ""
        assert err == "error: target theorem1 limited to n <= 18, requested 99\n"
        code, out, err = run_cli(capsys, "verify", "--targets", "L1", "--max-n", "31")
        assert code == 2 and out == ""
        assert err == "error: target L1 limited to n <= 29, requested 31\n"
        code, out, err = run_cli(
            capsys, "verify", "--targets", "L1,theorem1", "--max-n", "20", "--json"
        )
        assert code == 2 and out == ""
        assert err == "error: target theorem1 limited to n <= 18, requested 20\n"


class TestSearch:
    def test_n3_full_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--min-n", "3", "--max-n", "3", "--mode", "full", "--json"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [rec["sequence"] for rec in lines] == ["++-", "+--", "-++", "--+"]
        assert all(rec["verdict"] == "barker" for rec in lines)
        assert lines[0]["C"] == [3, 0, -1, 0]
        assert lines[0]["rle"] == "+,2,1"

    def test_skew_high_range_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--min-n", "15", "--max-n", "21", "--mode", "skew", "--json"
        )
        assert code == 0 and out == ""

    def test_over_limit_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--min-n", "3", "--max-n", "47", "--mode", "full"
        )
        assert code == 2 and out == ""
        assert err == "error: full-mode search limited to n <= 45, requested 47\n"
        code, out, err = run_cli(capsys, "search", "--max-n", "47", "--mode", "skew", "--json")
        assert code == 2 and out == ""
        assert err == "error: skew-mode search limited to n <= 45, requested 47\n"

    @pytest.mark.parametrize("flag", ["--limit-full", "--limit-skew"])
    def test_no_option_raises_a_cap(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--max-n", "27", flag, "27"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {flag} 27" in captured.err

    def test_bad_range_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "search", "--min-n", "9", "--max-n", "3", "--mode", "full"
        )
        assert code == 2 and "bad length range" in err


class TestClassify:
    def test_the_five(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--max-n", "13", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["normalized_rles"] == {
            "3": ["+,2,1"],
            "5": ["+,3,1,1"],
            "7": ["+,3,2,1,1"],
            "11": ["+,3,3,1,2,1,1"],
            "13": ["+,5,2,2,1,1,1,1"],
        }
        assert report["counts"]["9"] == 0

    def test_csv_export(self, capsys, tmp_path):
        target = tmp_path / "counts.csv"
        code, _, _ = run_cli(capsys, "classify", "--max-n", "5", "--csv", str(target))
        assert code == 0
        assert target.read_text() == "n,barker_count\n1,2\n3,4\n5,4\n"

    def test_over_limit_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--max-n", "47")
        assert code == 2 and out == ""
        assert err == "error: skew-mode search limited to n <= 45, requested 47\n"

    def test_below_one_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--max-n", "0")
        assert code == 2 and out == ""
        assert err == "error: bad length range [1, 0]\n"


class TestWorkersFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--targets", "L1", "--max-n", "5"),
            ("search", "--max-n", "5"),
            ("classify", "--max-n", "5"),
        ],
    )
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_below_one_exit_2(self, capsys, argv, workers):
        code, out, err = run_cli(capsys, *argv, "--workers", workers)
        assert code == 2 and out == ""
        assert err == f"error: --workers must be >= 1, got {workers}\n"


class TestOutputErrors:
    def test_csv_under_missing_directory_exit_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "counts.csv"
        code, out, err = run_cli(capsys, "classify", "--max-n", "5", "--csv", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_sweep_child_without_result_exit_1(self, capsys, monkeypatch):
        # a forked sweep child that ends before it writes its result, as
        # an out-of-memory kill ends it: one error line, no traceback
        caller = os.getpid()
        real = lemmalab._sweep_sequences

        def dying(n, targets):
            if os.getpid() != caller:
                os._exit(9)
            return real(n, targets)

        monkeypatch.setattr(lemmalab.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(lemmalab, "_sweep_sequences", dying)
        code, out, err = run_cli(
            capsys, "verify", "--targets", "theorem1", "--max-n", "8", "--workers", "2"
        )
        assert code == 1 and out == ""
        assert err == "error: a sweep process ended without a result (exit status 9)\n"

    def test_broken_pipe_exit_1(self, capsys, monkeypatch, tmp_path):
        # a reader that went away: every write fails, and the descriptor
        # behind the stream is a scratch file the handler may redirect
        with open(tmp_path / "stdout", "w") as backing:

            class ClosedPipe(io.TextIOBase):
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return backing.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(["search", "--min-n", "3", "--max-n", "7", "--json"])
            monkeypatch.undo()
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


#: Command lines at the corners of the argv rules: (argv, exit code, want).
#: The exit codes are those argparse gave on Python 3.10 to 3.13.  A row
#: that succeeds gives as ``want`` the escaped form of the same request,
#: which must print the same; a failing row gives a substring of its stderr.
ARGV_CORNERS = [
    # a unique prefix names its option; an ambiguous one is an error
    (("analyze", "--rl", "+,3,2,1,1", "--js"), 0, ("analyze", "--json", "--rle=+,3,2,1,1")),
    (("rle", "--js", "-++"), 0, ("rle", "--json", "--", "-++")),
    (("analyze", "--rl=-,2,1", "--js"), 0, ("analyze", "--json", "--rle=-,2,1")),
    (("search", "--max", "5", "--mo", "skew"), 0, ("search", "--max-n", "5", "--mode", "skew")),
    (("search", "--m", "5"), 2, "ambiguous option: --m could match --min-n, --max-n, --mode"),
    # '=' gives a value to an option that takes one, and to no flag
    (("search", "--max-n=5", "--json"), 0, ("search", "--max-n", "5", "--json")),
    (("analyze", "--json=1", "+++"), 2, "argument --json: ignored explicit argument '1'"),
    (("search", "--max-n", "5", "--normalize=1"), 2, "ignored explicit argument '1'"),
    # the last of a repeated option wins
    (("analyze", "--rle", "+,2", "--rle", "-,3", "--json"), 0, ("analyze", "--json", "--rle=-,3")),
    (
        ("search", "--max-n", "3", "--mode", "full", "--max-n", "5", "--mode", "skew"),
        0,
        ("search", "--max-n", "5", "--mode", "skew"),
    ),
    # a negative number is a value: it reaches the --workers check, or
    # is one positional too many
    (("search", "--max-n", "5", "--workers=-1"), 2, "error: --workers must be >= 1, got -1"),
    (("search", "--max-n", "5", "--workers", "-1"), 2, "error: --workers must be >= 1, got -1"),
    (("search", "--max-n", "5", "-1"), 2, "unrecognized arguments: -1"),
    # the first bare '--' ends the options and is dropped; a later one is a value
    (("analyze", "++", "--"), 0, ("analyze", "--", "++")),
    (("rle", "--", "++", "--"), 2, "unrecognized arguments: --"),
    (("analyze", "--", "--json"), 1, "error: "),
    # a missing required argument is reported before an unrecognized one
    (("rle", "-x"), 2, "the following arguments are required: input"),
    (("verify", "--json"), 2, "the following arguments are required: --targets, --max-n"),
    # values that are missing or invalid
    (("analyze", "--rle"), 2, "argument --rle: expected one argument"),
    (("classify", "--max-n", "3", "--csv"), 2, "argument --csv: expected one argument"),
    (("analyze", "--rle", "--json"), 2, "argument --rle: expected one argument"),
    (("search", "--max-n", "x"), 2, "argument --max-n: invalid int value: 'x'"),
    (("search", "--max-n", "5", "--mode", "both"), 2, "'both'"),
    # the command itself
    (("frobnicate",), 2, "invalid choice: 'frobnicate'"),
    ((), 2, "error: "),
    (("rle", "a", "b"), 2, "unrecognized arguments: b"),
]


class TestArgvCorners:
    @pytest.mark.parametrize("argv,code,want", ARGV_CORNERS)
    def test_exit_code_and_output(self, capsys, argv, code, want):
        got = run_cli(capsys, *argv)
        assert got[0] == code
        if code == 0:
            assert got == run_cli(capsys, *want)
        else:
            assert got[1] == "" and want in got[2]
            assert len([line for line in got[2].splitlines() if "error:" in line]) == 1


class TestSharedParser:
    """``main`` calls in one process share no argument state."""

    #: Calls that must not see each other: the value of the first ``--rle``
    #: must not reach the bare ``analyze``.
    ARGVS = [
        ("analyze", "--rle", "+,3,2,1,1"),
        ("analyze", "+++--+-"),
        ("search",),  # usage error: --max-n is required
        ("search", "--max-n", "5", "--workers", "0"),
        ("analyze", "++", "--rle", "+,2"),
        ("rle", "-++"),  # a dash text, read as a value
        ("verify", "--targets", "theorem1", "--max-n", "4", "--json"),
        ("analyze", "--json", "--rle", "-,1,2"),
        ("rle", "+,2,1", "--json"),
    ]

    def test_no_state_leaks_between_calls(self, capsys):
        forward = [run_cli(capsys, *argv) for argv in self.ARGVS]
        backward = [run_cli(capsys, *argv) for argv in reversed(self.ARGVS)][::-1]
        assert forward == backward
        codes = [code for code, _, _ in forward]
        assert codes == [0, 0, 2, 2, 1, 0, 0, 0, 0]
        # one sequence as encoding, then bare: the --rle default was reset
        assert forward[0] == forward[1] and "barker          yes" in forward[1][1]
        assert "required: --max-n" in forward[2][2]
        assert forward[5] == (0, "-,1,2\n", "")


class TestStartup:
    """Importing the CLI loads no process-pool module and neither
    :mod:`dataclasses` nor :mod:`inspect`, neither the import nor the
    commands add the modules argparse needs, the first commands of a
    process import nothing new, and a sweep that forks loads neither
    ``concurrent.futures.process`` nor ``multiprocessing``."""

    SCRIPT = """
import contextlib, io, json, sys
snapshot = set(sys.modules)  # a site hook may have loaded some already
from runvec import cli
def unwanted():
    return sorted(m for m in sys.modules
                  if m in ("concurrent.futures.process", "dataclasses", "inspect")
                  or m.startswith("multiprocessing"))
def for_argparse():
    return sorted((set(sys.modules) - snapshot)
                  & {"argparse", "gettext", "locale", "shutil", "pathlib"})
at_import, argparse_at_import = unwanted(), for_argparse()
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"at_import": at_import, "after": unwanted(), "codes": codes,
                  "new": sorted(set(sys.modules) - before),
                  "argparse_at_import": argparse_at_import, "argparse_after": for_argparse()}))
"""
    ARGVS = [
        ["search", "--mode", "full", "--max-n", "13", "--json"],
        ["analyze", "+++--+-", "--json"],
        ["rle", "-++"],
        ["verify", "--targets", "theorem1,L1", "--max-n", "5", "--workers", "1"],
        ["classify", "--max-n", "13"],
    ]

    def report(self, argvs):
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        return json.loads(result.stdout)

    def test_no_pool_import_and_no_lazy_imports(self):
        report = self.report(self.ARGVS)
        assert report["at_import"] == []
        assert report["after"] == []
        assert report["codes"] == [0] * len(self.ARGVS)
        assert report["new"] == []
        assert report["argparse_at_import"] == [] and report["argparse_after"] == []

    def test_forked_sweep_loads_no_pool_module(self):
        # a sweep that forks imports pickle, so only the pool modules are
        # checked here, apart from the other commands' import diet
        argv = ["verify", "--targets", "theorem1,L1", "--max-n", "9", "--workers", "2"]
        report = self.report([argv])
        assert report["codes"] == [0]
        assert report["after"] == []


class TestProcessExit:
    """``python -m runvec.cli``: the exit code and streams a shell sees."""

    def run(self, *argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "runvec.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )

    @pytest.mark.parametrize("argv", [("--help",), ("analyze", "-h")])
    def test_help_exit_0(self, argv):
        result = self.run(*argv)
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout.startswith("usage: runvec")

    def test_usage_error_exit_2(self):
        result = self.run("search", "--max-n", "x")
        assert result.returncode == 2 and result.stdout == ""
        assert len([line for line in result.stderr.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in result.stderr


#: A fixed 200-element sequence: '-' at the quadratic non-residues mod 211.
SEQ_200 = "".join("-" if pow(i, 105, 211) == 210 else "+" for i in range(1, 201))


def _random_text(n):
    """A length-n '+-' text drawn from a generator seeded with n."""
    bits = random.Random(n).getrandbits(n)
    return "".join(["-" if (bits >> i) & 1 else "+" for i in range(n)])


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "+++--+-", "--json"),
            ("verify", "--targets", "L1,L7", "--max-n", "11", "--json"),
            ("search", "--min-n", "3", "--max-n", "7", "--mode", "full", "--json"),
            ("classify", "--max-n", "7", "--json"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert first  # non-empty

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("verify", "--targets", "theorem1,delta,prop-skew", "--max-n", "10", "--json"),
                "f914e8b2165359284e22a8b47f8ff0a33bf2c6a1f7c2f851d8af7198662a9f37",
            ),
            (
                ("analyze", SEQ_200, "--json"),
                "777d3360ff9a16cae520006a2559f65c04f4975cc3d8d7547168dd5ed2c81e36",
            ),
            (
                ("search", "--mode", "skew", "--min-n", "1", "--max-n", "37", "--json"),
                "4bcfbf6a8fc5911c1d7e8d1f63a6cea73191827031e3cb5efb6ead54c08ceef6",
            ),
            (
                ("search", "--mode", "full", "--min-n", "1", "--max-n", "19", "--json"),
                "4bcfbf6a8fc5911c1d7e8d1f63a6cea73191827031e3cb5efb6ead54c08ceef6",
            ),
            (
                ("classify", "--max-n", "21", "--json"),
                "74c9ee5aee1f3903b161a392ce0c2b0038d7baa6f44ab3b364013d5586240047",
            ),
            (
                (
                    "verify", "--targets", "L1,L2,L3,L4,L5,L6,L7,L7n,p-odd",
                    "--max-n", "15", "--json",
                ),
                "5366e46e519045bfd4ad2b4ba345e7766e616dbffcc1a533e608ccdc12210027",
            ),
            (
                ("verify", "--targets", "p-odd,L1,delta,theorem1", "--max-n", "11", "--json"),
                "0b359944e275ac1ae9cf9f7c13fdc4dcf912a42d42a74abf6e8f2047d83fb7df",
            ),
            (
                ("search", "--mode", "full", "--min-n", "1", "--max-n", "25", "--json"),
                "4bcfbf6a8fc5911c1d7e8d1f63a6cea73191827031e3cb5efb6ead54c08ceef6",
            ),
            (
                ("search", "--mode", "skew", "--min-n", "1", "--max-n", "45", "--json"),
                "4bcfbf6a8fc5911c1d7e8d1f63a6cea73191827031e3cb5efb6ead54c08ceef6",
            ),
            (
                ("search", "--mode", "full", "--max-n", "13", "--normalize"),
                "5db91295b7a912e1ac318d2e178fd97e3a1b6ef0ad26118c6edb5c6834b4c41d",
            ),
            (
                ("classify", "--max-n", "45", "--json"),
                "41f01af087bca2e9a18dde57e702a9865ebb9e74631832299c7a79ecddccba54",
            ),
            (
                ("classify", "--max-n", "21"),
                "d7ac63c9a5a8c6ddadd2a6f1da2419ff2f9a63780288fc3990907546c421ecec",
            ),
            (
                ("search", "--mode", "full", "--min-n", "1", "--max-n", "45", "--json"),
                "4bcfbf6a8fc5911c1d7e8d1f63a6cea73191827031e3cb5efb6ead54c08ceef6",
            ),
            (
                (
                    "verify", "--targets", "L1,L2,L3,L4,L5,L6,L7,L7n,p-odd",
                    "--max-n", "25", "--json",
                ),
                "e13138cb6c31ebbefdf0efd3a50396577d1c61298d6755f884fc8701e37902c6",
            ),
            (
                ("verify", "--targets", "theorem1,delta,prop-skew", "--max-n", "14", "--json"),
                "d5ac9a441de66f0727a630f31f7b75f9660e4221832c553fabd195210245d5c9",
            ),
            (
                ("search", "--mode", "skew", "--min-n", "1", "--max-n", "45", "--normalize",
                 "--json"),
                "3ca496e8f05280d8e0d77d06944b65c0e2593d06352eaaee1d5be2cddf0aa9b2",
            ),
            (
                ("classify", "--max-n", "45"),
                "3f41a8ea10532bccc806fb3903aaddc7bdb18665ac3701be6fe2db015e0b69df",
            ),
        ],
    )
    def test_pinned_stdout_sha256(self, capsys, argv, digest):
        # digests of the reports as first released: whatever kernels
        # compute them, these reports must stay byte-identical
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if argv[0] in ("search", "classify", "verify"):
            code, out, _ = run_cli(capsys, *argv, "--workers", "2")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "kind,n,digest",
        [
            ("random", 32, "a023bd09cd5e7a9c86af044713b408321b9771a3a488d2f0ab14e6051005a8f8"),
            ("alternating", 32, "585e2c3a5cbc52e742d945590185801758a43f0e8fc855f0a20ef8ca30e00bb6"),
            ("random", 33, "aafef56b63ea5f85ad69f4286bb9663cc847608df4fe0d232791aacaef164172"),
            ("alternating", 33, "cdf42834f0d7cb7e1e16c9be9b5210575b2f75fc8e2eaf96baf1e613e2c888d8"),
            ("random", 256, "11695d1629c7ea26c85bd88a0e70c0ab935b9a27e9ebea4ec4156d78d747528e"),
            ("alternating", 256, "3280b026aa749fdc132f78f495dc2fae0af7b08e72b8bedec4fcb8696e372dde"),
            ("random", 8192, "1a90244e4bfb7c44451d46081cd4511cf52e451c47e2d1421d99d7ef26ec7ed5"),
            ("alternating", 8192, "b86a8f63b15c80aa3a74dea6f2e36cf4303eb686dc33cb7675856d01ffaac51f"),
            ("random", 8193, "997225e38b36f99daa55c1042fca4c18468cb45a9380d98f62c04c04abc8b808"),
            ("alternating", 8193, "f1adb2485b64ac4a2a13988e7297a64588aafe188af6f5abc87730c86dd81d4d"),
            ("random", 10_000, "ed84aed6ed4a09d37ecd6b718e5c77981392ff066f63eedf7248c04cb18a434d"),
            ("alternating", 10_000, "42e7757bd387cb4140a6f1af7ffc55805f58870f604ef42c94bc4f1bbb6018af"),
        ],
    )
    def test_pinned_analyze_sha256(self, capsys, kind, n, digest):
        # analyze reports on both sides of the run vector's slot-width
        # switches (n = 32 and 8192) and at the length cap
        text = _random_text(n) if kind == "random" else ("+-" * n)[:n]
        code, out, _ = run_cli(capsys, "analyze", text, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "kind,n,digest",
        [
            ("random", 1, "41705b44b713fa006ab830ffdf5b2d41e9d51791c56af159a963846bfe2f3abd"),
            ("random", 7, "9fda907d0513425c57607827887c431678e98d859057b2f5420e778d8900b304"),
            ("random", 33, "da1cce43b3cb95fdc213c4b7275d35e3ec7b19d57a34ab7157f2ff6e1d4abbee"),
            ("random", 128, "761fd514bfa3dc946c9a7fc59ff4faf13dbb03344da4881881a11856d5dfd47a"),
            ("random", 256, "520df1e4bb3c58a53422980e10f04c65987a0a65cfe2212431fcb7fdf9ecccb8"),
            ("random", 10_000, "f8309de0ca3d46c90b98f1461bbc8184eb231741f7c0754f92775e43ea949222"),
            ("alternating", 1, "41705b44b713fa006ab830ffdf5b2d41e9d51791c56af159a963846bfe2f3abd"),
            ("alternating", 7, "5b5aeb0394ac9c2f7fb0b81c641a20ba1e0fe6ac9204f79bdfef71ac58275abe"),
            ("alternating", 33, "511d2311d5e7a852d1dcceee81c8e2f3206fcb18fc76765d8b43378b6777ad46"),
            ("alternating", 128, "47b487a158755eca1355e63017b7f7a238480d1e62943cd162c87e22cec371b9"),
            ("alternating", 256, "b33f263802ae140b24f500bc86f70a540594b10f4bd54bc301de60c88368cd58"),
            ("alternating", 10_000, "a2e5ceb21f27351dd6847ebb552a3acf24555fa3bb62badb7c0190d512a60b3d"),
        ],
    )
    def test_pinned_plain_analyze_and_rle_sha256(self, capsys, kind, n, digest):
        # the human-readable replies, which only these pins read: plain
        # analyze of the text and of its encoding, then rle both ways
        text = _random_text(n) if kind == "random" else ("+-" * n)[:n]
        out = ""
        for argv in (
            ("analyze", text),
            ("analyze", "--rle", _encoding_of(text)),
            ("rle", text),
            ("rle", _encoding_of(text)),
        ):
            code, reply, _ = run_cli(capsys, *argv)
            assert code == 0
            out += reply
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _cyclic_garbage(call):
    """Objects that only the cycle collector frees, left by ``call``."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    # what a search or a command builds is freed by reference counting on
    # return: garbage left for the collector moves a collection, and its
    # cost, into whatever runs next.  A forked sweep imports pickle on
    # first use, and that import leaves cycles of its own, so its test
    # imports pickle before counting

    @pytest.mark.parametrize(
        "call",
        [
            lambda: [find_barker_sequences(n, "skew") for n in range(1, 38, 2)],
            lambda: [find_barker_sequences(n, "full") for n in range(1, 20)],
            lambda: classify_odd_barker(21),
        ],
        ids=["skew-to-37", "full-to-19", "classify-21"],
    )
    def test_search(self, call):
        assert _cyclic_garbage(call) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--targets", "theorem1,delta,prop-skew", "--max-n", "12", "--json"),
            ("verify", "--targets", "L1,L2,L3,L4,L5,L6,L7,L7n,p-odd", "--max-n", "21", "--json"),
            ("classify", "--max-n", "21", "--json"),
            ("search", "--mode", "skew", "--min-n", "1", "--max-n", "37", "--json"),
            ("search", "--mode", "full", "--min-n", "1", "--max-n", "19", "--json"),
            ("analyze", "--json", "--", "+++--+-"),
            ("rle", "--json", "+,3,2,1,1"),
        ],
    )
    def test_command(self, capsys, argv):
        codes = []
        workers = ("--workers", "1") if argv[0] in ("verify", "search", "classify") else ()
        assert _cyclic_garbage(lambda: codes.append(run_cli(capsys, *argv, *workers)[0])) == 0
        assert codes == [0]

    def test_forked_sweep(self, capsys):
        import pickle  # before counting, see above

        argv = ("verify", "--targets", "L1,L2,L3,L4,L5,L6,L7,L7n,p-odd", "--max-n", "13",
                "--json", "--workers", "2")
        codes = []
        assert _cyclic_garbage(lambda: codes.append(run_cli(capsys, *argv)[0])) == 0
        assert codes == [0]
