"""Fast tests of the benchmark's own logic: ``python3 -m pytest perfbench``."""

import json
import random
import re
import types
from pathlib import Path

import pytest

import run
import spans

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    names = ["root", "a", "b", "c"]
    name_ids = [0, 1, 3, 2]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    timed = spans.self_times(names, name_ids, starts, ends, parents)
    assert timed == {"root": (1, 6.0), "a": (1, 2.0), "c": (1, 1.0), "b": (1, 1.0)}


def test_self_times_add_up_to_the_top_spans():
    names = ["f", "g"]
    name_ids = [0, 1, 1, 0]
    starts = [0.0, 0.5, 1.5, 3.0]
    ends = [2.0, 1.0, 1.75, 4.0]
    parents = [-1, 0, 0, -1]
    timed = spans.self_times(names, name_ids, starts, ends, parents)
    assert timed["f"] == (2, pytest.approx(2.25))
    assert timed["g"] == (2, pytest.approx(0.75))
    assert sum(s for _, s in timed.values()) == pytest.approx(3.0)


def test_recorder_nests_spans_and_counts_generator_steps():
    rec = spans.Recorder(pass_id=7)

    def gen(n):
        yield from range(n)

    def outer(n):
        return [inner(x) for x in wrapped_gen(n)]

    inner = rec.wrap("m.inner", lambda x: x)
    wrapped_gen = rec.wrap("m.gen", gen)
    wrapped_outer = rec.wrap("m.outer", outer)
    assert wrapped_outer(3) == [0, 1, 2]
    names = [rec.names[i] for i in rec.name_ids]
    assert names.count("m.inner") == 3
    assert names.count("m.gen") == 4  # three items and the exhausting call
    outer_idx = names.index("m.outer")
    assert all(rec.parents[i] == outer_idx for i in range(len(names)) if i != outer_idx)
    assert all(rec.ends[i] >= rec.starts[i] for i in range(len(names)))


def test_install_rewrites_every_namespace_that_binds_a_function():
    def f():
        return 1

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.f = user.g = f
    rec = spans.Recorder(pass_id=0)
    spans.install(rec, {"home": home, "user": user}, {"home": ("f",)})
    assert home.f is user.g and home.f is not f
    assert user.g() == 1
    assert len(rec.starts) == 1


def test_result_counter():
    rec = spans.Recorder(pass_id=0)
    find = rec.wrap("search.find_barker_sequences", lambda n: [0] * n)
    find(2)
    find(3)
    assert rec.counters["search.hits"] == 5


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile(values, 100) == 100
    assert run.percentile([3.0], 99) == 3.0
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile([5, 1, 4, 2, 3], 99) == 5
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_metric_names_follow_the_grammar():
    for section in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[section]:
            assert METRIC_NAME.fullmatch(metric["name"]), metric["name"]
    assert not METRIC_NAME.fullmatch("_leading")
    assert not METRIC_NAME.fullmatch("bad name")
    assert not METRIC_NAME.fullmatch("x" * 65)


def test_benchmark_json_matches_the_metrics_printed():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_golden_digest_check():
    golden = {"cmd": run.digest("out\n")}
    run.check_digest(golden, "cmd", "out\n")
    with pytest.raises(run.CheckError):
        run.check_digest(golden, "cmd", "out")
    with pytest.raises(run.CheckError):
        run.check_digest(golden, "other", "out\n")


def test_every_fixed_command_has_a_golden_digest():
    golden = json.loads(run.GOLDEN.read_text())
    keys = {op.digest_key for w in run.WORKLOADS.values() if not w.split for op in w.ops(0, 0)}
    assert keys == set(golden)


def test_first_principles_helpers():
    assert run.encoding_of("+++--+-") == "+,3,2,1,1"
    assert run.encoding_of("-") == "-,1"
    assert run.aperiodic(run.elems_of("+++-+")) == [5, 0, 1, 0, 1, 0]
    assert run.periodic(run.elems_of("++-")) == [3, -1, -1]


def test_analyze_mix_batches():
    a = run.analyze_mix_ops(3, 0)
    assert [op.argv for op in a] == [op.argv for op in run.analyze_mix_ops(3, 0)]
    b = run.analyze_mix_ops(4, 0)
    assert [op.argv for op in a] != [op.argv for op in b]
    for ops in (a, b):
        assert len(ops) == 2 * run.MAX_LEN + 4 * run.MALFORMED_PER_CLASS
        assert sum(op.expected_error for op in ops) == 4 * run.MALFORMED_PER_CLASS
        non_ascii = [op for op in ops if any(d in op.argv[-1] for d in run.NON_ASCII_DIGITS)]
        assert len(non_ascii) == run.MALFORMED_PER_CLASS // 2
        for op in ops:
            if op.argv[2] == "--":
                assert op.argv[3] and len(op.argv) == 4


def test_request_checks():
    run.check_rle("-+", 0, '{"rle": "-,1,1", "sequence": "-+"}\n', "")
    with pytest.raises(run.CheckError):
        run.check_rle("-+", 0, '{"rle": "-,2", "sequence": "-+"}\n', "")
    run.check_rejected(1, "", "error: expected '+' or '-', got 'x' at position 0\n")
    with pytest.raises(run.CheckError):
        run.check_rejected(2, "", "error: invalid literal for int() with base 10: '²'\n")
    with pytest.raises(run.CheckError):
        run.check_rejected(1, "", "Traceback (most recent call last):\n")
