"""The public surface: ``__all__``, the names the benchmark's spans wrap,
and imports that nothing in the package reads."""

import ast
import importlib.util
from pathlib import Path

import pytest

import runvec
from runvec.lemmalab import (
    balanced_run_tuples,
    barker_predictions,
    check_lemma,
    delta_autocorrelation,
    sweep,
)
from runvec.search import SearchSpec, brute_force_barker, classify_odd_barker, find_barker_sequences
from runvec.seqcore import (
    BinarySequence,
    RunLengthEncoding,
    all_sequences,
    boundary_rank_interval,
    f_eval,
    parse_sequence,
    run_structure,
    run_vector,
    u_k,
    unpack,
)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "runvec"


def _load_spans():
    """``perfbench/spans.py``, loaded from its file without touching it."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (as a name or an attribute
    root) and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


class TestPublicSurface:
    def test_all_is_sorted(self):
        assert runvec.__all__ == sorted(runvec.__all__)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from runvec import *", namespace)
        assert [name for name in runvec.__all__ if name not in namespace] == []

    def test_span_names_resolve_to_callables(self):
        spans = _load_spans()
        missing = [
            f"{layer}.{name}"
            for layer, names in spans.LAYER_FUNCTIONS.items()
            for name in names
            if not callable(getattr(importlib.import_module(f"runvec.{layer}"), name, None))
        ]
        assert missing == []


class TestImports:
    def test_no_unused_imports(self):
        found = {
            path.name: unused_imports(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
        }
        assert {name: names for name, names in found.items() if names} == {}
        assert "seqcore.py" in found and "__init__.py" in found

    def test_the_check_flags_an_unused_import(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\nimport sys\nfrom .a import b, c as d, e\n"
            "__all__ = ['e']\n"
            "print(sys.argv, d)\n"
        )
        assert unused_imports(source) == ["os", "b"]


def int_type_tests(source: str) -> list[int]:
    """The lines of ``source`` that test ``type(...) is not int`` (or
    ``is int``), the hand-written integer check the package's one guard,
    ``runvec.seqcore._int_in``, replaces."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Name)
        and node.left.func.id == "type"
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)
    )


BARKER7 = RunLengthEncoding(1, (3, 2, 1, 1))  # n = 7, gamma = 4
RS7 = run_structure(BARKER7)
SEQ7 = BinarySequence.from_text("+++--+-")

#: Every guarded entry point: (id, the call with the integer argument
#: replaced by ``v``, the argument's name, values besides 2.0, True and
#: "2" to refuse as non-ints, {int outside the range: its message}).
#: f_eval is total over the ints, so it has no range case.
GUARDED = [
    ("RunVector.tilde", run_vector(SEQ7).tilde, "k", (),
     {0: "k must be in [1, 6], got 0", 7: "k must be in [1, 6], got 7"}),
    ("u_k", lambda v: u_k(RS7, v), "k", (),
     {0: "k must be in [1, 6], got 0", 7: "k must be in [1, 6], got 7"}),
    ("boundary_rank_interval", lambda v: boundary_rank_interval(RS7, v), "k", (2.5,),
     {0: "k must be in [1, 7], got 0", 8: "k must be in [1, 7], got 8"}),
    ("unpack.n", lambda v: unpack(0, v), "n", (), {0: "n must be >= 1, got 0"}),
    ("unpack.x", lambda v: unpack(v, 3), "x", (),
     {-1: "mask -1 does not fit in 3 bits", 8: "mask 8 does not fit in 3 bits"}),
    ("all_sequences", all_sequences, "n", (), {0: "n must be >= 1, got 0"}),
    ("f_eval", lambda v: f_eval(RS7, v), "k", (), {}),
    ("parse_sequence.max_n", lambda v: parse_sequence("+-", v), "max_n", (),
     {0: "max_n must be >= 1, got 0"}),
    ("RunLengthEncoding.from_text.max_n", lambda v: RunLengthEncoding.from_text("+,1", v),
     "max_n", (), {-1: "max_n must be >= 1, got -1"}),
    ("check_lemma.k", lambda v: check_lemma("L2", BARKER7, k=v), "k", (),
     {0: "k must be in [1, 6], got 0", 7: "k must be in [1, 6], got 7"}),
    ("check_lemma.mu", lambda v: check_lemma("L6", BARKER7, mu=v), "mu", (),
     {0: "mu must be in [1, 4], got 0", 5: "mu must be in [1, 4], got 5"}),
    ("sweep.n_max", lambda v: sweep(v, ("L1",)), "n_max", (), {0: "n_max must be >= 1, got 0"}),
    ("sweep.workers", lambda v: sweep(5, ("L1",), workers=v), "workers", (),
     {-1: "workers must be >= 1, got -1"}),
    ("barker_predictions", barker_predictions, "n", (), {-1: "n must be odd and >= 1, got -1"}),
    ("balanced_run_tuples", balanced_run_tuples, "n", (),
     {-1: "n must be odd and >= 1, got -1", 31: "balanced enumeration limited to n <= 29"}),
    ("delta_autocorrelation", lambda v: delta_autocorrelation(SEQ7, v), "k", (),
     {0: "k must be in [1, 6], got 0", 7: "k must be in [1, 6], got 7"}),
    ("SearchSpec.n_min", lambda v: SearchSpec(v, 5), "n_min", (), {0: "bad length range [0, 5]"}),
    ("SearchSpec.n_max", lambda v: SearchSpec(1, v), "n_max", (), {0: "bad length range [1, 0]"}),
    ("find_barker_sequences.n", find_barker_sequences, "n", (), {0: "n must be >= 1, got 0"}),
    ("find_barker_sequences.threshold", lambda v: find_barker_sequences(13, threshold=v),
     "threshold", (1.5,), {-1: "threshold must be >= 0, got -1"}),
    ("brute_force_barker", brute_force_barker, "n", (), {0: "n must be >= 1, got 0"}),
    ("classify_odd_barker", classify_odd_barker, "n_max", (), {0: "bad length range [1, 0]"}),
]


def _refusals():
    """One ``(call, value, message)`` case per refusal the table lists."""
    for name, call, arg, extra, out_of_range in GUARDED:
        for value in (2.0, True, "2", *extra):
            message = f"{arg} must be an int, got {value!r}"
            yield pytest.param(call, value, message, id=f"{name}-{value!r}")
        for value, message in out_of_range.items():
            yield pytest.param(call, value, message, id=f"{name}-{value}")


class TestIntGuard:
    @pytest.mark.parametrize("call,value,message", _refusals())
    def test_every_entry_point_refuses_with_its_message(self, call, value, message):
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == message

    def test_no_hand_written_int_test_outside_seqcore(self):
        found = {
            name: int_type_tests((PACKAGE / name).read_text())
            for name in ("lemmalab.py", "search.py", "cli.py")
        }
        assert found == {"lemmalab.py": [], "search.py": [], "cli.py": []}

    def test_the_check_flags_a_hand_written_int_test(self):
        source = (
            "def f(n, m):\n"
            "    if type(n) is not int or type(m) is bool:\n"
            "        raise ValueError(n)\n"
            "    return type(m) is int\n"
        )
        assert int_type_tests(source) == [2, 4]
