"""The independence rule: the run vector never comes from C, and the
oracles share no code with the library.

Theorem 1 would let the run vector be read off C, and every output pin
would still pass, since the identity holds; the checks of the identity
would then compare C with itself.  So the C kernels are replaced, in
every ``runvec`` namespace, by tripwires, and the run-vector side must
still run.  L7n and p-odd read C by statement and are left out.
"""

import ast
import sys
from pathlib import Path

import pytest

from runvec import lemmalab, search, seqcore
from runvec.seqcore import RunLengthEncoding, RunVector, run_structure, trusted_rle, unpack

from oracles import brute_aperiodic, brute_run_vector, compositions

C_KERNELS = (
    "packed_autocorrelations",
    "packed_correlation_vectors",
    "aperiodic_autocorrelations",
    "periodic_autocorrelations",
)
RUN_KERNELS = ("run_vector_of", "_run_vector_of_sums", "run_structure", "_structure_of")
BALANCED_WITHOUT_C = ("L1", "L2", "L3", "L4", "L5", "L6", "L7")


class Tripped(AssertionError):
    pass


def _namespaces():
    return [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "runvec"]


def _trip(monkeypatch, names):
    """Replace each of ``names`` in every runvec namespace by a function
    that records its call and raises; returns the list of calls."""
    calls = []

    def tripwire(name):
        def tripped(*args, **kwargs):
            calls.append(name)
            raise Tripped(f"{name} was called")

        return tripped

    for module in _namespaces():
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, tripwire(name))
    return calls


@pytest.fixture
def without_c(monkeypatch):
    calls = _trip(monkeypatch, C_KERNELS)
    yield
    assert calls == []


class TestRunVectorWithoutC:
    def test_run_vector_of_every_composition_to_10(self, without_c):
        for n in range(1, 11):
            for runs in compositions(n):
                rv = seqcore.run_vector_of(run_structure(RunLengthEncoding(1, runs)))
                assert rv.r_tilde == brute_run_vector(runs), runs

    def test_balanced_run_tuples_to_29(self, without_c):
        lemmalab.balanced_run_tuples.cache_clear()
        assert len(lemmalab.balanced_run_tuples(29)) == 1 << 14

    def test_sweep_to_17(self, without_c):
        assert lemmalab.sweep(17, BALANCED_WITHOUT_C, workers=1).ok

    def test_dfs_to_45(self, without_c):
        for n in range(1, 46):
            search._dfs(n, 1, False)
            if n % 2:
                search._dfs(n, 1, True)


def _run_vector_from_c(rs):
    """The run vector read off C by Theorem 1, ``R_k = C_k - (C_{k-1} +
    C_{k+1}) / 2``: right, and exactly what the rule forbids."""
    runs = tuple(b - a for a, b in zip((0,) + rs.s, rs.s))
    c = seqcore.aperiodic_autocorrelations(seqcore.decode_rle(trusted_rle(1, runs)))
    r = tuple([at - (before + after) // 2 for before, at, after in zip(c, c[1:], c[2:])])
    r_tilde = tuple([-v for v in reversed(r)]) if rs.gamma & 1 else r[::-1]
    return RunVector(r_tilde, r)


class TestNegativeControl:
    def test_a_run_vector_from_c_is_right(self):
        for runs in compositions(9):
            rs = run_structure(RunLengthEncoding(1, runs))
            assert _run_vector_from_c(rs) == seqcore.run_vector_of(rs)

    def test_a_run_vector_from_c_trips(self, monkeypatch):
        for module in _namespaces():
            if hasattr(module, "run_vector_of"):
                monkeypatch.setattr(module, "run_vector_of", _run_vector_from_c)
        calls = _trip(monkeypatch, C_KERNELS)
        with pytest.raises(Tripped):
            lemmalab.sweep(9, ("L1",), workers=1)
        assert calls == ["aperiodic_autocorrelations"]


class TestDeltaWithoutRunStructure:
    def test_every_sequence_of_length_10(self, monkeypatch):
        calls = _trip(monkeypatch, RUN_KERNELS)
        for x in range(1 << 10):
            seq = unpack(x, 10)
            c = brute_aperiodic(seq.elems)
            second = tuple([2 * at - before - after for before, at, after in zip(c, c[1:], c[2:])])
            assert lemmalab.delta_autocorrelations(seq) == second
        assert calls == []

    def test_the_wires_trip_the_theorem1_sweep(self, monkeypatch):
        # the sweep's run vector goes through the wired kernel, so the
        # delta oracle's run above shows that it does not
        calls = _trip(monkeypatch, RUN_KERNELS)
        with pytest.raises(Tripped):
            lemmalab.sweep(5, ("theorem1",), workers=1)
        assert calls == ["_run_vector_of_sums"]


class TestOracleImports:
    def test_oracles_import_no_runvec_module(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
            elif isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
        assert imported  # the walk sees the imports there are
        assert [name for name in imported if name.split(".")[0] == "runvec"] == []
