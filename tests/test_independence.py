"""The independence rule: the run vector never comes from C, and the
oracles share no code with the library.

Theorem 1 would let the run vector be read off C, and every output pin
would still pass, since the identity holds; the checks of the identity
would then compare C with itself.  So the C kernels are replaced, in
every ``runvec`` namespace, by tripwires, and the run-vector side must
still run.  L7n and p-odd read C by statement and are left out.  The
sequence sweep runs both routes on bit planes, so the plane C kernel is
a C kernel and the plane run kernel a run kernel here.
"""

import ast
import sys
from pathlib import Path

import pytest

from runvec import lemmalab, search, seqcore
from runvec.seqcore import (
    RunLengthEncoding,
    RunVector,
    _element_planes,
    run_structure,
    trusted_rle,
    unpack,
)

from oracles import (
    all_sign_tuples,
    brute_aperiodic,
    brute_delta_autocorrelation,
    brute_run_vector,
    brute_runs,
    compositions,
    derived_barker_profile,
    plane_bits,
    signed_values,
)

C_KERNELS = (
    "packed_autocorrelations",
    "packed_correlation_vectors",
    "aperiodic_autocorrelations",
    "periodic_autocorrelations",
    "_plane_distances",
)
RUN_KERNELS = ("run_vector_of", "run_structure", "_plane_run_vector")
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

    def test_plane_run_vector_of_every_mask_to_12(self, without_c):
        # r~ from the boundary planes, and the reflected vector the sweep
        # reads, r_k = (-1)**gamma * r~_{n-k}
        for n in range(1, 13):
            size = 1 << n
            r_tilde, ends_differ = seqcore._plane_run_vector(_element_planes(n))
            columns = [signed_values(pair, size) for pair in r_tilde]
            reflected = [
                signed_values(lemmalab._negated_off(pair, ends_differ), size) for pair in r_tilde[::-1]
            ]
            differ_bits = plane_bits(ends_differ, size)
            expected = {}
            for x, elems in enumerate(all_sign_tuples(n)):
                runs = brute_runs(elems)
                if runs not in expected:
                    expected[runs] = brute_run_vector(runs)
                want = expected[runs]
                assert tuple([column[x] for column in columns]) == want, (n, x)
                sign = (-1) ** len(runs)
                assert [column[x] for column in reflected] == [sign * v for v in want[::-1]]
                assert differ_bits[x] == (elems[0] != elems[-1]), (n, x)

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


def _sieve(run_vectors, predicted):
    """The run tuples, keys of ``run_vectors``, whose r~ equals ``predicted``."""
    return [runs for runs, r_tilde in run_vectors.items() if r_tilde == predicted]


class TestBarkerSieve:
    """The paper's route to "no odd Barker sequence above 13", from the run
    vector alone.  An odd Barker sequence is skew-symmetric (Turyn &
    Storer), hence balanced, and its r~ is the one
    ``oracles.derived_barker_profile`` derives; conversely r~ fixes C
    through Theorem 1.  So the balanced tuples whose r~ is that profile
    are exactly the Barker encodings, and C is never computed."""

    def test_only_the_barker_encodings_survive_to_29(self, monkeypatch):
        # the unpruned filter runs before the C kernels are wired to trip
        barker = {
            n: sorted({brute_runs(seq.elems) for seq in search.brute_force_barker(n)})
            for n in range(3, 14, 2)
        }
        calls = _trip(monkeypatch, C_KERNELS)
        hits = {}
        for n in range(3, lemmalab.BALANCED_ENUM_LIMIT + 1, 2):
            run_vectors = {}
            for runs in lemmalab.balanced_run_tuples(n):
                rv = seqcore.run_vector_of(run_structure(trusted_rle(1, runs)))
                if n <= 17:
                    assert rv.r_tilde == brute_run_vector(runs), runs
                run_vectors[runs] = rv.r_tilde
            predicted = derived_barker_profile(n)[2]
            hits[n] = _sieve(run_vectors, predicted)
            if n == 13:
                # negative control: with any one predicted entry flipped,
                # the hits at 13 are lost
                for i in range(n - 1):
                    flipped = predicted[:i] + (-predicted[i],) + predicted[i + 1 :]
                    assert _sieve(run_vectors, flipped) == [], i
        assert calls == []
        assert {n: hits[n] for n in barker} == barker
        assert {n: len(found) for n, found in hits.items()} == {
            n: 2 if n in (3, 5, 7, 11, 13) else 0 for n in range(3, 30, 2)
        }


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

    def test_plane_delta_on_every_mask_to_12(self, monkeypatch):
        # the sweep's delta planes, from the elements alone
        calls = _trip(monkeypatch, RUN_KERNELS + C_KERNELS)
        for n in range(1, 13):
            deltas = lemmalab._plane_delta(_element_planes(n))
            columns = [signed_values(pair, 1 << n) for pair in deltas]
            for x, elems in enumerate(all_sign_tuples(n)):
                want = tuple([brute_delta_autocorrelation(elems, k) for k in range(1, n)])
                assert tuple([column[x] for column in columns]) == want, (n, x)
        assert calls == []

    def test_the_wires_trip_the_theorem1_sweep(self, monkeypatch):
        # the sweep's run vector goes through the wired kernel, so the
        # delta oracle's runs above show that they do not
        calls = _trip(monkeypatch, RUN_KERNELS)
        with pytest.raises(Tripped):
            lemmalab.sweep(5, ("theorem1",), workers=1)
        assert calls == ["_plane_run_vector"]

    def test_the_c_wires_trip_the_theorem1_sweep(self, monkeypatch):
        # and its C goes through the wired plane C kernel: both routes run
        calls = _trip(monkeypatch, C_KERNELS)
        with pytest.raises(Tripped):
            lemmalab.sweep(5, ("theorem1",), workers=1)
        assert calls == ["_plane_distances"]


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
