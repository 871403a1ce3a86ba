"""Verifiers: residual identity, delta oracle, profiles, lemma checks, sweeps."""

import os
import random

import pytest

from runvec import lemmalab
from runvec.lemmalab import (
    LEMMA_IDS,
    SEQUENCE_TARGETS,
    SWEEP_LIMITS,
    SWEEP_TARGETS,
    balanced_profile,
    balanced_run_tuples,
    barker_predictions,
    check_lemma,
    check_p_odd,
    delta_autocorrelation,
    delta_autocorrelations,
    sweep,
    theorem1_residual,
)
from runvec.seqcore import (
    BinarySequence,
    RunLengthEncoding,
    RunStructure,
    RunVector,
    aperiodic_autocorrelations,
    boundary_rank_interval,
    decode_rle,
    run_vector,
)


from oracles import (
    all_sign_tuples,
    brute_aperiodic,
    brute_balanced_tuples,
    brute_delta_autocorrelation,
    brute_is_balanced,
    brute_is_skew_symmetric,
    brute_prefix_structure,
    brute_rank,
    brute_runs,
    brute_signs,
    brute_u,
    compositions,
)

FIVE_BARKER_RLES = [
    (2, 1),
    (3, 1, 1),
    (3, 2, 1, 1),
    (3, 3, 1, 2, 1, 1),
    (5, 2, 2, 1, 1, 1, 1),
]


def rle(runs, sign=1):
    return RunLengthEncoding(sign, tuple(runs))


class TestTheorem1Residual:
    def test_examples(self):
        assert theorem1_residual(BinarySequence.from_text("++-")) == (0, 0)
        barker7 = decode_rle(rle((3, 2, 1, 1)))
        assert theorem1_residual(barker7) == (0,) * 6
        assert theorem1_residual(BinarySequence.from_text("+")) == ()

    def test_exhaustive_to_10(self):
        for n in range(2, 11):
            for elems in all_sign_tuples(n):
                residual = theorem1_residual(BinarySequence(elems))
                assert residual == (0,) * (n - 1), elems


class TestDeltaAutocorrelation:
    @pytest.mark.parametrize(
        "text,k,expected",
        [("++-", 1, -2), ("++-", 2, -2), ("+++", 1, 0)],
    )
    def test_examples(self, text, k, expected):
        s = BinarySequence.from_text(text)
        assert delta_autocorrelation(s, k) == expected
        assert brute_delta_autocorrelation(s.elems, k) == expected

    def test_range_errors(self):
        s = BinarySequence.from_text("++-")
        for bad in (0, 3, -1):
            with pytest.raises(ValueError):
                delta_autocorrelation(s, bad)

    def test_vector_matches_brute_to_10(self):
        for n in range(1, 11):
            for elems in all_sign_tuples(n):
                deltas = delta_autocorrelations(BinarySequence(elems))
                assert deltas == tuple(
                    brute_delta_autocorrelation(elems, k) for k in range(1, n)
                )

    def test_both_identities_to_10(self):
        # half the delta value is the reflected run-vector entry, and the
        # whole value is the negated second difference of the plain sums
        for n in range(2, 11):
            for elems in all_sign_tuples(n):
                s = BinarySequence(elems)
                c = aperiodic_autocorrelations(s)
                r = run_vector(s).r
                for k in range(1, n):
                    d = delta_autocorrelation(s, k)
                    assert d == 2 * r[k - 1]
                    assert d == -(c[k + 1] - 2 * c[k] + c[k - 1])


class TestBalancedProfile:
    def test_examples(self):
        p = balanced_profile(rle((3, 2, 1, 1)))
        assert (p.p, p.nu, p.q, p.alpha, p.s_nu_plus_1, p.k0) == (3, 1, 2, 0, 5, 8)
        p = balanced_profile(rle((5, 2, 2, 1, 1, 1, 1)))
        assert (p.p, p.nu, p.q, p.alpha, p.s_nu_plus_1, p.k0) == (5, 1, 2, 0, 7, 12)

    def test_alpha_one_case(self):
        # runs (3,3,1,...): second run divides by 3, third run is 1 => q=1
        p = balanced_profile(rle((3, 3, 1, 2, 1, 1)))
        assert (p.p, p.nu, p.q, p.alpha) == (3, 2, 1, 1)
        assert p.s_nu_plus_1 == 7 and p.k0 == 11

    def test_errors(self):
        with pytest.raises(ValueError, match="requires balanced RLE"):
            balanced_profile(rle((2, 2)))
        with pytest.raises(ValueError, match="requires p > 1"):
            balanced_profile(rle((1, 2)))

    def test_facts_hold_across_population(self):
        # last run 1, early boundaries divisible by p, pivot not divisible,
        # run vector -1 at the first boundary, boundary bound for p >= 3
        for n in range(3, 22, 2):
            for runs in balanced_run_tuples(n):
                if runs[0] > 1:
                    profile = balanced_profile(rle(runs))
                    assert profile.k0 == profile.p + profile.s_nu_plus_1 + profile.alpha


class TestCheckLemma:
    def test_l1_example(self):
        verdict = check_lemma("L1", rle((3, 2, 1, 1)))
        assert verdict.hypotheses_met and verdict.conclusion_holds
        assert run_vector(decode_rle(rle((3, 2, 1, 1)))).r_tilde == (-1, 1, -1, 1, -1, -3)

    def test_l1_biconditional_on_unbalanced(self):
        # (2,2) is not balanced, so some entry must be even; L1 still holds
        verdict = check_lemma("L1", rle((2, 2)))
        assert verdict.hypotheses_met and verdict.conclusion_holds

    def test_l5_example(self):
        verdict = check_lemma("L5", rle((3, 2, 1, 1)), k=6)
        assert verdict.hypotheses_met and verdict.conclusion_holds
        rv = run_vector(decode_rle(rle((3, 2, 1, 1))))
        assert rv.tilde(6) == -3 and rv.tilde(6) % 4 == 1

    def test_l7_example(self):
        instance = rle((3, 2, 2, 1, 1))
        profile = balanced_profile(instance)
        assert profile.k0 == 8 and profile.k0 < instance.n
        rv = run_vector(decode_rle(instance))
        assert rv.tilde(6) == -1  # the non-Barker witness entry
        assert rv.tilde(7) + rv.tilde(8) == 6
        verdict = check_lemma("L7", instance)
        assert verdict.hypotheses_met and verdict.conclusion_holds
        verdict = check_lemma("L7n", instance)
        assert verdict.hypotheses_met and verdict.conclusion_holds

    def test_l2_l3_l4_on_barker7(self):
        instance = rle((3, 2, 1, 1))
        for k in (1, 2, 4):  # gap positions (not forward boundaries)
            verdict = check_lemma("L2", instance, k=k)
            assert verdict.hypotheses_met and verdict.conclusion_holds
        verdict = check_lemma("L3", instance, k=3)  # odd forward boundary
        assert verdict.hypotheses_met and verdict.conclusion_holds
        for k in range(1, 7):
            verdict = check_lemma("L4", instance, k=k)
            assert verdict.hypotheses_met and verdict.conclusion_holds

    def test_l6_example(self):
        instance = rle((3, 2, 2, 1, 1))
        for mu in range(1, 5):
            verdict = check_lemma("L6", instance, mu=mu)
            if verdict.hypotheses_met:
                assert verdict.conclusion_holds

    def test_hypothesis_gating(self):
        # L2 at a boundary position, L3 at an even boundary, L5 off-boundary
        instance = rle((3, 2, 1, 1))
        assert not check_lemma("L2", instance, k=3).hypotheses_met
        assert not check_lemma("L3", instance, k=6).hypotheses_met
        assert not check_lemma("L5", instance, k=4).hypotheses_met
        # unbalanced instance fails every balanced-only hypothesis
        assert not check_lemma("L2", rle((2, 2)), k=1).hypotheses_met
        assert not check_lemma("L4", rle((2, 2)), k=1).hypotheses_met
        for lemma_id, params in (("L3", {"k": 3}), ("L5", {"k": 3}), ("L6", {"mu": 1})):
            assert not check_lemma(lemma_id, rle((3, 3, 1)), **params).hypotheses_met
        assert not check_lemma("L7", rle((3, 3, 1))).hypotheses_met
        assert not check_lemma("L7n", rle((3, 3, 1))).hypotheses_met
        # p = 2 is balanced but below the pair-bound's p >= 3
        assert not check_lemma("L7", rle((2, 2, 1)), k=None).hypotheses_met

    def test_l7_gated_when_pivot_reaches_length(self):
        # (5,2,2,1,1,1,1): k0 = 12 < 13 meets the guard; verify it holds,
        # then check a gated case via the n = 5 instance (3,1,1): k0 = 3+4+1=8 >= 5
        assert check_lemma("L7", rle((5, 2, 2, 1, 1, 1, 1))).hypotheses_met
        verdict = check_lemma("L7", rle((3, 1, 1)))
        assert not verdict.hypotheses_met

    def test_rank_table_matches_boundary_rank_interval(self):
        for n in range(1, 11):
            for runs in compositions(n):
                inst = lemmalab._Instance(rle(runs))
                for k in range(1, n + 1):
                    assert inst.rank[k] == boundary_rank_interval(inst.rs, k) == brute_rank(runs, k)

    def test_parameter_errors(self):
        instance = rle((3, 2, 1, 1))
        with pytest.raises(ValueError, match="unknown lemma_id"):
            check_lemma("L9", instance)
        with pytest.raises(ValueError, match="requires parameter k"):
            check_lemma("L2", instance)
        with pytest.raises(ValueError, match="out of range"):
            check_lemma("L4", instance, k=0)
        with pytest.raises(ValueError, match="out of range"):
            check_lemma("L4", instance, k=7)
        with pytest.raises(ValueError, match="requires parameter mu"):
            check_lemma("L6", instance)
        with pytest.raises(ValueError, match="out of range"):
            check_lemma("L6", instance, mu=5)


class TestBarkerPredictions:
    def test_n13(self):
        pred = barker_predictions(13)
        assert set(pred.c[1::2]) == {1}  # even shifts sit at odd slots
        assert set(pred.c[0::2]) == {0}
        assert pred.r[0] == -7
        assert pred.r_tilde[11] == 7

    def test_n7(self):
        pred = barker_predictions(7)
        assert set(pred.c[1::2]) == {-1}
        assert pred.r[0] == -3
        assert pred.r_tilde[5] == -3

    def test_n1_empty(self):
        pred = barker_predictions(1)
        assert pred.c == () and pred.r == () and pred.r_tilde == ()

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            barker_predictions(8)

    @pytest.mark.parametrize("runs", FIVE_BARKER_RLES)
    def test_predictions_match_actual_values(self, runs):
        seq = decode_rle(rle(runs))
        pred = barker_predictions(seq.n)
        c = aperiodic_autocorrelations(seq)
        rv = run_vector(seq)
        assert tuple(c[1 : seq.n]) == pred.c
        assert rv.r == pred.r
        assert rv.r_tilde == pred.r_tilde


class TestCheckPOdd:
    def test_examples(self):
        verdict = check_p_odd(rle((3, 2, 1, 1)))
        assert verdict.hypotheses_met and verdict.conclusion_holds  # 7 <= 9
        verdict = check_p_odd(rle((5, 2, 2, 1, 1, 1, 1)))
        assert verdict.hypotheses_met and verdict.conclusion_holds  # 13 <= 13, tight
        verdict = check_p_odd(rle((2, 1)))
        assert verdict.hypotheses_met and verdict.conclusion_holds  # guards only

    def test_bound_is_tight_at_13(self):
        profile = balanced_profile(rle((5, 2, 2, 1, 1, 1, 1)))
        assert profile.p + profile.s_nu_plus_1 + profile.alpha + 1 == 13

    def test_gating(self):
        assert not check_p_odd(rle((3, 2, 2, 1, 1))).hypotheses_met  # not Barker
        assert not check_p_odd(rle((1, 2))).hypotheses_met  # p = 1
        assert not check_p_odd(rle((2, 2))).hypotheses_met  # not Barker, even-ish


def _usable_cpus(monkeypatch, count):
    """Let the sweep see ``count`` CPUs in this process's affinity mask."""
    monkeypatch.setattr(
        lemmalab.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def _assert_all_reaped():
    # waitpid(-1) raises ChildProcessError only when no child is left,
    # running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweeps:
    def test_prop_skew_examples(self):
        report = sweep(3, ("prop-skew",))
        by_n = {rec.n: rec for rec in report.records}
        assert by_n[1].population == 2 and by_n[1].failure_count == 0
        assert by_n[3].population == 8 and by_n[3].failure_count == 0
        assert report.ok

    def test_lemma_sweep_to_13(self):
        report = sweep(13, LEMMA_IDS)
        assert report.ok and report.complete
        by_key = {(rec.target, rec.n): rec for rec in report.records}
        assert by_key[("L1", 13)].population == 64  # 2**(m-1) with m = 7
        assert by_key[("L7", 13)].hypotheses_met_count == 3
        assert by_key[("L7n", 13)].hypotheses_met_count == 3
        # every lemma fires at least once over the swept range
        for lemma in LEMMA_IDS:
            assert sum(r.hypotheses_met_count for r in report.records if r.target == lemma) > 0

    def test_theorem1_and_delta_sweep_small(self):
        report = sweep(8, ("theorem1", "delta"))
        assert report.ok
        assert sum(r.population for r in report.records if r.target == "theorem1") == 510

    def test_p_odd_sweep_finds_the_barker_instances(self):
        report = sweep(13, ("p-odd",))
        assert report.ok
        met = {rec.n: rec.hypotheses_met_count for rec in report.records}
        assert met[7] == 1 and met[9] == 0 and met[13] == 1

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown sweep target"):
            sweep(5, ("theorem2",))

    def test_failure_witnesses_decode_the_failing_masks(self, monkeypatch):
        # No sweep fails on correct code, so corrupt the last reflected
        # run-vector entry of every three-run instance and compare the
        # sweep's witnesses with a loop over plain tuples.
        real = lemmalab.run_vector_of

        def corrupted(rs):
            rv = real(rs)
            if rs.gamma != 3:
                return rv
            return RunVector(rv.r_tilde, rv.r[:-1] + (rv.r[-1] + 1,))

        monkeypatch.setattr(lemmalab, "run_vector_of", corrupted)
        report = sweep(6, ("theorem1", "delta"))
        assert not report.ok
        by_key = {(rec.target, rec.n): rec for rec in report.records}
        for n in range(1, 7):
            expected = {"theorem1": [], "delta": []}
            for elems in all_sign_tuples(n):  # '+'-first lexicographic order
                if len(brute_runs(elems)) != 3:
                    continue
                text = "".join("+" if x == 1 else "-" for x in elems)
                c = brute_aperiodic(elems)
                k = n - 1
                r_true = -(c[k + 1] - 2 * c[k] + c[k - 1]) // 2
                expected["theorem1"].append({"instance": text, "k": k, "residual": 2})
                expected["delta"].append(
                    {
                        "instance": text,
                        "k": k,
                        "delta": brute_delta_autocorrelation(elems, k),
                        "r_k": r_true + 1,
                    }
                )
            for target, failures in expected.items():
                rec = by_key[(target, n)]
                assert rec.population == 1 << n
                assert rec.failure_count == len(failures)
                assert list(rec.failures) == failures[:10]
        assert by_key[("theorem1", 6)].failure_count == 20  # 2 * C(5, 2) > 10

    def test_orbit_witnesses_are_listed_by_ascending_mask(self, monkeypatch):
        # Corrupt the last reflected run-vector entry of every four-run
        # instance and flip balancedness of every three-run one: both are
        # the same on each member of a negation-reversal orbit.  Compare
        # the sweep's counts and clipped witnesses with an ascending loop
        # over plain tuples.
        real_rv, real_balanced = lemmalab.run_vector_of, lemmalab.is_balanced

        def corrupted_rv(rs):
            rv = real_rv(rs)
            if rs.gamma != 4:
                return rv
            return RunVector(rv.r_tilde, rv.r[:-1] + (rv.r[-1] + 1,))

        monkeypatch.setattr(lemmalab, "run_vector_of", corrupted_rv)
        monkeypatch.setattr(lemmalab, "is_balanced", lambda rs: real_balanced(rs) != (rs.gamma == 3))
        report = sweep(9, SEQUENCE_TARGETS)
        by_key = {(rec.target, rec.n): rec for rec in report.records}
        orbit_sizes = {"theorem1": set(), "delta": set(), "prop-skew": set()}
        for n in range(1, 10):
            expected = {"theorem1": [], "delta": [], "prop-skew": []}
            for elems in all_sign_tuples(n):  # ascending mask order
                gamma = len(brute_runs(elems))
                text = "".join("+" if x == 1 else "-" for x in elems)
                negated = tuple(-x for x in elems)
                orbit_size = len({elems, negated, elems[::-1], negated[::-1]})
                if gamma == 4:
                    c = brute_aperiodic(elems)
                    k = n - 1
                    r_true = -(c[k + 1] - 2 * c[k] + c[k - 1]) // 2
                    expected["theorem1"].append({"instance": text, "k": k, "residual": 2})
                    expected["delta"].append(
                        {
                            "instance": text,
                            "k": k,
                            "delta": brute_delta_autocorrelation(elems, k),
                            "r_k": r_true + 1,
                        }
                    )
                    orbit_sizes["theorem1"].add(orbit_size)
                    orbit_sizes["delta"].add(orbit_size)
                if gamma == 3 and n % 2:
                    skew = brute_is_skew_symmetric(elems)
                    expected["prop-skew"].append(
                        {"instance": text, "skew_symmetric": skew, "balanced": not skew}
                    )
                    orbit_sizes["prop-skew"].add(orbit_size)
            for target, failures in expected.items():
                if target == "prop-skew" and n % 2 == 0:
                    continue
                rec = by_key[(target, n)]
                assert rec.failure_count == len(failures)
                assert list(rec.failures) == failures[:10]
        assert all(sizes == {2, 4} for sizes in orbit_sizes.values())
        assert by_key[("theorem1", 9)].failure_count == 112  # 2 * C(8, 3) > 10
        assert by_key[("prop-skew", 9)].failure_count == 56  # 2 * C(8, 2) > 10

    def test_sweep_evaluates_each_orbit_exactly_once(self, monkeypatch):
        # no output can show a skipped orbit, since correct code never
        # fails, so record the masks the sweep evaluates instead
        real = lemmalab.packed_rle
        evaluated = {}

        def recording(x, n):
            evaluated.setdefault(n, []).append(x)
            return real(x, n)

        monkeypatch.setattr(lemmalab, "packed_rle", recording)
        sweep(14, SEQUENCE_TARGETS)
        assert sorted(evaluated) == list(range(1, 15))
        for n, masks in evaluated.items():
            full = (1 << n) - 1
            covered = set()
            for x in masks:
                y = int(format(x, f"0{n}b")[::-1], 2)
                orbit = {x, x ^ full, y, y ^ full}
                assert covered.isdisjoint(orbit), (n, x)
                covered |= orbit
            assert covered == set(range(1 << n)), n

    @pytest.mark.parametrize("workers", [1, 2])
    def test_joint_sweep_equals_single_target_sweeps(self, monkeypatch, workers):
        # a pass over one length evaluates every requested target on shared
        # state; each target's records must be those of sweeping it alone.
        # Two CPUs and workers=2 fork a real child.
        _usable_cpus(monkeypatch, 2)
        cases = [
            (15, LEMMA_IDS + ("p-odd",)),
            (10, ("theorem1", "delta", "prop-skew")),
            (11, ("p-odd", "L1", "delta", "theorem1")),
        ]
        for n_max, targets in cases:
            joint = sweep(n_max, targets, workers=workers)
            alone = [sweep(n_max, (target,)) for target in sorted(targets, key=SWEEP_TARGETS.index)]
            assert joint.records == tuple(rec for report in alone for rec in report.records)
            assert joint.complete and all(report.complete for report in alone)

    def test_limit_clamps_and_flags_incomplete(self, monkeypatch):
        monkeypatch.setitem(SWEEP_LIMITS, "theorem1", 6)
        report = sweep(8, ("theorem1",))
        assert not report.complete
        assert max(rec.n for rec in report.records) == 6
        full = sweep(6, ("theorem1",))
        assert full.complete and full.ok

    def test_worker_determinism(self):
        serial = sweep(9, ("theorem1", "L1", "L5"), workers=1)
        parallel = sweep(9, ("theorem1", "L1", "L5"), workers=3)
        assert serial == parallel

    def test_pool_size_is_clamped(self, monkeypatch):
        # without an affinity mask the core count caps the size
        monkeypatch.delattr(lemmalab.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(lemmalab.os, "cpu_count", lambda: 4)
        assert lemmalab.pool_size(10**9, 50) == 4
        assert lemmalab.pool_size(10**9, 3) == 3
        assert lemmalab.pool_size(2, 50) == 2
        assert lemmalab.pool_size(1, 50) == 1
        assert lemmalab.pool_size(0, 50) == 1
        assert lemmalab.pool_size(8, 0) == 1
        monkeypatch.setattr(lemmalab.os, "cpu_count", lambda: None)
        assert lemmalab.pool_size(10**9, 50) == 1
        # where there is one, the affinity mask caps it, not the core count
        monkeypatch.setattr(lemmalab.os, "cpu_count", lambda: 64)
        _usable_cpus(monkeypatch, 3)
        assert lemmalab.pool_size(10**9, 50) == 3
        assert lemmalab.pool_size(2, 50) == 2
        assert lemmalab.pool_size(10**9, 1) == 1
        # without fork the sweep runs in-process
        monkeypatch.delattr(lemmalab.os, "fork")
        assert lemmalab.pool_size(10**9, 50) == 1
        assert sweep(9, ("theorem1", "L1"), workers=3) == sweep(9, ("theorem1", "L1"))

    def test_sweep_starts_a_clamped_pool(self, monkeypatch):
        # the caller computes one share, so two CPUs allow one child
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        _usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(lemmalab.os, "fork", counting_fork)
        report = sweep(5, ("L1",), workers=10**9)
        assert len(forks) == 1
        _assert_all_reaped()
        assert report == sweep(5, ("L1",), workers=1)

    @staticmethod
    def _hook_sequence_units(monkeypatch, hook):
        """Two usable CPUs, and hook(n) runs before each sequence unit.
        ``sweep(12, ("theorem1",), workers=2)`` then computes n = 12 in
        the caller and n = 11..1 in one child."""
        _usable_cpus(monkeypatch, 2)
        real = lemmalab._sweep_sequences

        def hooked(n, targets):
            hook(n)
            return real(n, targets)

        monkeypatch.setattr(lemmalab, "_sweep_sequences", hooked)

    def test_child_exception_reaches_the_caller(self, monkeypatch):
        def hook(n):
            if n == 5:
                raise ValueError(f"unit 5 failed in process {os.getpid()}")

        self._hook_sequence_units(monkeypatch, hook)
        with pytest.raises(ValueError, match=r"^unit 5 failed in process \d+$") as info:
            sweep(12, ("theorem1",), workers=2)
        assert type(info.value) is ValueError
        assert info.value.args[0] != f"unit 5 failed in process {os.getpid()}"
        _assert_all_reaped()

    def test_child_without_result_raises_runtime_error(self, monkeypatch):
        caller = os.getpid()

        def hook(n):
            if n == 5:
                assert os.getpid() != caller, "unit 5 ran in the caller"
                os._exit(3)

        self._hook_sequence_units(monkeypatch, hook)
        with pytest.raises(RuntimeError, match="exit status 3"):
            sweep(12, ("theorem1",), workers=2)
        _assert_all_reaped()

    def test_no_child_outlives_a_sweep(self, monkeypatch):
        caller = os.getpid()

        def hook(n):
            if n == 12:
                assert os.getpid() == caller, "unit 12 ran in a child"
                raise KeyError("the caller's share failed")

        _usable_cpus(monkeypatch, 2)
        sweep(12, SWEEP_TARGETS, workers=2)
        _assert_all_reaped()
        self._hook_sequence_units(monkeypatch, hook)
        with pytest.raises(KeyError, match="the caller's share failed"):
            sweep(12, ("theorem1",), workers=2)
        _assert_all_reaped()

    def test_records_serialize(self):
        report = sweep(5, ("L1",))
        payload = report.to_json()
        assert payload["ok"] is True
        assert payload["records"][0]["target"] == "L1"
        assert set(payload["records"][0]) == {
            "target", "n", "population", "hypotheses_met_count",
            "failure_count", "failures",
        }


class TestIdentitySoak:
    def test_residual_and_delta_on_large_random_population(self):
        # 10^4 random sequences up to length 256: the second-difference
        # residual vanishes and the delta oracle matches at every shift
        rng = random.Random(65537)
        for _ in range(10_000):
            n = rng.randint(1, 256)
            seq = BinarySequence(tuple(rng.choice((1, -1)) for _ in range(n)))
            # C and the run vector once each; theorem1_residual(seq) would
            # compute both again for the residual checked first below
            c = aperiodic_autocorrelations(seq)
            r = run_vector(seq).r
            deltas = delta_autocorrelations(seq)
            for k in range(1, n):
                d = deltas[k - 1]
                assert c[k + 1] - 2 * c[k] + c[k - 1] + 2 * r[k - 1] == 0
                assert d == 2 * r[k - 1]
                assert d == -(c[k + 1] - 2 * c[k] + c[k - 1])


class TestBarkerBalancedProposition:
    def test_every_found_odd_barker_is_balanced_with_half_runs(self):
        from runvec.search import find_barker_sequences
        from runvec.seqcore import encode_rle, is_balanced, run_structure

        hits = 0
        for n in range(1, 14, 2):
            for seq in find_barker_sequences(n, "skew"):
                rle = encode_rle(seq)
                assert is_balanced(run_structure(rle))
                assert rle.gamma == (n + 1) // 2
                hits += 1
        assert hits == 22  # 2 + 4 per populated length


class TestJsonShapes:
    def test_profile_verdict_predictions(self):
        # the values the records' former JSON shapes carried, read as attributes
        profile = balanced_profile(rle((3, 2, 1, 1)))
        assert (profile.p, profile.nu, profile.q) == (3, 1, 2)
        assert (profile.alpha, profile.s_nu_plus_1, profile.k0) == (0, 5, 8)
        verdict = check_lemma("L5", rle((3, 2, 1, 1)), k=6)
        assert verdict.lemma_id == "L5"
        assert verdict.instance == "+,3,2,1,1"
        assert verdict.hypotheses_met is True
        assert verdict.conclusion_holds is True
        assert verdict.witness is None
        pred = barker_predictions(3)
        assert (pred.n, pred.c, pred.r, pred.r_tilde) == (3, (0, -1), (-1, -1), (-1, -1))


class TestBalancedRunTuples:
    def test_counts_and_membership(self):
        assert balanced_run_tuples(1) == ((1,),)
        assert balanced_run_tuples(3) == ((1, 2), (2, 1))
        n7 = balanced_run_tuples(7)
        assert len(n7) == 8 and (3, 2, 1, 1) in n7
        for n in range(1, 18, 2):
            assert len(balanced_run_tuples(n)) == 1 << ((n + 1) // 2 - 1)

    def test_every_tuple_is_balanced_to_11(self):
        for n in range(1, 12, 2):
            for runs in balanced_run_tuples(n):
                assert sum(runs) == n
                assert brute_is_balanced(runs)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            balanced_run_tuples(4)


# ---------------------------------------------------------------------------
# Negative controls for the parameterised balanced targets.  No sweep fails
# on correct code, so each corruption below breaks known parameters of the
# state the evaluators read; the expected witnesses are predicted from the
# plain tuples of tests/oracles.py, assuming the lemma holds uncorrupted.
# ---------------------------------------------------------------------------


def _negate_odd(table):
    return {k: -v if k & 1 else v for k, v in table.items()}


def _corrupt_f_t(rs):
    """f_t negated at odd boundaries: L2 fails at every odd k outside S."""
    return RunStructure(rs.s, rs.t, rs.s_set, rs.t_set, rs.gamma, rs.n, rs.f_s, _negate_odd(rs.f_t))


def _corrupt_f_s(rs):
    """f_s negated at odd boundaries: L3 fails at every odd k in S but 1."""
    return RunStructure(rs.s, rs.t, rs.s_set, rs.t_set, rs.gamma, rs.n, _negate_odd(rs.f_s), rs.f_t)


def _corrupt_s(rs):
    """Every boundary after the first moved up by one (still increasing):
    L6 sees each width from mu = 2 on one larger."""
    s = rs.s[:1] + tuple([v + 1 for v in rs.s[1:]])
    return RunStructure(s, rs.t, rs.s_set, rs.t_set, rs.gamma, rs.n, rs.f_s, rs.f_t)


def _corrupt_r_tilde(rv):
    """r~_k raised by 2 at every k divisible by 3: L4 and L5 fail there."""
    r_tilde = tuple([v + 2 if k % 3 == 0 else v for k, v in enumerate(rv.r_tilde, start=1)])
    return RunVector(r_tilde, rv.r)


CORRUPTIONS = {
    "f_t": ("run_structure", _corrupt_f_t),
    "f_s": ("run_structure", _corrupt_f_s),
    "s": ("run_structure", _corrupt_s),
    "r_tilde": ("run_vector_of", _corrupt_r_tilde),
}


def _corrupt(monkeypatch, name):
    attr, corrupt = CORRUPTIONS[name]
    real = getattr(lemmalab, attr)
    monkeypatch.setattr(lemmalab, attr, lambda arg: corrupt(real(arg)))


def _text(runs):
    return ",".join(["+"] + [str(r) for r in runs])


def _expected_l2(runs):
    # f = f_s + f_t = f_t off S, so the corrupted pair is (-f_t, -f_t)
    n = sum(runs)
    _, _, s_set, _ = brute_prefix_structure(runs)
    _, f_t = brute_signs(runs)
    met, failed = 0, []
    for k in range(1, n):
        if k in s_set:
            continue
        met += 1
        if k % 2:
            mu = brute_rank(runs, k)
            failed.append(
                (k, {"k": k, "mu": mu, "f": -f_t[k], "f_t": -f_t[k], "expected": -((-1) ** (k + mu))})
            )
    return met, failed


def _expected_l3(runs):
    _, _, s_set, t_set = brute_prefix_structure(runs)
    f_s, f_t = brute_signs(runs)

    def f(k):
        return f_s.get(k, 0) + f_t.get(k, 0)

    met, failed = 0, []
    for k in sorted(s_set):
        if not k % 2:
            continue
        met += 1
        if k > 1:
            failed.append((k, {"k": k, "part": "before", "f": -f_s[k], "f_before": f(k - 1)}))
        elif 2 in t_set:
            failed.append((k, {"k": k, "part": "after", "f": -f_s[k], "f_after": f(2)}))
    return met, failed


def _expected_l4(runs):
    n = sum(runs)
    _, _, s_set, _ = brute_prefix_structure(runs)
    failed = [
        (k, {"k": k, "mu": brute_rank(runs, k), "u": brute_u(runs, k) + 1,
             "doubled_boundary": k % 2 == 0 and k // 2 in s_set})
        for k in range(3, n, 3)
    ]
    return n - 1, failed


def _expected_l5(runs):
    _, _, s_set, _ = brute_prefix_structure(runs)
    f_s, _ = brute_signs(runs)
    failed = [
        (k, {"k": k, "r_tilde_k": f_s[k] + 2 * brute_u(runs, k) + 2,
             "doubled_boundary": k % 2 == 0 and k // 2 in s_set})
        for k in sorted(s_set)
        if k % 3 == 0
    ]
    return len(s_set), failed


def _expected_l6(runs):
    # the true widths pass the tail test, so one more tail run decides
    gamma = len(runs)
    s, _, _, _ = brute_prefix_structure(runs)
    met, failed = 0, []
    for mu in range(1, gamma):
        if any(r < 2 for r in runs[: mu - 1]):
            continue
        met += 1
        if mu == 1:
            continue
        width = s[mu - 1] + 1 - mu
        if width >= gamma:
            failed.append((mu, {"mu": mu, "s_mu": s[mu - 1] + 1, "width": width}))
        elif runs[gamma - width] > 2:
            failed.append(
                (mu, {"mu": mu, "tail_index": gamma + 1 - width, "run": runs[gamma - width]})
            )
    return met, failed


class TestNegativeControls:
    @pytest.mark.parametrize(
        "target,corruption,expected",
        [
            ("L2", "f_t", _expected_l2),
            ("L3", "f_s", _expected_l3),
            ("L4", "r_tilde", _expected_l4),
            ("L5", "r_tilde", _expected_l5),
            ("L6", "s", _expected_l6),
        ],
    )
    def test_sweep_reports_exactly_the_corrupted_params(self, monkeypatch, target, corruption,
                                                        expected):
        _corrupt(monkeypatch, corruption)
        report = sweep(13, (target,))
        assert not report.ok
        assert [rec.n for rec in report.records] == list(range(1, 14, 2))
        total_met = total_failed = most_failed = 0
        for rec in report.records:
            population = brute_balanced_tuples(rec.n)
            met, witnesses = 0, []
            for runs in population:
                count, failed = expected(runs)
                met += count
                witnesses += [{"instance": _text(runs), "param": p, **w} for p, w in failed]
            assert rec.population == len(population)
            assert rec.hypotheses_met_count == met
            assert rec.failure_count == len(witnesses)
            assert list(rec.failures) == witnesses[:10]
            total_met += met
            total_failed += len(witnesses)
            most_failed = max(most_failed, len(witnesses))
        assert most_failed > 10  # the witness list is clipped somewhere
        assert 0 < total_failed < total_met  # and some met parameters still pass


class TestSweepMatchesCheckLemma:
    @pytest.mark.parametrize("corruption", [None, *CORRUPTIONS])
    def test_counts_and_failures_equal_a_check_lemma_loop(self, monkeypatch, corruption):
        # the sweep over every parameter against one check_lemma call per
        # in-range parameter: k in 1..n-1, mu in 1..gamma
        if corruption is not None:
            _corrupt(monkeypatch, corruption)
        targets = ("L2", "L3", "L4", "L5", "L6")
        if corruption == "s":
            # no run vector fits the moved boundaries, which also leave s
            # and its set S disagreeing; L2 and L6 read each consistently
            targets = ("L2", "L6")
        by_key = {(rec.target, rec.n): rec for rec in sweep(15, targets).records}
        assert len(by_key) == len(targets) * 8
        for n in range(1, 16, 2):
            population = brute_balanced_tuples(n)
            for target in targets:
                met, witnesses = 0, []
                for runs in population:
                    instance = rle(runs)
                    name, top = ("mu", len(runs)) if target == "L6" else ("k", n - 1)
                    for param in range(1, top + 1):
                        verdict = check_lemma(target, instance, **{name: param})
                        if not verdict.hypotheses_met:
                            assert verdict.conclusion_holds is None
                            continue
                        met += 1
                        if not verdict.conclusion_holds:
                            witnesses.append(
                                {"instance": instance.to_text(), "param": param, **verdict.witness}
                            )
                rec = by_key[(target, n)]
                assert rec.population == len(population)
                assert rec.hypotheses_met_count == met
                assert rec.failure_count == len(witnesses)
                assert list(rec.failures) == witnesses[:10]


class TestMutantControls:
    # the L7n window is n-k0-1..n-k0+2; (3,2,2,2,1,1) has n = 11, k0 = 8
    @pytest.mark.parametrize("j,holds", [(1, False), (2, True), (5, True), (6, False)])
    def test_l7n_reads_exactly_its_window(self, monkeypatch, j, holds):
        instance = rle((3, 2, 2, 2, 1, 1))
        assert balanced_profile(instance).k0 == 8
        c = [0] * 12
        c[j] = 3  # the only |C_j| >= 3
        monkeypatch.setattr(lemmalab, "aperiodic_autocorrelations", lambda seq: tuple(c))
        verdict = check_lemma("L7n", instance)
        assert verdict.hypotheses_met
        assert verdict.conclusion_holds is holds
        if not holds:
            assert verdict.witness == {"k0": 8, "window": [2, 3, 4, 5], "values": [0, 0, 0, 0]}

    def test_profile_rejects_a_pivot_beyond_gamma_plus_one_at_p3(self, monkeypatch):
        # (3,5,1) passes every earlier cross-check once taken as balanced:
        # last run 1, nu = 1, q = 5, s_2 = 8 > gamma + 1 = 4
        monkeypatch.setattr(lemmalab, "is_balanced", lambda rs: True)
        with pytest.raises(RuntimeError, match="pivot boundary exceeds gamma"):
            balanced_profile(rle((3, 5, 1)))
