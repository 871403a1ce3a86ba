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
    run_structure,
    run_vector,
    run_vector_of,
    trusted_rle,
)


from oracles import (
    all_sign_tuples,
    brute_aperiodic,
    brute_balanced_tuples,
    brute_canonical,
    brute_delta_autocorrelation,
    brute_is_balanced,
    brute_is_skew_symmetric,
    brute_lemma,
    brute_prefix_structure,
    brute_profile,
    brute_rank,
    brute_runs,
    brute_signs,
    brute_u,
    compositions,
    derived_barker_profile,
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

    def test_vector_matches_brute_to_12(self):
        for n in range(1, 13):
            for elems in all_sign_tuples(n):
                deltas = delta_autocorrelations(BinarySequence(elems))
                assert deltas == tuple(
                    brute_delta_autocorrelation(elems, k) for k in range(1, n)
                )

    @pytest.mark.parametrize("n", [33, 34])
    def test_matches_brute_at_the_8_bit_switch(self, n):
        # the last length of 8-bit slots and the first of 16-bit ones
        rng = random.Random(n)
        for _ in range(20):
            elems = tuple(rng.choice((1, -1)) for _ in range(n))
            deltas = delta_autocorrelations(BinarySequence(elems))
            assert deltas == tuple(brute_delta_autocorrelation(elems, k) for k in range(1, n))

    def test_closed_forms_at_every_slot_width(self):
        # the product reads 8-bit slots to n = 33, 16-bit ones to 8193 and
        # 32-bit ones beyond.  The constant sequence has delta_k = 0; the
        # alternating one has d = (1, -2, 2, ..., +-1), so
        # delta_k = (-1)**k * 4(n - k), whose delta_1 = -4(n - 1) overflows
        # the narrower slot one length past each switch
        for n in (*range(1, 40), 8192, 8193, 8194, 8195, 10_000):
            constant = BinarySequence((1,) * n)
            assert delta_autocorrelations(constant) == (0,) * (n - 1), n
            alternating = BinarySequence(tuple([(-1) ** i for i in range(n)]))
            want = tuple([(-1) ** k * 4 * (n - k) for k in range(1, n)])
            assert delta_autocorrelations(alternating) == want, n

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
    def test_equals_the_oracle_on_every_balanced_tuple_to_15(self):
        checked = 0
        for n in range(1, 16, 2):
            for runs in brute_balanced_tuples(n):
                if runs[0] == 1:
                    assert brute_profile(runs) is None
                    continue
                got, want = balanced_profile(rle(runs)), brute_profile(runs)
                assert (got.p, got.nu, got.q, got.alpha, got.s_nu_plus_1, got.k0) == want, runs
                checked += 1
        assert checked == 127  # half the tuples at each n >= 3 start with a run above 1
        assert brute_profile((2, 2)) is None and brute_profile((3, 3, 1)) is None

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

    def test_l1_holds_on_every_encoding_to_10(self):
        # unbalanced encodings too: the parity test must catch an even
        # entry whatever its residue mod 4, such as the -2 of (1, 1)
        for n in range(1, 11):
            for runs in compositions(n):
                verdict = check_lemma("L1", rle(runs))
                assert verdict.hypotheses_met and verdict.conclusion_holds, runs

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
                rank = inst.tables[0]
                assert len(rank) == n + 1
                for k in range(1, n + 1):
                    assert rank[k] == boundary_rank_interval(inst.rs, k) == brute_rank(runs, k)

    def test_sign_tables_match_the_oracle_on_every_balanced_tuple_to_15(self):
        for n in range(1, 16, 2):
            for runs in brute_balanced_tuples(n):
                _, f, f_t = lemmalab._Instance(rle(runs)).tables
                want_s, want_t = brute_signs(runs)
                assert [v - w for v, w in zip(f, f_t)] == [want_s.get(k, 0) for k in range(n + 1)]
                assert f_t == [want_t.get(k, 0) for k in range(n + 1)]

    def test_parameter_errors(self):
        instance = rle((3, 2, 1, 1))
        with pytest.raises(ValueError, match="unknown lemma_id"):
            check_lemma("L9", instance)
        with pytest.raises(ValueError, match="requires parameter k"):
            check_lemma("L2", instance)
        with pytest.raises(ValueError, match=r"^k must be in \[1, 6\], got 0$"):
            check_lemma("L4", instance, k=0)
        with pytest.raises(ValueError, match=r"^k must be in \[1, 6\], got 7$"):
            check_lemma("L4", instance, k=7)
        with pytest.raises(ValueError, match="requires parameter mu"):
            check_lemma("L6", instance)
        with pytest.raises(ValueError, match=r"^mu must be in \[1, 4\], got 5$"):
            check_lemma("L6", instance, mu=5)

    def test_parameters_the_verifier_does_not_take(self):
        instance = rle((3, 2, 1, 1))
        with pytest.raises(ValueError, match=r"^L1 takes no parameter k$"):
            check_lemma("L1", instance, k=99)
        with pytest.raises(ValueError, match=r"^p-odd takes no parameter mu$"):
            check_lemma("p-odd", instance, mu=-4)
        with pytest.raises(ValueError, match=r"^L2 takes no parameter mu$"):
            check_lemma("L2", instance, k=3, mu=-7)
        # in range for the other verifier is refused too
        with pytest.raises(ValueError, match=r"^L6 takes no parameter k$"):
            check_lemma("L6", instance, k=1, mu=1)
        assert check_lemma("L1", instance, k=None, mu=None).conclusion_holds


def lemma_disagreements(population):
    """Every (target, runs, param, check_lemma's (met, holds), brute_lemma's)
    where the two disagree, over L2-L7n and p-odd on each run tuple of
    ``population`` at every parameter check_lemma takes (k in 1..n-1 for
    L2-L5, mu in 1..gamma for L6, none for L7, L7n and p-odd), and the
    number of triples compared: 4 * (n - 1) + gamma + 3 per tuple."""
    compared, disagreements = 0, []
    for runs in population:
        instance = rle(runs)
        for target in ("L2", "L3", "L4", "L5", "L6", "L7", "L7n", "p-odd"):
            if target in ("L7", "L7n", "p-odd"):
                name, params = None, (None,)
            elif target == "L6":
                name, params = "mu", range(1, len(runs) + 1)
            else:
                name, params = "k", range(1, sum(runs))
            for param in params:
                verdict = check_lemma(target, instance, **({name: param} if name else {}))
                got = (verdict.hypotheses_met, verdict.conclusion_holds)
                want = brute_lemma(target, runs, param)
                compared += 1
                if got != want:
                    disagreements.append((target, runs, param, got, want))
    return compared, disagreements


class TestLemmaStatements:
    """check_lemma against oracles.brute_lemma, which reads each statement
    of L2-L7n and p-odd off the plain tuples with no runvec code."""

    def test_every_balanced_tuple_to_15(self):
        population = [runs for n in range(1, 16, 2) for runs in brute_balanced_tuples(n)]
        compared, disagreements = lemma_disagreements(population)
        assert disagreements == []
        assert compared == sum(4 * (sum(runs) - 1) + len(runs) + 3 for runs in population) == 14862

    def test_every_composition_to_10(self):
        # the unbalanced compositions pin each lemma's assumption of a
        # balanced encoding: none of them but p-odd may meet a hypothesis
        population = [runs for n in range(1, 11) for runs in compositions(n)]
        compared, disagreements = lemma_disagreements(population)
        assert disagreements == []
        assert compared == sum(4 * (sum(runs) - 1) + len(runs) + 3 for runs in population) == 40965

    def test_the_pivot_statements_are_met_and_hold(self):
        # the comparison above would pass on two oracles that never meet a
        # hypothesis; L7, L7n and p-odd must each be met, and hold, somewhere
        population = [runs for n in range(1, 16, 2) for runs in brute_balanced_tuples(n)]
        met = {
            target: [runs for runs in population if brute_lemma(target, runs, None)[0]]
            for target in ("L7", "L7n", "p-odd")
        }
        assert {t: len(found) for t, found in met.items()} == {"L7": 12, "L7n": 12, "p-odd": 5}
        assert all(brute_lemma(t, runs, None)[1] for t, found in met.items() for runs in found)


class TestExactIntParameters:
    """Integer parameters must be exactly int, as sequence elements are."""

    def test_check_lemma_k_float(self):
        with pytest.raises(ValueError, match=r"^k must be an int, got 2\.0$"):
            check_lemma("L2", rle((3, 2, 1, 1)), k=2.0)

    def test_check_lemma_mu_float(self):
        with pytest.raises(ValueError, match=r"^mu must be an int, got 1\.0$"):
            check_lemma("L6", rle((3, 2, 1, 1)), mu=1.0)

    def test_check_lemma_k_bool(self):
        with pytest.raises(ValueError, match=r"^k must be an int, got True$"):
            check_lemma("L2", rle((3, 2, 1, 1)), k=True)

    def test_sweep_n_max_float(self):
        with pytest.raises(ValueError, match=r"^n_max must be an int, got 5\.0$"):
            sweep(5.0, ("L1",))

    def test_sweep_n_max_bool(self):
        with pytest.raises(ValueError, match=r"^n_max must be an int, got True$"):
            sweep(True, ("L1",))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_sweep_workers_below_one(self, workers):
        with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
            sweep(5, ("L1",), workers=workers)

    def test_sweep_workers_str(self):
        with pytest.raises(ValueError, match=r"^workers must be an int, got '2'$"):
            sweep(5, ("L1",), workers="2")

    def test_barker_predictions_float(self):
        with pytest.raises(ValueError, match=r"^n must be an int, got 3\.0$"):
            barker_predictions(3.0)

    def test_balanced_run_tuples_float_even_after_the_int(self):
        balanced_run_tuples(5)  # cached: a float equal to it must still miss
        with pytest.raises(ValueError, match=r"^n must be an int, got 5\.0$"):
            balanced_run_tuples(5.0)

    def test_delta_autocorrelation_float(self):
        with pytest.raises(ValueError, match=r"^k must be an int, got 2\.0$"):
            delta_autocorrelation(BinarySequence.from_text("+++-"), 2.0)


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

    def test_flipped_mod4_sign_breaks_the_derivation(self):
        # negative control for criterion 6: 13 = 1 mod 4 takes +1 at even
        # shifts, and the derivation from -1 must not reproduce the
        # predictions
        pred = barker_predictions(13)
        predicted = (pred.c, pred.r, pred.r_tilde)
        assert derived_barker_profile(13) == predicted
        flipped = derived_barker_profile(13, even_sign=-1)
        assert flipped != predicted
        assert flipped[0] != pred.c and flipped[1] != pred.r and flipped[2] != pred.r_tilde

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
        # every |C_k| <= 2, with C_1 = 2: the Barker bound is 1, not 2
        assert not check_p_odd(rle((5, 2, 1, 1))).hypotheses_met
        assert not check_p_odd(rle((1, 2))).hypotheses_met  # p = 1
        assert not check_p_odd(rle((2, 2))).hypotheses_met  # not Barker, even-ish

    def test_is_check_lemma_p_odd(self):
        # one entry per verdict: check_p_odd is check_lemma under the sweep's id
        instances = [rle(runs) for n in range(1, 16, 2) for runs in balanced_run_tuples(n)]
        instances += [
            rle(runs, sign) for n in range(1, 11) for runs in compositions(n) for sign in (1, -1)
        ]
        assert len(instances) == 255 + 2 * 1023
        for instance in instances:
            verdict = check_p_odd(instance)
            assert verdict == check_lemma("p-odd", instance)
            assert verdict.lemma_id == "p-odd"


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

    def test_closed_form_hypothesis_counts_to_25(self):
        # on a balanced tuple L1 holds one verdict, L4 one per k, and L2
        # and L5 one per k off and on S, which has gamma - 1 = (n-1)/2
        # points: a loop that skips a k or counts one twice breaks these
        by_key = {(rec.target, rec.n): rec for rec in sweep(25, ("L1", "L2", "L4", "L5")).records}
        for n in range(1, 26, 2):
            pop = 1 << (n - 1) // 2
            half = pop * (n - 1) // 2
            expected = {"L1": pop, "L2": half, "L4": pop * (n - 1), "L5": half}
            for target, met in expected.items():
                rec = by_key[(target, n)]
                assert (rec.population, rec.hypotheses_met_count) == (pop, met), (target, n)
                assert rec.failure_count == 0

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
        # names are checked before the caps
        with pytest.raises(ValueError, match=r"^unknown sweep target 'bogus'"):
            sweep(99, ("theorem1", "bogus"))

    def test_empty_and_unknown_lists_are_refused_before_any_fork(self, monkeypatch):
        def fork():
            raise AssertionError("the sweep forked before checking its request")

        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(ValueError, match=r"^n_max must be >= 1, got 0$"):
            sweep(0, (), workers=2)
        with pytest.raises(ValueError, match=r"^no sweep targets given$"):
            sweep(5, (), workers=2)
        # names are case-sensitive here; the CLI maps its spellings first
        message = "unknown sweep target 'l1'; choose from " + ", ".join(SWEEP_TARGETS)
        with pytest.raises(ValueError) as exc:
            sweep(5, ("l1",), workers=2)
        assert str(exc.value) == message

    def test_failure_witnesses_decode_the_failing_masks(self, monkeypatch):
        # No sweep fails on correct code, so corrupt the last reflected
        # run-vector entry of every three-run instance and compare the
        # sweep's witnesses with a loop over plain tuples.
        real = lemmalab._run_vector_of_sums

        def corrupted(s, t, n):
            s, t = tuple(s), tuple(t)
            rv = real(s, t, n)
            if len(s) != 3:
                return rv
            return RunVector(rv.r_tilde, rv.r[:-1] + (rv.r[-1] + 1,))

        monkeypatch.setattr(lemmalab, "_run_vector_of_sums", corrupted)
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

    def test_one_corrupted_delta_slot_is_its_witness(self, monkeypatch):
        # Add one to the product's coefficient n - k, which holds delta_k,
        # for one sequence only, the least of its orbit: the delta sweep
        # must report shift k with that value for each orbit member, and
        # nothing else.
        n, k = 9, 3
        rep = brute_canonical((1, -1, -1, 1, 1, 1, -1, 1, -1))
        negated = tuple(-x for x in rep)
        orbit = sorted({rep, negated, rep[::-1], negated[::-1]}, key=lambda e: [-x for x in e])
        assert len(orbit) == 4 and orbit[0] == rep
        target = bytes([2 + b - a for a, b in zip((0, *rep), (*rep, 0))])  # d_i + 2
        real = lemmalab._reflected_product

        def corrupted(lifted, lift, width):
            product = real(lifted, lift, width)
            if lifted == target:
                product += 1 << 8 * width * (n - k)
            return product

        monkeypatch.setattr(lemmalab, "_reflected_product", corrupted)
        report = sweep(n, ("delta",))
        assert [rec.failure_count for rec in report.records] == [0] * (n - 1) + [4]
        c = brute_aperiodic(rep)
        witness = {
            "k": k,
            "delta": brute_delta_autocorrelation(rep, k) + 1,
            "r_k": -(c[k + 1] - 2 * c[k] + c[k - 1]) // 2,
        }
        texts = ["".join("+" if x == 1 else "-" for x in e) for e in orbit]
        assert list(report.records[-1].failures) == [{"instance": t, **witness} for t in texts]

    def test_orbit_witnesses_are_listed_by_ascending_mask(self, monkeypatch):
        # Corrupt the last reflected run-vector entry of every four-run
        # instance and flip balancedness of every three-run one: both are
        # the same on each member of a negation-reversal orbit.  Compare
        # the sweep's counts and clipped witnesses with an ascending loop
        # over plain tuples.
        real_rv, real_balanced = lemmalab._run_vector_of_sums, lemmalab.is_balanced

        def corrupted_rv(s, t, n):
            s, t = tuple(s), tuple(t)
            rv = real_rv(s, t, n)
            if len(s) != 4:
                return rv
            return RunVector(rv.r_tilde, rv.r[:-1] + (rv.r[-1] + 1,))

        monkeypatch.setattr(lemmalab, "_run_vector_of_sums", corrupted_rv)
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
        # fails, so record the masks the sweep evaluates instead: it reads
        # the runs of each evaluated mask once
        real = lemmalab.packed_runs
        evaluated = {}

        def recording(x, n):
            evaluated.setdefault(n, []).append(x)
            return real(x, n)

        monkeypatch.setattr(lemmalab, "packed_runs", recording)
        sweep(14, SEQUENCE_TARGETS)
        assert sorted(evaluated) == list(range(1, 15))
        assert sum(len(evaluated[n]) for n in range(1, 13)) == 2142
        for n, masks in evaluated.items():
            # Burnside: the identity fixes 2**n masks, negation none, reversal
            # 2**ceil(n/2) and negated reversal 2**(n/2) at even n only
            fixed = (1 << n) + (1 << (n + 1) // 2) + (0 if n % 2 else 1 << n // 2)
            assert len(masks) == fixed // 4, n
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

    def test_limit_refuses_beyond_the_cap(self, monkeypatch):
        monkeypatch.setitem(SWEEP_LIMITS, "theorem1", 6)
        with pytest.raises(ValueError, match=r"^target theorem1 limited to n <= 6, requested 7$"):
            sweep(7, ("theorem1",))
        full = sweep(6, ("theorem1",))
        assert full.complete and full.ok
        assert max(rec.n for rec in full.records) == 6

    def test_over_cap_target_is_refused_among_others(self):
        with pytest.raises(ValueError) as info:
            sweep(20, ("L1", "theorem1"))
        assert str(info.value) == "target theorem1 limited to n <= 18, requested 20"

    def test_first_over_cap_target_in_the_callers_order_is_named(self):
        with pytest.raises(ValueError) as info:
            sweep(19, ("delta", "theorem1"))
        assert str(info.value) == "target delta limited to n <= 18, requested 19"
        with pytest.raises(ValueError) as info:
            sweep(19, ("theorem1", "delta"))
        assert str(info.value) == "target theorem1 limited to n <= 18, requested 19"

    def test_refused_sweep_forks_nothing(self, monkeypatch):
        forks = []

        def recording_fork():
            forks.append(None)
            raise OSError("fork called")

        _usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(lemmalab.os, "fork", recording_fork)
        with pytest.raises(ValueError, match=r"^target theorem1 limited to n <= 18"):
            sweep(99, ("theorem1",), workers=2)
        assert forks == []

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

    def test_equals_the_composition_filter_to_17(self):
        for n in range(1, 18, 2):
            assert balanced_run_tuples(n) == tuple(brute_balanced_tuples(n))

    def test_is_cached(self):
        # the benchmark reads cache_info(), and each length grows from the
        # cached one two below
        before = balanced_run_tuples.cache_info()
        assert balanced_run_tuples(9) is balanced_run_tuples(9)
        assert balanced_run_tuples.cache_info().hits > before.hits

    def test_every_tuple_is_balanced_to_11(self):
        for n in range(1, 12, 2):
            for runs in balanced_run_tuples(n):
                assert sum(runs) == n
                assert brute_is_balanced(runs)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            balanced_run_tuples(4)


class TestReversalSharing:
    # the balanced sweep builds a run vector for one member of a reversal
    # pair and hands it to the other; these check the facts that rests on
    # over the population it is used on, and count the vectors it builds

    def test_population_is_closed_under_reversal_to_21(self):
        for n in range(1, 22, 2):
            population = set(balanced_run_tuples(n))
            assert {runs[::-1] for runs in population} == population
            palindromes = [runs for runs in population if runs == runs[::-1]]
            assert palindromes == ([(1,)] if n == 1 else [])

    def test_run_vector_equals_its_reversals_to_21(self):
        for n in range(1, 22, 2):
            for runs in balanced_run_tuples(n):
                forward = run_vector_of(run_structure(trusted_rle(1, runs)))
                backward = run_vector_of(run_structure(trusted_rle(1, runs[::-1])))
                assert forward == backward, runs

    @pytest.mark.parametrize(
        "targets,calls",
        [
            (LEMMA_IDS + ("p-odd",), 1024),  # one per reversal pair, of 2 047 tuples
            (("L2", "L3", "L6", "p-odd"), 0),  # none reads the run vector
            (("L7",), 112),  # read only where the hypotheses hold
        ],
    )
    def test_sweep_builds_one_run_vector_per_reversal_pair(self, monkeypatch, targets, calls):
        real, built = lemmalab.run_vector_of, []

        def counting(rs):
            built.append(rs.n)
            return real(rs)

        monkeypatch.setattr(lemmalab, "run_vector_of", counting)
        report = sweep(21, targets, workers=1)
        assert report.ok
        assert len(built) == calls


# ---------------------------------------------------------------------------
# Negative controls for the parameterised balanced targets.  No sweep fails
# on correct code, so each corruption below breaks known parameters of the
# state the evaluators read; the expected witnesses are predicted from the
# plain tuples of tests/oracles.py, assuming the lemma holds uncorrupted.
# ---------------------------------------------------------------------------


def _negate_odd(table):
    return [-v if k & 1 else v for k, v in enumerate(table)]


def _corrupt_f_t(tables):
    """The instance's f_t negated at odd boundaries, and f = f_s + f_t with
    it: L2 fails at every odd k outside S."""
    rank, f, f_t = tables
    wrong = _negate_odd(f_t)
    return rank, [v - was + now for v, was, now in zip(f, f_t, wrong)], wrong


def _corrupt_f_s(tables):
    """The instance's f_s = f - f_t negated at odd boundaries, in f: L3
    fails at every odd k in S but 1."""
    rank, f, f_t = tables
    f_s = [v - w for v, w in zip(f, f_t)]
    return rank, [v + w for v, w in zip(_negate_odd(f_s), f_t)], f_t


def _corrupt_s(rs):
    """Every boundary after the first moved up by one (still increasing):
    L6 sees each width from mu = 2 on one larger."""
    s = rs.s[:1] + tuple([v + 1 for v in rs.s[1:]])
    return RunStructure(s, rs.t, rs.s_set, rs.t_set, rs.gamma, rs.n)


def _corrupt_r_tilde(rv):
    """r~_k raised by 2 at every k divisible by 3: L4 and L5 fail there."""
    r_tilde = tuple([v + 2 if k % 3 == 0 else v for k, v in enumerate(rv.r_tilde, start=1)])
    return RunVector(r_tilde, rv.r)


#: name -> (owner of the patched function, its name, corruption of its result)
CORRUPTIONS = {
    "f_t": (lemmalab._Instance, "_build_tables", _corrupt_f_t),
    "f_s": (lemmalab._Instance, "_build_tables", _corrupt_f_s),
    "s": (lemmalab, "run_structure", _corrupt_s),
    "r_tilde": (lemmalab, "run_vector_of", _corrupt_r_tilde),
}


def _corrupt(monkeypatch, name):
    owner, attr, corrupt = CORRUPTIONS[name]
    real = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda arg: corrupt(real(arg)))


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
    # p-odd reports the first pivot fact an instance breaks; with C patched
    # to zeros every balanced tuple looks Barker, so the facts themselves
    # decide.  (5,1,1,1,1) breaks both: s_2 = 6 is even, alpha = 1 and 7 is
    # in S, so part ii must win
    @pytest.mark.parametrize(
        "runs,part,s_nu_plus_1",
        [
            ((5, 1, 1, 1, 1), "ii", 6),
            ((3, 1, 3, 1, 1), "ii", 4),
            ((3, 4, 1, 1, 2, 1, 1), "iii", 7),
            ((3, 2, 1, 1), None, 5),
        ],
    )
    def test_p_odd_reports_the_first_broken_pivot_fact(self, monkeypatch, runs, part,
                                                       s_nu_plus_1):
        instance = rle(runs)
        assert balanced_profile(instance).s_nu_plus_1 == s_nu_plus_1
        monkeypatch.setattr(lemmalab, "packed_autocorrelations", lambda x, n: iter([0] * (n - 1)))
        verdict = check_lemma("p-odd", instance)
        assert verdict.hypotheses_met
        if part is None:
            assert verdict.conclusion_holds and verdict.witness is None
        else:
            assert not verdict.conclusion_holds
            assert verdict.witness == {"part": part, "s_nu_plus_1": s_nu_plus_1}
            assert not check_lemma("L7", instance).hypotheses_met  # L7 assumes both facts

    # the L7n window is n-k0-1..n-k0+2; (3,2,2,2,1,1) has n = 11, k0 = 8
    @pytest.mark.parametrize("j,holds", [(1, False), (2, True), (5, True), (6, False)])
    def test_l7n_reads_exactly_its_window(self, monkeypatch, j, holds):
        instance = rle((3, 2, 2, 2, 1, 1))
        assert balanced_profile(instance).k0 == 8
        c = [0] * 12
        c[j] = 3  # the only |C_j| >= 3
        # the packed kernel yields C_1..C_{n-1}; L7n adds C_0 = n and C_n = 0
        monkeypatch.setattr(lemmalab, "packed_autocorrelations", lambda x, n: iter(c[1:n]))
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
