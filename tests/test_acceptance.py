"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is exact integer equality; the stated wall
-clock budgets are asserted as part of their criteria.
"""

import contextlib
import io
import random
import time

from runvec.cli import main
from runvec.lemmalab import (
    barker_predictions,
    check_p_odd,
    sweep,
)
from runvec.search import (
    SearchSpec,
    brute_force_barker,
    classify_odd_barker,
    enumerate_barker,
    find_barker_sequences,
)
from runvec.seqcore import (
    BinarySequence,
    RunLengthEncoding,
    all_sequences,
    aperiodic_autocorrelations,
    decode_rle,
    encode_rle,
    f_eval,
    periodic_autocorrelations,
    run_structure,
    run_vector,
)

from oracles import derived_barker_profile

FIVE_RLES = (
    (2, 1),
    (3, 1, 1),
    (3, 2, 1, 1),
    (3, 3, 1, 2, 1, 1),
    (5, 2, 2, 1, 1, 1, 1),
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_second_difference_identity():
    t0 = time.perf_counter()
    report = sweep(16, ("theorem1",))
    elapsed = time.perf_counter() - t0
    population = sum(rec.population for rec in report.records)
    failures = sum(rec.failure_count for rec in report.records)
    ok = report.complete and failures == 0 and population == 131070 and elapsed < 10.0
    _report(
        1,
        ok,
        f"second-difference identity: {population} sequences (n<=16), "
        f"{failures} failures, {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_delta_sequence_oracle():
    report = sweep(16, ("delta",))
    population = sum(rec.population for rec in report.records)
    failures = sum(rec.failure_count for rec in report.records)
    ok = report.complete and failures == 0 and population == 131070
    _report(
        2,
        ok,
        f"delta-sequence oracle (both identities): {population} sequences, "
        f"{failures} mismatches",
    )


def test_criterion_03_skew_iff_balanced():
    t0 = time.perf_counter()
    report = sweep(17, ("prop-skew",))
    elapsed = time.perf_counter() - t0
    population = sum(rec.population for rec in report.records)
    failures = sum(rec.failure_count for rec in report.records)
    ok = report.complete and failures == 0 and population == 174762 and elapsed < 30.0
    _report(
        3,
        ok,
        f"skew-symmetric iff balanced: {population} sequences (odd n<=17), "
        f"{failures} counterexamples, {elapsed:.1f}s (<30s)",
    )


def test_criterion_04_lemma_suite_l1_to_l6():
    t0 = time.perf_counter()
    report = sweep(25, ("L1", "L2", "L3", "L4", "L5", "L6"))
    elapsed = time.perf_counter() - t0
    failures = sum(rec.failure_count for rec in report.records)
    max_pop = max(rec.population for rec in report.records)
    checks = sum(rec.hypotheses_met_count for rec in report.records)
    ok = (
        report.complete
        and failures == 0
        and max_pop == 4096  # 2**12 balanced encodings at n = 25
        and checks > 0
        and elapsed < 30.0
    )
    _report(
        4,
        ok,
        f"lemma suite L1-L6 over balanced encodings (odd n<=25, max {max_pop} "
        f"per length): {checks} gated checks, {failures} failures, "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_05_pair_bound_and_big_correlation_remark():
    report = sweep(25, ("L7", "L7n"))
    failures = sum(rec.failure_count for rec in report.records)
    hits_l7 = sum(r.hypotheses_met_count for r in report.records if r.target == "L7")
    hits_l7n = sum(r.hypotheses_met_count for r in report.records if r.target == "L7n")
    ok = report.complete and failures == 0 and hits_l7 > 0 and hits_l7n == hits_l7
    _report(
        5,
        ok,
        f"pair bound |R~(k0)+R~(k0-1)|>=2 plus the |C_j|>=3 remark: "
        f"{hits_l7} hypothesis-satisfying instances (odd n<=25), {failures} failures",
    )


def test_criterion_06_barker_profile_predictions():
    spots_ok = True
    pred13 = barker_predictions(13)
    spots_ok &= set(pred13.c[1::2]) == {1}          # even shifts
    spots_ok &= pred13.r[0] == -7                   # first reflected entry
    spots_ok &= pred13.r_tilde[11] == 7             # last untransformed entry
    pred7 = barker_predictions(7)
    spots_ok &= set(pred7.c[1::2]) == {-1}
    spots_ok &= pred7.r[0] == -3
    spots_ok &= pred7.r_tilde[5] == -3

    exact = 0
    for runs in FIVE_RLES:
        seq = decode_rle(RunLengthEncoding(1, runs))
        pred = barker_predictions(seq.n)
        c = aperiodic_autocorrelations(seq)
        rv = run_vector(seq)
        if tuple(c[1: seq.n]) == pred.c and rv.r == pred.r and rv.r_tilde == pred.r_tilde:
            exact += 1
    # every odd length: the profile derived from C by Theorem 1 in oracles
    lengths = range(3, 202, 2)
    derived = 0
    for n in lengths:
        pred = barker_predictions(n)
        derived += derived_barker_profile(n) == (pred.c, pred.r, pred.r_tilde)
    ok = spots_ok and exact == len(FIVE_RLES) and derived == len(lengths)
    _report(
        6,
        ok,
        f"predicted C/R/R~ profiles exact on all {exact}/5 known odd Barker "
        f"encodings (n=3,5,7,11,13), equal to the Theorem 1 derivation at "
        f"{derived}/{len(lengths)} odd n in 3..201, spot values verified",
    )


def test_criterion_07_no_barker_beyond_13_at_desk_scale():
    t0 = time.perf_counter()
    skew_hits = enumerate_barker(SearchSpec(15, 45, "skew"))
    skew_elapsed = time.perf_counter() - t0
    full_hits = enumerate_barker(SearchSpec(15, 25, "full"))
    ok = skew_hits == [] and full_hits == [] and skew_elapsed < 60.0
    _report(
        7,
        ok,
        f"no odd Barker beyond 13: skew search 15..45 found {len(skew_hits)} "
        f"in {skew_elapsed:.1f}s (<60s); pruned full search 15..25 found "
        f"{len(full_hits)}",
    )


def test_criterion_08_classification_is_the_five():
    report = classify_odd_barker(13)
    found = {
        rle.runs for rles in report.normalized_rles.values() for rle in rles
    }
    ok = found == set(FIVE_RLES)
    ok &= 9 not in report.normalized_rles and report.counts[9] == 0
    ok &= {c["n"] for c in report.checks} == {7, 11, 13}
    ok &= all(c["structure_ok"] and c["length_bound_ok"] for c in report.checks)
    for runs in FIVE_RLES:
        verdict = check_p_odd(RunLengthEncoding(1, runs))
        ok &= verdict.hypotheses_met and bool(verdict.conclusion_holds)
    _report(
        8,
        ok,
        f"normalized odd Barker encodings for 3<=n<=13 are exactly the five "
        f"({len(found)} found, none at n=9); structural condition and length "
        f"bound hold for n>5",
    )


def _congruences_hold(seq: BinarySequence) -> bool:
    n = seq.n
    c = aperiodic_autocorrelations(seq)
    cp = periodic_autocorrelations(seq)
    rs = run_structure(encode_rle(seq))
    gamma = rs.gamma
    if c[1] != 1 + n - 2 * gamma:
        return False
    if any((c[k] - (n - k)) % 2 for k in range(1, n + 1)):
        return False
    if any(cp[k] != c[k] + c[n - k] for k in range(1, n)):
        return False
    if any((cp[k] - n) % 4 for k in range(n)):
        return False
    for j in range(1, gamma + 1):
        t_co = rs.t[gamma - j - 1] if j < gamma else 0
        if rs.s[j - 1] + t_co != n:
            return False
    for k in range(1, n):
        flips = seq.elems[k - 1] * seq.elems[k] == -1
        if (k in rs.s_set) != flips or (k in rs.s_set) != ((n - k) in rs.t_set):
            return False
    sign_gamma = -1 if gamma % 2 else 1
    for k in range(-2, n + 3):
        if f_eval(rs, k)[0] != sign_gamma * f_eval(rs, n - k)[1]:
            return False
    return True


def test_criterion_09_congruence_invariants():
    checked = 0
    violations = 0
    for n in range(1, 13):
        for seq in all_sequences(n):
            checked += 1
            violations += not _congruences_hold(seq)
    rng = random.Random(421994)
    for _ in range(10_000):
        n = rng.randint(1, 64)
        seq = BinarySequence(tuple(rng.choice((1, -1)) for _ in range(n)))
        checked += 1
        violations += not _congruences_hold(seq)
    ok = violations == 0 and checked == 8190 + 10_000
    _report(
        9,
        ok,
        f"parity/mod-4/first-shift/prefix-sum/boundary/reflection congruences: "
        f"{checked} sequences (all n<=12 plus 10^4 random n<=64), "
        f"{violations} violations",
    )


def _cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_criterion_10_search_soundness():
    prune_mismatch = 0
    for n in range(1, 17):
        pruned = [s.elems for s in find_barker_sequences(n, "full")]
        brute = [s.elems for s in brute_force_barker(n)]
        prune_mismatch += pruned != brute

    mode_mismatch = 0
    for n in range(1, 22, 2):
        full = [s.elems for s in find_barker_sequences(n, "full")]
        skew = [s.elems for s in find_barker_sequences(n, "skew")]
        mode_mismatch += full != skew

    worker_mismatch = 0
    for argv in (
        ("search", "--mode", "full", "--max-n", "13"),
        ("search", "--mode", "skew", "--max-n", "15"),
        ("classify", "--max-n", "15"),
    ):
        base = _cli_stdout(*argv, "--workers", "1")
        for workers in ("2", "3"):
            worker_mismatch += _cli_stdout(*argv, "--workers", workers) != base
    sweep_base = sweep(9, ("theorem1", "L1"), workers=1)
    worker_mismatch += sweep(9, ("theorem1", "L1"), workers=2) != sweep_base

    ok = prune_mismatch == 0 and mode_mismatch == 0 and worker_mismatch == 0
    _report(
        10,
        ok,
        f"search soundness: pruned==unpruned for all n<=16 "
        f"({prune_mismatch} mismatches), full==skew for odd n<=21 "
        f"({mode_mismatch}), worker-count independent ({worker_mismatch})",
    )
