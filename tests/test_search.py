"""Search: pruned enumeration, soundness, balanced encodings, classification."""

import random

import pytest

from runvec import search, seqcore
from runvec.lemmalab import balanced_run_tuples
from runvec.search import (
    SEARCH_LIMIT,
    SearchSpec,
    brute_force_barker,
    canonical_representatives,
    classify_odd_barker,
    counts_csv,
    enumerate_barker,
    find_barker_sequences,
)
from runvec.seqcore import BinarySequence, all_sequences, encode_rle, is_barker

from oracles import (
    all_sign_tuples,
    brute_admissible_range,
    brute_aperiodic,
    brute_canonical,
    brute_is_barker,
    brute_is_skew_symmetric,
    brute_step_tables,
)

FIVE = {(2, 1), (3, 1, 1), (3, 2, 1, 1), (3, 3, 1, 2, 1, 1), (5, 2, 2, 1, 1, 1, 1)}


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(0, 5)
        with pytest.raises(ValueError):
            SearchSpec(7, 5)
        with pytest.raises(ValueError):
            SearchSpec(3, 5, mode="both")

    @pytest.mark.parametrize("normalize", ["no", 1, 0, None])
    def test_normalize_must_be_a_bool(self, normalize):
        with pytest.raises(ValueError) as exc:
            SearchSpec(1, 5, normalize=normalize)
        assert str(exc.value) == f"normalize must be a bool, got {normalize!r}"

    def test_lengths_round_inward_to_odd(self):
        assert list(SearchSpec(3, 9).lengths()) == [3, 5, 7, 9]
        assert list(SearchSpec(2, 8).lengths()) == [3, 5, 7]
        assert list(SearchSpec(5, 5).lengths()) == [5]
        assert list(SearchSpec(6, 6).lengths()) == []


class TestEnumerate:
    def test_n3_full_examples(self):
        found = enumerate_barker(SearchSpec(3, 3, "full"))
        assert [s.to_text() for s in found] == ["++-", "+--", "-++", "--+"]

    def test_n13_skew_example(self):
        found = enumerate_barker(SearchSpec(13, 13, "skew"))
        assert len(found) == 4
        canon = [canonical_representatives([s])[0] for s in found]
        assert len({c.elems for c in canon}) == 1
        assert {encode_rle(c).runs for c in canon} == {(5, 2, 2, 1, 1, 1, 1)}

    def test_skew_15_to_17_empty(self):
        assert enumerate_barker(SearchSpec(15, 17, "skew")) == []

    def test_limits_enforced(self):
        for mode in ("full", "skew"):
            message = f"^{mode}-mode search limited to n <= 45, requested 47$"
            with pytest.raises(ValueError, match=message):
                enumerate_barker(SearchSpec(3, SEARCH_LIMIT + 2, mode))
            # the one-length engine refuses the same length in the same words
            with pytest.raises(ValueError, match=message):
                find_barker_sequences(47, mode)

    def test_normalize_collapses_orbits(self):
        found = enumerate_barker(SearchSpec(3, 7, "full", normalize=True))
        assert [(s.n, s.to_text()) for s in found] == [
            (3, "++-"),
            (5, "+++-+"),
            (7, "+++--+-"),
        ]

    def test_skew_rejects_even_length(self):
        with pytest.raises(ValueError, match="odd"):
            find_barker_sequences(4, "skew")


class TestExponentialCaps:
    @pytest.mark.parametrize(
        "n,mode,threshold,message",
        [
            (2001, "full", 10**6, "full-mode search limited to n <= 45, requested 2001"),
            (201, "full", 1, "full-mode search limited to n <= 45, requested 201"),
            (47, "skew", 0, "skew-mode search limited to n <= 45, requested 47"),
            (19, "full", 2, "search at threshold 2 limited to n <= 18, requested 19"),
            (45, "skew", 44, "search at threshold 44 limited to n <= 18, requested 45"),
        ],
    )
    def test_search_refuses_before_building_step_tables(
        self, monkeypatch, n, mode, threshold, message
    ):
        def never(*args):
            raise AssertionError("step tables built for a refused request")

        monkeypatch.setattr(search, "_step_tables", never)
        with pytest.raises(ValueError) as exc:
            find_barker_sequences(n, mode, threshold)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [21, 10**6])
    def test_filter_refuses_before_building_planes(self, monkeypatch, n):
        # a plane at n = 10**6 would hold 2**(10**6) bits
        def never(*args):
            raise AssertionError("planes built for a refused request")

        monkeypatch.setattr(search, "_element_planes", never)
        with pytest.raises(ValueError) as exc:
            brute_force_barker(n)
        assert str(exc.value) == f"unpruned filter limited to n <= 20, requested {n}"

    def test_loose_threshold_admitted_up_to_its_limit(self):
        assert search.LOOSE_THRESHOLD_LIMIT == 18
        assert len(find_barker_sequences(18, "full", 3)) == 2728
        # a threshold of 0 or 1 keeps the search's own limit
        assert find_barker_sequences(SEARCH_LIMIT, "full", 0) == []


class TestSoundness:
    def test_pruned_equals_unpruned_to_the_filter_cap(self):
        assert search.BRUTE_FORCE_LIMIT == 20
        for n in range(1, search.BRUTE_FORCE_LIMIT + 1):
            pruned = [s.elems for s in find_barker_sequences(n, "full")]
            brute = [s.elems for s in brute_force_barker(n)]
            assert pruned == brute, n

    def test_filter_with_dropped_carries_differs_from_the_search(self, monkeypatch):
        # negative control: distance counters that keep only their parity
        def carry_dropped(counter, plane, bit=0):
            counter.extend([0] * (bit + 1 - len(counter)))
            counter[bit] ^= plane

        monkeypatch.setattr(seqcore, "_plane_add", carry_dropped)
        differ = [n for n in range(1, 14) if brute_force_barker(n) != find_barker_sequences(n)]
        assert differ == [4, 5, 7, 11, 13]

    def test_filter_stops_at_the_first_shift_that_keeps_no_mask(self, monkeypatch):
        # work budget: the counters the filter consumes per length; it
        # reads all n - 1 exactly where some mask is kept
        real, consumed = search._plane_distances, []

        def counted(planes):
            for counter in real(planes):
                consumed[-1] += 1
                yield counter

        monkeypatch.setattr(search, "_plane_distances", counted)
        kept = []
        for n in range(1, search.BRUTE_FORCE_LIMIT + 1):
            consumed.append(0)
            kept.append(bool(brute_force_barker(n)))
        assert consumed == [0, 1, 2, 3, 4, 4, 6, 5, 5, 6, 10, 8, 12, 8, 8, 11, 8, 10, 12, 10]
        assert [c == n - 1 for n, c in enumerate(consumed, start=1)] == kept

    def test_brute_filter_matches_literal_definition_to_10(self):
        for n in range(1, 11):
            brute = {s.elems for s in brute_force_barker(n)}
            literal = {s.elems for s in all_sequences(n) if brute_is_barker(s.elems)}
            assert brute == literal

    def test_mode_agreement_to_limit(self):
        for n in range(1, SEARCH_LIMIT + 1, 2):
            full = [s.elems for s in find_barker_sequences(n, "full")]
            skew = [s.elems for s in find_barker_sequences(n, "skew")]
            assert full == skew

    def test_every_emission_is_barker(self):
        for n in range(1, 14, 2):
            for seq in find_barker_sequences(n, "skew"):
                assert is_barker(seq)

    def test_negation_and_reversal_preserve_barker(self):
        for n in range(1, 13):
            for seq in all_sequences(n):
                value = is_barker(seq)
                assert is_barker(BinarySequence(tuple(-v for v in seq.elems))) == value
                assert is_barker(BinarySequence(seq.elems[::-1])) == value
        rng = random.Random(11213)
        for _ in range(10_000):
            n = rng.randint(1, 64)
            seq = BinarySequence(tuple(rng.choice((1, -1)) for _ in range(n)))
            value = is_barker(seq)
            assert is_barker(BinarySequence(tuple(-v for v in seq.elems))) == value
            assert is_barker(BinarySequence(seq.elems[::-1])) == value

    def test_every_threshold_matches_literal_filter_to_14(self):
        # full mode is the literal filter at each threshold; skew mode is
        # its skew-symmetric part (n = 1 has no off-peak shift at all)
        for n in range(1, 15):
            peaks = [
                (elems, max((abs(c) for c in brute_aperiodic(elems)[1:n]), default=0))
                for elems in all_sign_tuples(n)
            ]
            for threshold in range(4):
                expect = [elems for elems, peak in peaks if peak <= threshold]
                full = [s.elems for s in find_barker_sequences(n, "full", threshold)]
                assert full == expect, (n, threshold)
                if n % 2:
                    skew = [s.elems for s in find_barker_sequences(n, "skew", threshold)]
                    assert skew == [e for e in expect if brute_is_skew_symmetric(e)], (
                        n,
                        threshold,
                    )

    def test_threshold_generalizes(self):
        # threshold 3 must swallow every sequence whose off-peak sums fit
        from runvec.seqcore import aperiodic_autocorrelations

        n = 8
        loose = {s.elems for s in find_barker_sequences(n, "full", threshold=3)}
        expect = {
            s.elems
            for s in all_sequences(n)
            if all(abs(c) <= 3 for c in aperiodic_autocorrelations(s)[1:-1])
        }
        assert loose == expect


def table_mismatches(n, threshold, skew, steps):
    """Where the DFS step tables differ from the oracle's: per step, the
    checked shifts (descending, even only in skew mode), each check's
    partner pairs and its bounds [lo - open, hi + open]."""
    wrong = []
    for j, (table, step) in enumerate(zip(brute_step_tables(n), steps, strict=True), 1):
        left, right, _, checks = step
        if (left, right) != (j, n + 1 - j):
            wrong.append((j, "pair", left, right))
        expect = [k for k in range(n - 1, 0, -1) if table[k][0] and not (skew and k % 2)]
        if [check[0] for check in checks] != expect:
            wrong.append((j, "shifts", [check[0] for check in checks], expect))
            continue
        for k, lower, upper, l1, l2, r1, r2 in checks:
            new, still_open = table[k]
            got = sorted(
                [(l1, left)] * (l1 > 0)
                + [(left, l2)] * (l2 > 0)
                + [(right, r1)] * (r1 > 0)
                + [(r2, right)] * (r2 > 0)
            )
            lo, hi = brute_admissible_range(n, k, threshold)
            if got != new or (lower, upper) != (lo - still_open, hi + still_open):
                wrong.append((j, k, got, new, lower, upper))
    return wrong


class TestStepTables:
    # the DFS tables against a first-principles scan of every pair

    def test_skew_mode_matches_oracle_to_45(self):
        for n in range(1, 46, 2):
            assert table_mismatches(n, 1, True, search._step_tables(n, 1, True)) == [], n

    def test_full_mode_matches_oracle_to_25(self):
        for n in range(1, 26):
            assert table_mismatches(n, 1, False, search._step_tables(n, 1, False)) == [], n

    def test_every_threshold_matches_oracle_to_14(self):
        for n in range(1, 15):
            for threshold in range(4):
                for skew in (False, True)[: 1 + n % 2]:
                    steps = search._step_tables(n, threshold, skew)
                    assert table_mismatches(n, threshold, skew, steps) == [], (n, threshold, skew)

    def test_oracle_rejects_a_table_without_shift_1(self):
        # negative control: at the odd lengths 15..25 this table keeps the
        # hits and the surviving-node counts, so only the oracle sees it
        for n in range(2, 26):
            steps = [
                (left, right, pairs, [check for check in checks if check[0] != 1])
                for left, right, pairs, checks in search._step_tables(n, 1, False)
            ]
            assert table_mismatches(n, 1, False, steps) != [], n


# surviving nodes per odd length at threshold 1, the same in both modes
SURVIVORS = {
    1: 2, 3: 4, 5: 6, 7: 8, 9: 10, 11: 14, 13: 18, 15: 22, 17: 24, 19: 32, 21: 44, 23: 52,
    25: 62, 27: 70, 29: 96, 31: 102, 33: 130, 35: 138, 37: 168, 39: 178, 41: 222, 43: 238,
    45: 300,
}


class TestPruningStrength:
    # a surviving node is a placement of j pairs that passes every check,
    # j = 0 being the empty placement; a wrong bound or shift range moves
    # these counts at lengths where it changes no hit

    def test_surviving_nodes_per_length(self):
        for mode, top in (("skew", 45), ("full", 25)):
            for n in range(1, top + 1, 2):
                _, survivors = search._dfs(n, 1, mode == "skew")
                assert survivors[0] == 1
                assert sum(survivors) == SURVIVORS[n], (mode, n)
        # the totals of skew 1..45 and 15..45, full 1..25 and 15..25
        assert sum(SURVIVORS.values()) == 1940
        assert sum(SURVIVORS[n] for n in range(15, 46, 2)) == 1878
        assert sum(SURVIVORS[n] for n in range(1, 26, 2)) == 298
        assert sum(SURVIVORS[n] for n in range(15, 26, 2)) == 236

    def test_per_step_at_the_top_lengths(self):
        hits, survivors = search._dfs(45, 1, True)
        assert survivors == [
            1, 1, 2, 2, 4, 4, 6, 6, 12, 10, 16, 14, 24, 24, 36, 26, 42, 28, 28, 10, 4, 0, 0, 0
        ]
        assert hits == []
        hits, survivors = search._dfs(25, 1, False)
        assert survivors == [1, 1, 2, 2, 4, 4, 6, 6, 12, 8, 12, 4, 0, 0]
        assert hits == []

    def test_last_entry_counts_the_hits(self):
        for n, skew in ((13, True), (13, False), (7, False), (4, False)):
            hits, survivors = search._dfs(n, 1, skew)
            assert survivors[-1] == len(hits) > 0


class TestRuntimeGuards:
    # negative controls: each guard fires when the code before it is wrong

    @pytest.mark.parametrize("mode", ["full", "skew"])
    def test_search_rejects_a_bad_candidate(self, monkeypatch, mode):
        dfs = search._dfs
        # mask 0 is the all-'+' sequence, C_1 = 6 at n = 7
        def bad(n, threshold, skew):
            hits, survivors = dfs(n, threshold, skew)
            return hits + [0], survivors

        monkeypatch.setattr(search, "_dfs", bad)
        with pytest.raises(RuntimeError, match="pruned search emitted a bad candidate"):
            find_barker_sequences(7, mode)

    def test_classification_rejects_unit_runs_at_both_ends(self, monkeypatch):
        def found(n, mode):
            return [BinarySequence.from_text("+-+")] if n == 3 else []

        monkeypatch.setattr(search, "find_barker_sequences", found)
        with pytest.raises(RuntimeError, match="unit runs at both ends"):
            classify_odd_barker(3)


class TestBalancedEnumeration:
    def test_examples(self):
        assert balanced_run_tuples(3) == ((1, 2), (2, 1))
        assert balanced_run_tuples(1) == ((1,),)
        n7 = balanced_run_tuples(7)
        assert len(n7) == 8
        assert (3, 2, 1, 1) in n7

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            balanced_run_tuples(6)


class TestClassification:
    def test_n_max_13_is_the_five(self):
        report = classify_odd_barker(13)
        assert report.counts == {1: 2, 3: 4, 5: 4, 7: 4, 9: 0, 11: 4, 13: 4}
        assert 9 not in report.normalized_rles
        all_rles = {
            rle.runs for rles in report.normalized_rles.values() for rle in rles
        }
        assert all_rles == FIVE
        for rles in report.normalized_rles.values():
            assert len(rles) == 1  # one normal form per populated length

    def test_checks_cover_lengths_above_5(self):
        report = classify_odd_barker(13)
        assert {c["n"] for c in report.checks} == {7, 11, 13}
        assert all(c["structure_ok"] and c["length_bound_ok"] for c in report.checks)

    def test_n_max_45_nothing_beyond_13(self):
        report = classify_odd_barker(45)
        assert all(count == 0 for n, count in report.counts.items() if n > 13)
        assert max(report.normalized_rles) == 13
        all_rles = {
            rle.runs for rles in report.normalized_rles.values() for rle in rles
        }
        assert all_rles == FIVE

    def test_n_max_1_notes_exclusion(self):
        report = classify_odd_barker(1)
        assert report.counts == {1: 2}
        assert report.normalized_rles == {}
        assert any("n=1" in note for note in report.notes)

    def test_csv_and_json(self):
        report = classify_odd_barker(5)
        assert counts_csv(report) == "n,barker_count\n1,2\n3,4\n5,4\n"
        payload = report.to_json()
        assert payload["counts"] == {"1": 2, "3": 4, "5": 4}
        assert payload["normalized_rles"] == {"3": ["+,2,1"], "5": ["+,3,1,1"]}

    def test_limit(self):
        with pytest.raises(ValueError, match="limited to"):
            classify_odd_barker(SEARCH_LIMIT + 2)
        # the range and the cap are the search's own checks
        message = r"^skew-mode search limited to n <= 45, requested 47$"
        with pytest.raises(ValueError, match=message):
            classify_odd_barker(47)
        with pytest.raises(ValueError, match=r"^bad length range \[1, 0\]$"):
            classify_odd_barker(0)

    def test_counts_the_hits_of_one_search(self, monkeypatch):
        specs = []

        def hits(spec):
            specs.append(spec)
            return [BinarySequence.from_text(t) for t in ("+", "-", "++-", "+--", "-++", "--+")]

        monkeypatch.setattr(search, "enumerate_barker", hits)
        report = classify_odd_barker(7)
        assert specs == [SearchSpec(1, 7, "skew")]
        # every hit counts once, and a length without hits counts 0
        assert report.counts == {1: 2, 3: 4, 5: 0, 7: 0}
        assert [rle.to_text() for rle in report.normalized_rles[3]] == ["+,2,1"]
        assert list(report.normalized_rles) == [3]


class TestCanonicalization:
    def test_canonical_form_is_least_variant(self):
        seq = BinarySequence.from_text("--+")
        assert [s.to_text() for s in canonical_representatives([seq])] == ["++-"]
        seq = BinarySequence.from_text("+-+-++--+++++")
        assert [s.to_text() for s in canonical_representatives([seq])] == ["+++++--++-+-+"]

    def test_canonical_form_matches_oracle_exhaustive_to_12(self):
        seqs = [BinarySequence(elems) for n in range(1, 13) for elems in all_sign_tuples(n)]
        expect = set()
        for s in seqs:
            want = BinarySequence(brute_canonical(s.elems))
            assert canonical_representatives([s]) == [want]
            expect.add((s.n, want.to_text()))
        random.Random(1212).shuffle(seqs)
        reps = canonical_representatives(seqs)
        # by length, then as texts sort: '+' before '-'
        assert [(s.n, s.to_text()) for s in reps] == sorted(expect)

    def test_representatives_sorted_and_unique(self):
        found = enumerate_barker(SearchSpec(3, 3, "full"))
        reps = canonical_representatives(found)
        assert [s.to_text() for s in reps] == ["++-"]
