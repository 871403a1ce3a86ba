"""Core calculus: encodings, autocorrelations, run structure, run vector."""

import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from runvec.cli import MAX_LENGTH
from runvec.lemmalab import balanced_run_tuples, theorem1_residual
from runvec.seqcore import (
    BinarySequence,
    ParseError,
    RunLengthEncoding,
    _add_signed,
    _counter_sum,
    _element_planes,
    _plane_add,
    _plane_balanced,
    _plane_distances,
    _plane_skew_symmetric,
    _signed_at,
    _signed_differ,
    all_sequences,
    aperiodic_autocorrelations,
    decode_rle,
    decode_text,
    encode_rle,
    f_eval,
    is_balanced,
    is_barker,
    is_skew_symmetric,
    pack,
    pack_rle,
    packed_autocorrelations,
    packed_canonical,
    packed_correlation_vectors,
    packed_reversal,
    packed_rle,
    packed_runs,
    packed_skew_symmetric,
    parse_sequence,
    periodic_autocorrelations,
    run_structure,
    run_vector,
    run_vector_of,
    trusted_rle,
    u_k,
    unpack,
)

from oracles import (
    all_sign_tuples,
    brute_aperiodic,
    brute_canonical,
    brute_is_balanced,
    brute_is_barker,
    brute_is_skew_symmetric,
    brute_periodic,
    brute_prefix_structure,
    brute_run_vector,
    brute_runs,
    brute_signs,
    brute_u,
    compositions,
    counter_values,
    plane_bits,
    signed_values,
)

BARKER_13 = "+++++--++-+-+"


def seq(text):
    return BinarySequence.from_text(text)


def rle(sign, runs):
    return RunLengthEncoding(sign, tuple(runs))


class TestTextFormats:
    def test_sequence_round_trip(self):
        assert seq("+++--+-").to_text() == "+++--+-"
        assert seq("+").elems == (1,)
        assert seq("-").elems == (-1,)

    def test_sequence_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            seq("++x-")
        assert err.value.position == 2
        with pytest.raises(ParseError) as err:
            seq("")
        assert err.value.position == 0

    def test_rle_round_trip(self):
        assert RunLengthEncoding.from_text("+,3,2,1,1") == rle(1, (3, 2, 1, 1))
        assert rle(-1, (1,)).to_text() == "-,1"
        assert RunLengthEncoding.from_text("-,5").runs == (5,)

    def test_rle_parse_errors(self):
        with pytest.raises(ParseError) as err:
            RunLengthEncoding.from_text("3,2,1")
        assert err.value.position == 0
        with pytest.raises(ParseError) as err:
            RunLengthEncoding.from_text("+;3")
        assert err.value.position == 1
        with pytest.raises(ParseError) as err:
            RunLengthEncoding.from_text("+,3,0,1")
        assert err.value.position == 4
        with pytest.raises(ParseError):
            RunLengthEncoding.from_text("+,3,-2")
        with pytest.raises(ParseError) as err:
            RunLengthEncoding.from_text("+,3,000")
        assert err.value.position == 4

    def test_rle_leading_zeros(self):
        assert RunLengthEncoding.from_text("+,0003,01").runs == (3, 1)
        # zeros count against no integer-conversion digit limit
        assert RunLengthEncoding.from_text("-," + "0" * 5000 + "2").runs == (2,)

    @pytest.mark.parametrize("digit", ["\u00b2", "\u00b3", "\u2460", "\u2466"])
    def test_rle_non_ascii_digits_are_parse_errors(self, digit):
        # '²', '³', '①' and '⑦' pass str.isdigit() but int() rejects them
        assert digit.isdigit()
        with pytest.raises(ParseError) as err:
            RunLengthEncoding.from_text(f"+,{digit},1")
        assert err.value.position == 2
        with pytest.raises(ParseError) as err:
            RunLengthEncoding.from_text(f"-,3,1{digit}")
        assert err.value.position == 4

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            BinarySequence((1, 0, -1))
        with pytest.raises(ValueError):
            BinarySequence(())
        with pytest.raises(ValueError):
            RunLengthEncoding(1, (3, 0))
        with pytest.raises(ValueError):
            RunLengthEncoding(2, (3,))
        with pytest.raises(ValueError):
            RunLengthEncoding(1, ())

    def test_bool_element_rejected(self):
        # bool is an int subclass and True == 1, but it is not a sign; nor
        # is any other number equal to +1 or -1
        with pytest.raises(ValueError):
            BinarySequence((True, -1))
        with pytest.raises(ValueError):
            BinarySequence((1, False))
        for bad in (1.0, Fraction(1), Decimal(-1)):
            with pytest.raises(ValueError):
                BinarySequence((1, bad, -1))

    def test_bool_start_sign_rejected(self):
        for bad in (True, 1.0, Fraction(1), Decimal(-1)):
            with pytest.raises(ValueError):
                RunLengthEncoding(bad, (2,))

    def test_bool_run_length_rejected(self):
        with pytest.raises(ValueError):
            RunLengthEncoding(1, (True,))
        with pytest.raises(ValueError):
            RunLengthEncoding(1, (2, True, 1))


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "text,sign,runs",
        [
            ("++-", 1, (2, 1)),
            ("+", 1, (1,)),
            ("+++--+-", 1, (3, 2, 1, 1)),
        ],
    )
    def test_encode_examples(self, text, sign, runs):
        got = encode_rle(seq(text))
        assert got.start_sign == sign
        assert got.runs == runs
        assert got.runs == brute_runs(seq(text).elems)
        assert got.n == len(text)

    @pytest.mark.parametrize(
        "sign,runs,text",
        [
            (1, (5, 2, 2, 1, 1, 1, 1), BARKER_13),
            (-1, (1,), "-"),
            (1, (3, 3, 1, 2, 1, 1), "+++---+--+-"),
        ],
    )
    def test_decode_examples(self, sign, runs, text):
        assert decode_rle(rle(sign, runs)).to_text() == text

    def test_packed_runs_match_groupby_to_12(self):
        for n in range(1, 13):
            for x, elems in enumerate(all_sign_tuples(n)):  # mask order
                assert packed_runs(x, n) == brute_runs(elems)

    def test_round_trip_exhaustive_to_14(self):
        for n in range(1, 15):
            for elems in all_sign_tuples(n):
                s = BinarySequence(elems)
                assert decode_rle(encode_rle(s)) == s

    def test_encode_decode_inverse_on_rles(self):
        for n in range(1, 11):
            for runs in compositions(n):
                for sign in (1, -1):
                    r = rle(sign, runs)
                    assert encode_rle(decode_rle(r)) == r


class TestAutocorrelations:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("++-", (3, 0, -1, 0)),
            ("+", (1, 0)),
            (BARKER_13, (13, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)),
        ],
    )
    def test_aperiodic_examples(self, text, expected):
        s = seq(text)
        assert aperiodic_autocorrelations(s) == expected
        assert brute_aperiodic(s.elems) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("++-", (3, -1, -1)),
            ("++++", (4, 4, 4, 4)),
            (BARKER_13, (13,) + (1,) * 12),
        ],
    )
    def test_periodic_examples(self, text, expected):
        s = seq(text)
        assert periodic_autocorrelations(s) == expected
        assert brute_periodic(s.elems) == expected

    def test_profile_bundles_both(self):
        s = seq("++-")
        assert aperiodic_autocorrelations(s) == (3, 0, -1, 0)
        assert periodic_autocorrelations(s) == (3, -1, -1)

    def test_congruences_exhaustive_to_10(self):
        # parity of C_k, the periodic/aperiodic fold, mod-4 residue,
        # the first-shift formula, and periodic symmetry
        for n in range(1, 11):
            for elems in all_sign_tuples(n):
                s = BinarySequence(elems)
                c = aperiodic_autocorrelations(s)
                cp = periodic_autocorrelations(s)
                gamma = encode_rle(s).gamma
                assert c[0] == n
                assert c[n] == 0
                assert c[1] == 1 + n - 2 * gamma
                for k in range(1, n + 1):
                    assert (c[k] - (n - k)) % 2 == 0
                for k in range(1, n):
                    assert cp[k] == c[k] + c[n - k]
                    assert cp[k] == cp[n - k]
                for k in range(n):
                    assert (cp[k] - n) % 4 == 0


def _constant_vectors(n):
    """(C, P) of the all-'+' sequence: C_k = n - k, P_k = n."""
    return (*range(n, 0, -1), 0), (n,) * n


def _alternating_vectors(n):
    """(C, P) of '+-+-...': a_i = (-1)**i gives C_k = (-1)**k * (n - k)
    and P_k = C_k + C_{n-k}, which is (-1)**k * n for even n and
    (-1)**k * (n - 2k) for odd n."""
    c = tuple([(n - k) if k % 2 == 0 else (k - n) for k in range(n)]) + (0,)
    if n % 2 == 0:
        p = tuple([n if k % 2 == 0 else -n for k in range(n)])
    else:
        p = tuple([(n - 2 * k) if k % 2 == 0 else (2 * k - n) for k in range(n)])
    return c, p


class TestCorrelationProduct:
    """``packed_correlation_vectors`` reads C and the periodic vector off
    one product with 8-bit slots up to n = 127, 16-bit slots up to
    n = 32767 and 32-bit slots beyond."""

    def test_matches_oracles_every_sequence_to_12(self):
        for n in range(1, 13):
            for x, elems in enumerate(all_sign_tuples(n)):  # mask order
                assert packed_correlation_vectors(x, n) == (
                    brute_aperiodic(elems),
                    brute_periodic(elems),
                ), (n, x)

    @pytest.mark.parametrize("n", [1, 2, 3, 126, 127, 128, 129, 32767, 32768])
    def test_constant_and_alternating_closed_forms(self, n):
        # the constant sequence has P_k = n, the largest digit read, so it
        # overflows the narrower slot one length past each switch
        full = (1 << n) - 1
        alternating = int(("01" * n)[:n], 2)  # '+' first
        assert packed_correlation_vectors(0, n) == _constant_vectors(n)
        c, p = _constant_vectors(n)
        assert packed_correlation_vectors(full, n) == (c, p)  # negation
        assert packed_correlation_vectors(alternating, n) == _alternating_vectors(n)
        assert packed_correlation_vectors(alternating ^ full, n) == _alternating_vectors(n)


class TestRunStructure:
    def test_examples(self):
        rs = run_structure(rle(1, (2, 1)))
        assert rs.s == (2, 3) and rs.t == (1, 3)
        assert rs.s_set == {2} and rs.t_set == {1}

        rs = run_structure(rle(1, (3, 2, 1, 1)))
        assert rs.s_set == {3, 5, 6} and rs.t_set == {1, 2, 4}
        assert rs.s_set | rs.t_set == set(range(1, 7))
        assert not rs.s_set & rs.t_set

        rs = run_structure(rle(1, (1,)))
        assert rs.s_set == frozenset() and rs.t_set == frozenset()

    def test_invariants_all_rles_to_14(self):
        for n in range(1, 15):
            for runs in compositions(n):
                rs = run_structure(rle(1, runs))
                gamma = len(runs)
                s, t, s_set, t_set = brute_prefix_structure(runs)
                assert rs.s == s and rs.t == t
                assert rs.s_set == s_set and rs.t_set == t_set
                assert len(rs.s_set) == gamma - 1 and len(rs.t_set) == gamma - 1
                assert all(rs.s[j] < rs.s[j + 1] for j in range(gamma - 1))
                assert rs.s[-1] == n and rs.t[-1] == n
                # s_j + t_{gamma-j} = n, reading the j = gamma term as t_0 = 0
                for j in range(1, gamma + 1):
                    t_co = rs.t[gamma - j - 1] if j < gamma else 0
                    assert rs.s[j - 1] + t_co == n
                # boundary membership <=> sign flip in the decoded sequence,
                # forward boundary at k <=> reverse boundary at n-k
                elems = decode_rle(rle(1, runs)).elems
                for k in range(1, n):
                    assert (k in rs.s_set) == (elems[k - 1] * elems[k] == -1)
                    assert (k in rs.s_set) == ((n - k) in rs.t_set)

    def test_boundaries_match_sign_changes_to_12(self):
        # position k is a forward boundary exactly when the sequence flips
        # there, and exactly when n-k is a reverse boundary
        for n in range(2, 13):
            for elems in all_sign_tuples(n):
                s = BinarySequence(elems)
                rs = run_structure(encode_rle(s))
                for k in range(1, n):
                    flips = elems[k - 1] * elems[k] == -1
                    assert (k in rs.s_set) == flips
                    assert (k in rs.s_set) == ((n - k) in rs.t_set)


class TestSignFunctions:
    def test_f_eval_examples(self):
        rs = run_structure(rle(1, (3, 2, 1, 1)))
        assert f_eval(rs, 3) == (-1, 0, -1)
        assert f_eval(rs, 6) == (-1, 0, -1)
        assert f_eval(rs, 0) == (0, 0, 0)
        assert f_eval(rs, -7) == (0, 0, 0)
        assert f_eval(rs, 7) == (0, 0, 0)  # final boundary is in neither set
        assert f_eval(rs, 100) == (0, 0, 0)

    def test_reflection_identity_all_rles_to_14(self):
        # forward sign at k equals the reverse sign at n-k up to gamma parity
        for n in range(1, 15):
            for runs in compositions(n):
                rs = run_structure(rle(1, runs))
                sign_gamma = -1 if len(runs) % 2 else 1
                for k in range(-2, n + 3):
                    fs, ft, f = f_eval(rs, k)
                    assert f == fs + ft
                    assert fs == sign_gamma * f_eval(rs, n - k)[1]

    def test_f_eval_and_u_k_match_the_oracle_every_composition_to_12(self):
        for n in range(1, 13):
            for runs in compositions(n):
                f_s, f_t = brute_signs(runs)
                u = [brute_u(runs, k) for k in range(1, n)]
                for sign in (1, -1):
                    rs = run_structure(rle(sign, runs))
                    for k in range(-2, n + 3):
                        fs, ft = f_s.get(k, 0), f_t.get(k, 0)
                        assert f_eval(rs, k) == (fs, ft, fs + ft)
                    assert [u_k(rs, k) for k in range(1, n)] == u

    def test_u_k_examples(self):
        rs = run_structure(rle(1, (3, 2, 1, 1)))
        assert u_k(rs, 4) == 1
        assert u_k(rs, 2) == 0
        rs2 = run_structure(rle(1, (3, 2, 2, 1, 1)))
        assert u_k(rs2, 7) == 2

    def test_u_k_vanishes_up_to_first_boundary(self):
        for runs in compositions(9):
            rs = run_structure(rle(1, runs))
            for k in range(1, rs.s[0] + 1):
                if k <= rs.n - 1:
                    assert u_k(rs, k) == 0

    def test_u_k_range_errors(self):
        rs = run_structure(rle(1, (3, 2, 1, 1)))
        with pytest.raises(ValueError):
            u_k(rs, 0)
        with pytest.raises(ValueError):
            u_k(rs, 7)


class TestRunVector:
    def test_examples(self):
        rv = run_vector(seq("++-"))
        assert rv.r_tilde == (-1, -1)
        assert rv.r == (-1, -1)

        rv = run_vector(decode_rle(rle(1, (3, 2, 1, 1))))
        assert rv.r_tilde == (-1, 1, -1, 1, -1, -3)
        assert rv.r[0] == -3
        assert rv.tilde(6) == -3

        assert run_vector(seq("+")) == run_vector_of(run_structure(rle(1, (1,))))
        assert run_vector(seq("+")).r_tilde == ()

    def test_matches_oracle_every_composition_to_12(self):
        # the big-integer product against f_s + f_t + 2u read off the oracle
        for n in range(1, 13):
            for runs in compositions(n):
                expected = brute_run_vector(runs)
                for sign in (1, -1):
                    rv = run_vector_of(run_structure(rle(sign, runs)))
                    assert rv.r_tilde == expected

    def test_matches_componentwise_definition(self):
        # the big-integer product must agree with f + 2u entry by entry
        for n in range(2, 13):
            for runs in compositions(n):
                rs = run_structure(rle(1, runs))
                rv = run_vector_of(rs)
                for k in range(1, n):
                    assert rv.tilde(k) == f_eval(rs, k)[2] + 2 * u_k(rs, k)

    def test_reflection_and_bound(self):
        for n in range(2, 13):
            for runs in compositions(n):
                gamma = len(runs)
                sign_gamma = -1 if gamma % 2 else 1
                rv = run_vector_of(run_structure(rle(1, runs)))
                assert len(rv.r_tilde) == n - 1 and len(rv.r) == n - 1
                for k in range(1, n):
                    assert rv.r[k - 1] == sign_gamma * rv.tilde(n - k)
                    assert abs(rv.tilde(k)) <= 2 * gamma - 1

    def test_accessor_range_errors(self):
        rv = run_vector(seq("++-"))
        with pytest.raises(ValueError):
            rv.tilde(0)


class TestRunVectorSlotWidths:
    """``run_vector_of`` reads the run vector off 8-bit slots up to n = 64,
    16-bit slots up to n = 16384 and 32-bit slots beyond; these lengths
    straddle both switches."""

    def test_alternating_closed_form(self):
        # all runs of length 1: r~_k = (-1)**k * 2k, and the last entry,
        # 2n - 2, overflows the narrower slot one length past each switch
        for n in (*range(2, 70), *range(8190, 8195), MAX_LENGTH, *range(16382, 16387)):
            rv = run_vector_of(run_structure(rle(1, (1,) * n)))
            assert rv.r_tilde == tuple([(-1) ** k * 2 * k for k in range(1, n)]), n
            sign_gamma = -1 if n % 2 else 1
            assert rv.r == tuple([sign_gamma * v for v in reversed(rv.r_tilde)]), n

    @pytest.mark.parametrize(
        "n", [31, 32, 33, 63, 64, 65, 127, 128, 8191, 8192, 8193, MAX_LENGTH]
    )
    def test_theorem1_holds_on_seeded_random_sequences(self, n):
        # C comes from the packed XOR-and-popcount kernel, an independent route
        bits = random.Random(n).getrandbits(n)
        sequence = BinarySequence(tuple([-1 if (bits >> i) & 1 else 1 for i in range(n)]))
        assert not any(theorem1_residual(sequence))


class TestPredicates:
    def test_skew_symmetric_examples(self):
        assert is_skew_symmetric(seq("++-"))
        assert not is_skew_symmetric(seq("++"))
        assert is_skew_symmetric(seq(BARKER_13))
        assert is_skew_symmetric(seq("+"))

    def test_skew_matches_oracle_to_11(self):
        for n in range(1, 12):
            for elems in all_sign_tuples(n):
                assert is_skew_symmetric(BinarySequence(elems)) == brute_is_skew_symmetric(elems)

    def test_balanced_examples(self):
        assert is_balanced(run_structure(rle(1, (2, 1))))
        assert not is_balanced(run_structure(rle(1, (2, 2))))
        assert is_balanced(run_structure(rle(1, (1,))))

    def test_balanced_matches_partition_oracle_to_14(self):
        for n in range(1, 15):
            for runs in compositions(n):
                assert is_balanced(run_structure(rle(1, runs))) == brute_is_balanced(runs), runs

    def test_balanced_forces_odd_length_and_run_count(self):
        for n in range(1, 14):
            for runs in compositions(n):
                if is_balanced(run_structure(rle(1, runs))):
                    assert n % 2 == 1
                    assert len(runs) == (n + 1) // 2

    def test_barker_examples(self):
        assert is_barker(seq("++-"))
        assert not is_barker(seq("++++"))
        assert not is_barker(decode_rle(rle(1, (5, 2, 1, 1, 1, 1))))
        assert is_barker(seq("+"))

    def test_barker_matches_oracle_to_11(self):
        for n in range(1, 12):
            for elems in all_sign_tuples(n):
                assert is_barker(BinarySequence(elems)) == brute_is_barker(elems)


class TestPackedForm:
    def test_bit_layout(self):
        # bit n-1-i is set where slot i holds -1
        assert pack(seq("+")) == 0 and pack(seq("-")) == 1
        assert pack(seq("++-")) == 0b001
        assert pack(seq("-++")) == 0b100
        assert unpack(0b0110, 4).to_text() == "+--+"
        for bad in (-1, 16):
            with pytest.raises(ValueError):
                unpack(bad, 4)

    @pytest.mark.parametrize("n", [0, -1])
    def test_unpack_rejects_lengths_below_one(self, n):
        # format(0, "00b") is "0", and 1 << -1 raises its own error
        with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
            unpack(0, n)

    def test_reversal_and_orbit_exhaustive_to_10(self):
        for n in range(1, 11):
            for x, elems in enumerate(all_sign_tuples(n)):
                reversed_ = BinarySequence(elems[::-1])
                negated = BinarySequence(tuple(-v for v in elems))
                assert unpack(packed_reversal(x, n), n) == reversed_
                orbit = {BinarySequence(elems), reversed_, negated,
                         BinarySequence(tuple(-v for v in elems[::-1]))}
                assert packed_canonical(x, n) == min(map(pack, orbit))

    @pytest.mark.parametrize("n", [*range(1, 81), 255, 256, 257, 10_000])
    def test_reversal_canonical_and_skew_on_seeded_random_masks(self, n):
        # the byte-table kernel at every byte width up to 10 and past the
        # 8-bit boundaries, against text reversal and the element oracles;
        # the exhaustive tests stop at two bytes
        rng = random.Random(n)
        top, full = 1 << (n - 1), (1 << n) - 1
        masks = [0, 1, top, full, top | 1]
        for _ in range(3):
            bits = rng.getrandbits(n)
            masks += [bits, bits | top, bits | 1, bits & ~top & ~1]
        if n % 2:
            # a skew-symmetric mask, a_{m-j} = (-1)**j * a_{m+j} around the
            # centre a_m, and the same with a_1 flipped
            m = (n + 1) // 2
            right = [rng.choice((1, -1)) for _ in range(m)]
            left = [(-1) ** j * right[j] for j in range(m - 1, 0, -1)]
            skew = int("".join(["1" if v < 0 else "0" for v in left + right]), 2)
            masks += [skew, skew ^ top]
        for x in masks:
            text = format(x, f"0{n}b")
            elems = tuple([-1 if b == "1" else 1 for b in text])
            assert packed_reversal(x, n) == int(text[::-1], 2), (n, x)
            canonical = "".join(["1" if v < 0 else "0" for v in brute_canonical(elems)])
            assert packed_canonical(x, n) == int(canonical, 2), (n, x)
            assert packed_skew_symmetric(x, n) == brute_is_skew_symmetric(elems), (n, x)
        if n % 2 and n > 1:
            assert packed_skew_symmetric(skew, n) and not packed_skew_symmetric(skew ^ top, n)

    def test_run_structure_of_every_mask_matches_the_oracle_to_12(self):
        # the run structure of the runs read off a mask
        for n in range(1, 13):
            for x, elems in enumerate(all_sign_tuples(n)):
                rs = run_structure(packed_rle(x, n))
                s, t, s_set, t_set = brute_prefix_structure(brute_runs(elems))
                assert (rs.s, rs.t, rs.s_set, rs.t_set) == (s, t, s_set, t_set), (n, x)
                assert (rs.gamma, rs.n) == (len(s), n), (n, x)

    def test_round_trip_exhaustive_to_10(self):
        for n in range(1, 11):
            for x, elems in enumerate(all_sign_tuples(n)):
                s = BinarySequence(elems)
                assert pack(s) == x  # numeric order is '+'-first lexicographic
                # unpack skips the per-element check; what it builds must be
                # indistinguishable from the checked construction
                got = unpack(x, n)
                assert got == s and hash(got) == hash(s) and repr(got) == repr(s), (n, x)
                assert pickle.dumps(got) == pickle.dumps(s), (n, x)
                assert pickle.loads(pickle.dumps(got)) == s, (n, x)
                assert type(got.elems) is tuple and all(type(v) is int for v in got.elems)
            for bad in (-1, 1 << n, -(1 << n)):
                with pytest.raises(ValueError, match="does not fit"):
                    unpack(bad, n)

    def test_trusted_rle_equals_the_checked_encoding_to_15(self):
        # the balanced sweep builds its encodings past the constructor's
        # checks; what it builds must be indistinguishable from the checked ones
        for n in range(1, 16, 2):
            for runs in balanced_run_tuples(n):
                got, want = trusted_rle(1, runs), RunLengthEncoding(1, runs)
                assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
                assert pickle.dumps(got) == pickle.dumps(want), runs
                assert pickle.loads(pickle.dumps(got)) == want, runs
        # the checks it skips stay on every other route in
        for runs in ((True,), (2, 0), (2.0,), ("2",), (2, 1.5)):
            with pytest.raises(ValueError, match="positive integers"):
                RunLengthEncoding(1, runs)
            with pytest.raises(ValueError, match="positive integers"):
                pickle.loads(pickle.dumps(trusted_rle(1, runs)))

    def test_multi_word_masks(self):
        s = seq("-" + "+" * 198 + "-")
        assert pack(s) == (1 << 199) | 1
        assert unpack(pack(s), 200) == s
        assert aperiodic_autocorrelations(s) == brute_aperiodic(s.elems)
        assert periodic_autocorrelations(s) == brute_periodic(s.elems)

    def test_packed_autocorrelations_are_lazy(self):
        # '++++' fails the Barker bound at the first shift
        shifts = packed_autocorrelations(pack(seq("++++")), 4)
        assert next(shifts) == 3
        assert list(shifts) == [2, 1]


class TestPackRle:
    # p-odd and L7n build their masks from the encoding; C does not change
    # under negation, so only this comparison sees a mask of the negated sequence
    def test_equals_the_parsed_text_to_12(self):
        for n in range(1, 13):
            for runs in compositions(n):
                for sign in (1, -1):
                    rle = RunLengthEncoding(sign, runs)
                    x = pack_rle(rle)
                    assert x == parse_sequence(decode_text(rle)), (sign, runs)
                    assert packed_runs(x, n) == runs
                    assert packed_rle(x, n) == rle


class TestEnumerationAndJson:
    def test_all_sequences_order_and_count(self):
        got = [s.to_text() for s in all_sequences(2)]
        assert got == ["++", "+-", "-+", "--"]
        assert sum(1 for _ in all_sequences(10)) == 1024

    def test_json_shapes(self):
        s = seq("+++--+-")
        r = encode_rle(s)
        rs = run_structure(r)
        # the values the records' former JSON shapes carried, read as attributes
        assert s.elems == (1, 1, 1, -1, -1, 1, -1) and s.n == 7
        assert (r.start_sign, r.runs, r.gamma, r.n) == (1, (3, 2, 1, 1), 4, 7)
        assert rs.s == (3, 5, 6, 7)
        assert rs.t == (1, 2, 4, 7)
        assert sorted(rs.s_set) == [3, 5, 6]
        assert sorted(rs.t_set) == [1, 2, 4]
        assert (rs.gamma, rs.n) == (4, 7)
        rv = run_vector(s)
        assert rv.r_tilde == (-1, 1, -1, 1, -1, -3)
        assert rv.r == (-3, -1, 1, -1, 1, -1)
        assert aperiodic_autocorrelations(s) == (7, 0, -1, 0, -1, 0, -1, 0)
        assert periodic_autocorrelations(s) == (7, -1, -1, -1, -1, -1, -1)


class TestPlanes:
    """The bit-plane primitives and the seqcore plane kernels against the
    oracles on every mask of the population of a length."""

    def test_element_planes_decode_every_mask_to_12(self):
        for n in range(1, 13):
            columns = [plane_bits(plane, 1 << n) for plane in _element_planes(n)]
            assert len(columns) == n
            for x, elems in enumerate(all_sign_tuples(n)):
                assert tuple([1 - 2 * column[x] for column in columns]) == elems, (n, x)

    def test_counters_add_compare_and_read_on_seeded_random_planes(self):
        rng = random.Random(32)
        size = 64
        for _ in range(200):
            counter, want = [], [0] * size
            for _ in range(rng.randint(0, 12)):
                plane, bit = rng.getrandbits(size), rng.randint(0, 4)
                _plane_add(counter, plane, bit)
                for x, b in enumerate(plane_bits(plane, size)):
                    want[x] += b << bit
            assert counter_values(counter, size) == want
            other = [rng.getrandbits(size) for _ in range(rng.randint(0, 3))]
            others = counter_values(other, size)
            total = _counter_sum(counter, other)
            assert counter_values(total, size) == [a + b for a, b in zip(want, others)]
            # signed pairs: counter - other against 0 - 0 and other - counter
            pair = (counter, other)
            values = [_signed_at(pair, x) for x in range(size)]
            assert values == [a - b for a, b in zip(want, others)]
            nonzero = [int(v != 0) for v in values]
            assert plane_bits(_signed_differ(pair, ([], [])), size) == nonzero
            assert _signed_differ(pair, (other, counter)) == _signed_differ(pair, ([], []))
            assert _signed_differ(pair, (_counter_sum(counter), list(other))) == 0
        # a signed term adds to the negative counter where minus is set
        pair = ([], [])
        _add_signed(pair, 0b1110, ~0b0100, 1)
        _add_signed(pair, 0b0011, 0b0010, 0)
        assert signed_values(pair, 4) == [1, -1 - 2, 2, -2]

    def test_distances_give_c_on_every_mask_to_12(self):
        for n in range(1, 13):
            size = 1 << n
            distances = [counter_values(d, size) for d in _plane_distances(_element_planes(n))]
            assert len(distances) == n - 1
            for x, elems in enumerate(all_sign_tuples(n)):
                c = tuple([n - k - 2 * distances[k - 1][x] for k in range(1, n)])
                assert c == brute_aperiodic(elems)[1:n], (n, x)

    def test_skew_and_balanced_planes_match_the_oracles_to_12(self):
        for n in range(1, 13):
            planes, full = _element_planes(n), (1 << (1 << n)) - 1
            skew = plane_bits(_plane_skew_symmetric(planes, full), 1 << n)
            balanced = plane_bits(_plane_balanced(planes, full), 1 << n)
            for x, elems in enumerate(all_sign_tuples(n)):
                assert skew[x] == brute_is_skew_symmetric(elems), (n, x)
                assert balanced[x] == brute_is_balanced(brute_runs(elems)), (n, x)

    def test_skew_and_balanced_planes_match_the_per_mask_kernels_to_15(self):
        for n in range(1, 16):
            planes, full = _element_planes(n), (1 << (1 << n)) - 1
            skew = _plane_skew_symmetric(planes, full)
            balanced = _plane_balanced(planes, full)
            assert skew | balanced <= full
            skew_bits, balanced_bits = plane_bits(skew, 1 << n), plane_bits(balanced, 1 << n)
            for x in range(1 << n):
                assert skew_bits[x] == packed_skew_symmetric(x, n), (n, x)
                assert balanced_bits[x] == is_balanced(run_structure(packed_rle(x, n))), (n, x)
