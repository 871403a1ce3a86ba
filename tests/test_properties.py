"""Property tests over random sequences and encodings."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from runvec.cli import main
from runvec.lemmalab import (
    balanced_run_tuples,
    check_lemma,
    delta_autocorrelation,
    delta_autocorrelations,
    theorem1_residual,
)
from runvec.seqcore import (
    BinarySequence,
    ParseError,
    RunLengthEncoding,
    aperiodic_autocorrelations,
    decode_rle,
    encode_rle,
    f_eval,
    is_balanced,
    is_barker,
    is_skew_symmetric,
    pack,
    packed_autocorrelations,
    packed_correlation_vectors,
    packed_rle,
    packed_skew_symmetric,
    parse_sequence,
    periodic_autocorrelations,
    run_structure,
    run_vector,
    run_vector_of,
    u_k,
    unpack,
)

from oracles import (
    brute_aperiodic,
    brute_delta_autocorrelation,
    brute_is_balanced,
    brute_is_barker,
    brute_parse_encoding,
    brute_parse_sequence,
    brute_periodic,
    brute_run_vector,
    brute_runs,
    composition,
)

settings.register_profile("soak", deadline=None, max_examples=200)
settings.load_profile("soak")

sequences = st.lists(st.sampled_from((1, -1)), min_size=1, max_size=64).map(
    lambda xs: BinarySequence(tuple(xs))
)

encodings = st.tuples(
    st.sampled_from((1, -1)),
    st.lists(st.integers(1, 5), min_size=1, max_size=16),
).map(lambda pair: RunLengthEncoding(pair[0], tuple(pair[1])))

# lengths up to 300 make the packed masks span several machine words;
# the elements come from the drawn bits by an explicit loop, not the library
long_sequences = st.integers(1, 300).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(
        lambda bits: BinarySequence(
            tuple(-1 if (bits >> i) & 1 else 1 for i in range(n))
        )
    )
)

# random compositions of every length up to 200
long_encodings = st.tuples(
    st.sampled_from((1, -1)),
    st.integers(1, 200).flatmap(
        lambda n: st.integers(0, (1 << (n - 1)) - 1).map(lambda mask: composition(n, mask))
    ),
).map(lambda pair: RunLengthEncoding(*pair))


def _skew_symmetric_runs(m, bits):
    """Runs of the skew-symmetric sequence of length 2m-1 whose centre and
    right half are the m low bits of ``bits``, mirrored element by element."""
    right = [-1 if (bits >> j) & 1 else 1 for j in range(m)]
    left = [right[j] if j % 2 == 0 else -right[j] for j in range(m - 1, 0, -1)]
    return brute_runs(left + right)


def _moved_unit(runs):
    """``runs`` with one unit moved from a run longer than 1 to another run:
    n and gamma stay, so only the disjointness of S and T decides."""
    donors = [i for i, r in enumerate(runs) if r > 1]
    if not donors or len(runs) < 2:
        return st.just(runs)

    def move(pair):
        i, j = pair
        out = list(runs)
        out[i] -= 1
        out[(i + j) % len(out)] += 1
        return tuple(out)

    return st.tuples(st.sampled_from(donors), st.integers(1, len(runs) - 1)).map(move)


# balanced encodings of every odd length up to 399
long_balanced_runs = st.integers(1, 200).flatmap(
    lambda m: st.integers(0, (1 << m) - 1).map(lambda bits: _skew_symmetric_runs(m, bits))
)

odd_sequences = st.lists(
    st.sampled_from((1, -1)), min_size=1, max_size=63
).filter(lambda xs: len(xs) % 2 == 1).map(lambda xs: BinarySequence(tuple(xs)))


@given(sequences)
def test_round_trip(seq):
    assert decode_rle(encode_rle(seq)) == seq


@given(encodings)
def test_round_trip_other_direction(rle):
    assert encode_rle(decode_rle(rle)) == rle


@given(sequences)
def test_autocorrelation_congruences(seq):
    n = seq.n
    c = aperiodic_autocorrelations(seq)
    cp = periodic_autocorrelations(seq)
    assert c[0] == n and c[n] == 0
    assert c[1] == 1 + n - 2 * encode_rle(seq).gamma
    for k in range(1, n + 1):
        assert (c[k] - (n - k)) % 2 == 0
    for k in range(1, n):
        assert cp[k] == c[k] + c[n - k]
        assert cp[k] == cp[n - k]
    for k in range(n):
        assert (cp[k] - n) % 4 == 0


@given(encodings)
def test_boundary_prefix_sums(rle):
    rs = run_structure(rle)
    gamma, n = rs.gamma, rs.n
    assert rs.s[-1] == n and rs.t[-1] == n
    for j in range(1, gamma + 1):
        t_co = rs.t[gamma - j - 1] if j < gamma else 0
        assert rs.s[j - 1] + t_co == n


@given(encodings, st.integers(-3, 70))
def test_sign_reflection(rle, k):
    rs = run_structure(rle)
    sign_gamma = -1 if rs.gamma % 2 else 1
    fs, ft, f = f_eval(rs, k)
    assert f == fs + ft
    assert fs in (-1, 0, 1) and ft in (-1, 0, 1)
    assert fs == sign_gamma * f_eval(rs, rs.n - k)[1]


@given(long_encodings)
def test_run_vector_matches_oracle(rle):
    # lengths to 200 cross from 8-bit to 16-bit product slots at n = 65
    assert run_vector_of(run_structure(rle)).r_tilde == brute_run_vector(rle.runs)


@given(st.one_of(encodings, long_encodings))
def test_run_vector_shape_and_symmetry(rle):
    rs = run_structure(rle)
    rv = run_vector_of(rs)
    n, gamma = rs.n, rs.gamma
    sign_gamma = -1 if gamma % 2 else 1
    assert len(rv.r_tilde) == max(0, n - 1)
    for k in range(1, n):
        assert rv.tilde(k) == f_eval(rs, k)[2] + 2 * u_k(rs, k)
        assert rv.r[k - 1] == sign_gamma * rv.tilde(n - k)
        assert abs(rv.tilde(k)) <= 2 * gamma - 1
    for k in range(1, min(rs.s[0], n - 1) + 1):
        assert u_k(rs, k) == 0


@given(sequences)
def test_second_difference_identity(seq):
    assert all(v == 0 for v in theorem1_residual(seq))


@given(sequences)
def test_delta_oracle_agreement(seq):
    n = seq.n
    c = aperiodic_autocorrelations(seq)
    r = run_vector(seq).r
    for k in range(1, n):
        d = delta_autocorrelation(seq, k)
        assert d == 2 * r[k - 1]
        assert d == -(c[k + 1] - 2 * c[k] + c[k - 1])


@given(encodings)
def test_parity_characterizes_balance(rle):
    # both directions of the parity characterization, unbalanced inputs too
    rs = run_structure(rle)
    rv = run_vector_of(rs)
    assert is_balanced(rs) == all(v & 1 for v in rv.r_tilde)
    verdict = check_lemma("L1", rle)
    assert verdict.hypotheses_met and verdict.conclusion_holds


@given(odd_sequences)
def test_skew_iff_balanced(seq):
    assert is_skew_symmetric(seq) == is_balanced(run_structure(encode_rle(seq)))


@given(sequences.filter(lambda s: s.n % 2 == 0))
def test_even_length_never_skew(seq):
    assert not is_skew_symmetric(seq)


@given(st.integers(1, 10).map(lambda m: 2 * m - 1))
def test_balanced_population_size(n):
    tuples = balanced_run_tuples(n)
    assert len(tuples) == 1 << ((n + 1) // 2 - 1)
    for runs in tuples[:8]:
        rs = run_structure(RunLengthEncoding(1, runs))
        assert is_balanced(rs)
        assert len(runs) == (n + 1) // 2


@given(long_balanced_runs)
def test_long_skew_symmetric_encodings_are_balanced(runs):
    assert brute_is_balanced(runs)
    assert is_balanced(run_structure(RunLengthEncoding(1, runs)))


@given(st.one_of(long_encodings.map(lambda rle: rle.runs), long_balanced_runs.flatmap(_moved_unit)))
def test_is_balanced_matches_partition_oracle(runs):
    assert is_balanced(run_structure(RunLengthEncoding(1, runs))) == brute_is_balanced(runs)


@given(long_sequences)
def test_packed_aperiodic_matches_brute(seq):
    assert aperiodic_autocorrelations(seq) == brute_aperiodic(seq.elems)


@given(long_sequences)
def test_packed_periodic_matches_brute(seq):
    assert periodic_autocorrelations(seq) == brute_periodic(seq.elems)


@given(long_sequences)
def test_correlation_product_matches_brute(seq):
    # lengths to 300 cross from 8-bit to 16-bit product slots at n = 128
    assert packed_correlation_vectors(pack(seq), seq.n) == (
        brute_aperiodic(seq.elems),
        brute_periodic(seq.elems),
    )


@given(st.one_of(long_sequences, sequences))
def test_packed_is_barker_matches_brute(seq):
    assert is_barker(seq) == brute_is_barker(seq.elems)


@given(long_sequences)
def test_delta_vector_matches_brute(seq):
    deltas = delta_autocorrelations(seq)
    assert len(deltas) == seq.n - 1
    for k in range(1, seq.n):
        assert deltas[k - 1] == brute_delta_autocorrelation(seq.elems, k)


def _complement_invariants(x, n):
    """What the sequence targets read of mask ``x``, runs first: C, the
    skew-symmetry, the delta vector, the run vector and the balancedness,
    each a property of the negation-reversal orbit of ``x``."""
    rs = run_structure(packed_rle(x, n))
    rv = run_vector_of(rs)
    return (
        packed_rle(x, n).runs,
        tuple(packed_autocorrelations(x, n)),
        packed_skew_symmetric(x, n),
        delta_autocorrelations(unpack(x, n)),
        rv.r_tilde,
        rv.r,
        is_balanced(rs),
    )


def _assert_orbit_invariant(x, n):
    """Negation keeps every invariant of ``x``; reversal and negation after
    reversal keep all but the runs, which they reverse."""
    full = (1 << n) - 1
    runs, *rest = _complement_invariants(x, n)
    assert _complement_invariants(x ^ full, n) == (runs, *rest)
    y = int(format(x, f"0{n}b")[::-1], 2)
    for member in (y, y ^ full):
        member_runs, *member_rest = _complement_invariants(member, n)
        assert member_runs == runs[::-1]
        assert member_rest == rest


def test_sweep_quantities_are_complement_invariant_to_14():
    for n in range(1, 15):
        for x in range(1 << (n - 1)):  # x or its complement is every mask
            _assert_orbit_invariant(x, n)


@given(st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_sweep_quantities_are_complement_invariant(case):
    n, x = case
    _assert_orbit_invariant(x, n)


# free text over the parsers' alphabet plus characters they must refuse
# (a letter, a space, a non-ASCII and a superscript digit), and texts
# shaped like an encoding, so that many drawn encodings are valid; some
# runs have more digits than int() converts
run_tokens = st.one_of(
    st.text("0123456789", max_size=2), st.integers(4300, 4400).map(lambda k: "7" * k)
)
input_texts = st.one_of(
    st.text("+-,0123456789x \u0663\u00b2", max_size=30),
    st.tuples(st.sampled_from("+-x"), st.lists(run_tokens, max_size=6)).map(
        lambda pair: ",".join((pair[0], *pair[1]))
    ),
)


@given(input_texts)
def test_text_parsers_return_a_value_or_raise_parse_error(text):
    for parse in (BinarySequence.from_text, RunLengthEncoding.from_text):
        try:
            parse(text)
        except ParseError:
            pass


def _outcome(parse, text, max_n):
    """What a library parser does with ``text``, in the form of the
    reference parsers in :mod:`oracles`."""
    try:
        value = parse(text, max_n)
    except ParseError as err:
        return ("ParseError", str(err), err.position)
    except ValueError as err:
        return ("ValueError", str(err))
    return ("ok", value)


def _mask(elems):
    """The packed form, bit n-1-i set where element i is -1, by a loop."""
    return sum(1 << (len(elems) - 1 - i) for i, v in enumerate(elems) if v < 0)


# texts over the parsers' alphabet and the characters that int() or
# str.isdigit() would take but the parsers refuse ('²', '٣', '_', ' '),
# encodings built from such tokens or from plain, zero-padded or overlong
# numbers, and plain sequences; the caps put some on each side of every
# length check
parser_alphabet = "+-,0123456789\u00b2\u0663_ "
parser_tokens = st.one_of(
    st.text(parser_alphabet.replace(",", ""), max_size=3),
    st.integers(0, 20_000).map(str),
    st.tuples(st.integers(1, 6), st.integers(0, 99)).map(lambda p: "0" * p[0] + str(p[1])),
    run_tokens,
)
parser_texts = st.one_of(
    st.text(parser_alphabet, max_size=30),
    st.tuples(st.sampled_from(["+", "-", "", "+;", "x"]), st.lists(parser_tokens, max_size=6)).map(
        lambda pair: ",".join((pair[0], *pair[1]))
    ),
    st.tuples(
        st.sampled_from("+-"), st.lists(st.integers(1, 40).map(str), min_size=1, max_size=8)
    ).map(lambda pair: ",".join((pair[0], *pair[1]))),
    st.text("+-", max_size=40),
)


@given(parser_texts, st.sampled_from([None, 1, 7, 99, 10_000]))
def test_one_pass_parsers_agree_with_the_positional_loop(text, max_n):
    # the same value, or the same error line and position, with or without a cap
    def encoding(text, max_n):
        rle = RunLengthEncoding.from_text(text, max_n)
        return rle.start_sign, rle.runs

    assert _outcome(encoding, text, max_n) == brute_parse_encoding(text, max_n)
    want = brute_parse_sequence(text, max_n)
    if want[0] == "ok":
        want = ("ok", _mask(want[1]))
    assert _outcome(parse_sequence, text, max_n) == want
    if max_n is None:
        sequence = _outcome(lambda text, _: BinarySequence.from_text(text).elems, text, None)
        assert sequence == brute_parse_sequence(text)


# each example runs a whole analyze or rle command in-process
@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        input_texts.map(lambda text: ("analyze", text)),
        input_texts.map(lambda text: ("analyze", "--rle", text)),
        input_texts.map(lambda text: ("rle", text)),
    ),
    st.booleans(),
)
def test_fuzzed_analyze_and_rle_argv_exit_cleanly(argv, as_json):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--json"] if as_json else list(argv))
        except SystemExit as exc:  # a malformed command line
            code = exc.code
    assert code in (0, 1, 2)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == (code != 0)
    assert "Traceback" not in err.getvalue()
