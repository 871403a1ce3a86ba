"""Value semantics of the record types: equality, hashing, immutability,
pickling, repr and the constructor forms code and tests rely on."""

import pickle

import pytest

from runvec.lemmalab import (
    BalancedProfile,
    BarkerPredictions,
    SweepRecord,
    SweepReport,
    Verdict,
    balanced_profile,
    barker_predictions,
)
from runvec.search import ClassificationReport, SearchSpec, classify_odd_barker
from runvec.seqcore import (
    BinarySequence,
    Record,
    RunLengthEncoding,
    RunStructure,
    RunVector,
    f_eval,
    run_structure,
)

B7 = RunLengthEncoding(1, (3, 2, 1, 1))

#: name -> (build an instance, build an unequal instance of the same type)
RECORDS = {
    "BinarySequence": (lambda: BinarySequence((1, 1, -1)), lambda: BinarySequence((1, -1))),
    "RunLengthEncoding": (
        lambda: RunLengthEncoding(1, (2, 1)),
        lambda: RunLengthEncoding(-1, (2, 1)),
    ),
    "RunStructure": (
        lambda: run_structure(B7),
        lambda: run_structure(RunLengthEncoding(1, (2, 1))),
    ),
    "RunVector": (lambda: RunVector((-1, -1), (-1, -1)), lambda: RunVector((-1, 1), (-1, -1))),
    "BalancedProfile": (lambda: balanced_profile(B7), lambda: BalancedProfile(3, 1, 2, 0, 5, 9)),
    "Verdict": (
        lambda: Verdict("L5", "+,3,2,1,1", True, True),
        lambda: Verdict("L5", "+,3,2,1,1", False, None),
    ),
    "BarkerPredictions": (lambda: barker_predictions(3), lambda: barker_predictions(5)),
    "SweepRecord": (
        lambda: SweepRecord("L1", 5, 2, 2, 0, ()),
        lambda: SweepRecord("L1", 7, 4, 4, 0, ()),
    ),
    "SweepReport": (
        lambda: SweepReport(5, ("L1",), (SweepRecord("L1", 5, 2, 2, 0, ()),)),
        lambda: SweepReport(5, ("L1",), ()),
    ),
    "SearchSpec": (lambda: SearchSpec(3, 13), lambda: SearchSpec(3, 13, "skew")),
    "ClassificationReport": (lambda: classify_odd_barker(5), lambda: classify_odd_barker(3)),
}

#: Records holding a dict, which cannot be hashed, like a tuple holding one.
UNHASHABLE = {"ClassificationReport"}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordSemantics:
    def test_equality_and_hash(self, name):
        make, make_other = RECORDS[name]
        a, b, other = make(), make(), make_other()
        assert type(a).__name__ == name
        assert a is not b and a == b and not a != b
        assert a != other and not a == other
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b, other}) == 2

    def test_equality_needs_the_exact_type(self, name):
        a = RECORDS[name][0]()
        values = [getattr(a, field) for field in _fields(a)]
        sub = type("Sub", (type(a),), {})(*values)
        assert a != tuple(values) and a != sub and sub != a
        assert a != object()

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        a = RECORDS[name][0]()
        for field in _fields(a):
            with pytest.raises(AttributeError):
                setattr(a, field, None)
            with pytest.raises(AttributeError):
                delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_pickle_round_trip(self, name):
        a = RECORDS[name][0]()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            b = pickle.loads(pickle.dumps(a, protocol))
            assert type(b) is type(a) and b == a

    def test_repr_names_the_class(self, name):
        a = RECORDS[name][0]()
        assert repr(a).startswith(f"{name}(")

    def test_slot_order_is_constructor_order(self, name):
        # Record._assign and Record.__reduce__ both pair slots with
        # constructor arguments by position
        a = RECORDS[name][0]()
        assert _fields(a) == type(a).__slots__


def _fields(record) -> tuple[str, ...]:
    """The constructor parameters of a record, in order."""
    code = type(record).__init__.__code__
    return code.co_varnames[1 : code.co_argcount]


class TestRunStructureIdentity:
    def test_identity_covers_exactly_the_six_fields(self):
        rs = run_structure(B7)
        fields = ("s", "t", "s_set", "t_set", "gamma", "n")
        values = {field: getattr(rs, field) for field in fields}
        assert _fields(rs) == RunStructure.__slots__ == fields
        assert not hasattr(Record, "_hidden") and not hasattr(rs, "_hidden")
        same = RunStructure(**values)
        assert same == rs and hash(same) == hash(rs)
        for field in fields:
            other = RunStructure(**{**values, field: None})
            assert other != rs and hash(other) != hash(rs)
        shown = ", ".join([f"{field}={value!r}" for field, value in values.items()])
        assert repr(rs) == f"RunStructure({shown})"
        back = pickle.loads(pickle.dumps(rs))
        assert back == rs and {field: getattr(back, field) for field in fields} == values

    def test_sign_tables_are_left_out_of_equality_and_hash(self):
        rs = run_structure(B7)
        assert not hasattr(rs, "f_s") and not hasattr(rs, "f_t")
        assert "f_s" not in repr(rs) and "f_t" not in repr(rs)
        fields = dict(s=rs.s, t=rs.t, s_set=rs.s_set, t_set=rs.t_set, gamma=rs.gamma, n=rs.n)
        with pytest.raises(TypeError):
            RunStructure(**fields, f_s={}, f_t={3: 1})
        other = RunStructure(**fields)
        assert other == rs and hash(other) == hash(rs)
        for k in range(-2, rs.n + 3):
            assert f_eval(other, k) == f_eval(rs, k)

    def test_pickle_keeps_the_sign_tables(self):
        rs = run_structure(B7)
        back = pickle.loads(pickle.dumps(rs))
        signs = [(k, f_eval(back, k)) for k in range(rs.n + 1)]
        assert {k: fs for k, (fs, _, _) in signs if fs} == {3: -1, 5: 1, 6: -1}
        assert {k: ft for k, (_, ft, _) in signs if ft} == {1: -1, 2: 1, 4: -1}
        assert [f_eval(rs, k) for k in range(rs.n + 1)] == [sign for _, sign in signs]


class TestPickleWithWitnesses:
    def test_sweep_report_with_failures(self):
        witnesses = ({"instance": "+,2,1,1", "param": 2, "k": 2, "mu": 1},) * 2
        record = SweepRecord("L2", 5, 4, 9, 2, witnesses)
        report = SweepReport(5, ("L2",), (record,))
        back = pickle.loads(pickle.dumps(report))
        assert back == report and back.records[0].failures == witnesses
        assert back.ok is False and back.to_json() == report.to_json()

    def test_verdict_with_witness(self):
        verdict = Verdict("L7", "+,3,2,1,1", True, False, {"k0": 8, "pair_sum": 0})
        back = pickle.loads(pickle.dumps(verdict))
        assert back == verdict and back.witness == {"k0": 8, "pair_sum": 0}


class TestConstructors:
    def test_positional_and_keyword_forms_agree(self):
        assert Verdict("L1", "+,1", True, True) == Verdict(
            lemma_id="L1", instance="+,1", hypotheses_met=True, conclusion_holds=True, witness=None
        )
        assert SearchSpec(1, 3) == SearchSpec(n_min=1, n_max=3, mode="full", normalize=False)
        assert SweepReport(1, (), ()) == SweepReport(n_max=1, targets=(), records=())
        assert BarkerPredictions(n=1, c=(), r=(), r_tilde=()) == barker_predictions(1)
        report = ClassificationReport(
            n_max=1, counts={1: 2}, normalized_rles={}, checks=(), notes=()
        )
        assert report.counts == {1: 2}

    def test_sequences_become_tuples(self):
        assert BinarySequence([1, -1]).elems == (1, -1)
        assert RunLengthEncoding(1, [2, 1]).runs == (2, 1)

    def test_validation(self):
        for bad in ((), (1, 0), (1, True)):
            with pytest.raises(ValueError):
                BinarySequence(bad)
        for sign, runs in ((0, (1,)), (True, (1,)), (1, ()), (1, (0,)), (1, (True,))):
            with pytest.raises(ValueError):
                RunLengthEncoding(sign, runs)
        for args in ((0, 5), (7, 5), (3, 5, "both")):
            with pytest.raises(ValueError):
                SearchSpec(*args)
