"""Machine-checkable verifiers for the run-vector results.

Each verifier evaluates one statement literally, on one instance, and
returns a :class:`Verdict`.  Hypotheses are evaluated first; an instance
that violates them yields ``hypotheses_met=False`` and no conclusion is
asserted (the statements are conditionals, so testing anything else
would change their meaning).  A false conclusion on an instance that
satisfies the hypotheses is a hard failure and carries a minimal
witness for diagnosis.

:func:`sweep` runs selected verifiers over their full instance
populations -- every sequence of a length, or every balanced run tuple
of an odd length -- and aggregates per-length records.  Its unit of
work is one length of one population with every requested target of
that population: each instance's shared state is built once and every
target is evaluated on it.

Sequences are swept as bit planes (bit-slicing, Biham, FSE 1997): one
int holds one bit per mask of the population of all ``2**n`` masks (see
:mod:`runvec.seqcore`), and a quantity of up to b bits is a counter of
b planes.  The element plane ``E_i`` marks the masks whose slot i holds
-1.  Each route to Theorem 1 keeps its own planes:

* C: the counter ``D_k`` adds the planes ``E_i ^ E_{i+k}``, so
  ``C_k = (n-k) - 2*D_k`` and, with ``D_0 = D_n = 0``, Theorem 1,
  ``C_{k+1} - 2*C_k + C_{k-1} = -2*R_k``, holds exactly where
  ``D_{k+1} + D_{k-1} - 2*D_k = R_k``;
* the runs: the boundary planes ``B_p = E_{p-1} ^ E_p`` alone, never C.
  The rank parities are running XORs of the boundaries from each end;
  r~_k counts the single terms at ``s_j = k`` and ``t_i = k`` and the
  pairs with ``s_j + t_i = k`` in a positive and a negative counter, and
  ``R_k = r~_{n-k}``, negated where ``a_1 = a_n``, outside
  ``E_0 ^ E_{n-1}``;
* delta: the difference sequence built from the elements, whose
  ``delta_k`` must equal ``2*R_k`` and ``2*(D_{k+1} + D_{k-1} - 2*D_k)``;
* prop-skew: the skew plane, ``a_{m+d} = (-1)**d * a_{m-d}`` around the
  centre slot m, against the balanced plane, the AND over
  ``q <= n/2`` of ``B_q ^ B_{n-q}``.

The kernels yield one shift's counters at a time, and the sweep keeps
the per-shift lists its witnesses read.  Each target ORs the masks it
fails on into one failure plane, so its failure count is a popcount and
its witnesses, in ascending mask order, are the lowest set bits, each
field read off the planes at that bit.

Balanced run tuples are grown by outer pairs.  Every odd Barker
sequence is skew-symmetric (Turyn & Storer, Proc. AMS 12, 1961), the
skew-symmetric sequences are the balanced ones, and negation keeps the
runs, so one tuple stands for a negation pair.  Around the centre c of a
skew-symmetric sequence of length ``n = 2c - 1``,
``a_{c+d} = (-1)**d * a_{c-d}``: the new ends satisfy
``a_n = (-1)**(c+1) * a_1`` and the old ones ``a_{n-1} = (-1)**c * a_2``,
so exactly one end run grows and a run of 1 starts at the other.  Each
tuple ``(r_1, ..., r_gamma)`` at ``n - 2`` has exactly two children at
n, ``(r_1 + 1, r_2, ..., r_gamma, 1)`` and
``(1, r_1, ..., r_{gamma-1}, r_gamma + 1)``; the first starts with a run
above 1 and the second with a run of 1, and each gives back its parent,
so the ``2**((n+1)//2 - 1)`` tuples at n are distinct.  Each tuple
becomes an encoding through :func:`~runvec.seqcore.trusted_rle`, which
skips the constructor's run check: the enumeration starts from ``(1,)``
and only adds 1 to runs or appends runs of 1, so they are positive ints
by construction.  Each tuple's run structure and balancedness are
built once, its run vector, its tables indexed by k (boundary rank and
signs) and its balanced profile on first use.  The run vector may come
from the tuple's reversal instead: reversing the runs keeps the tuple
balanced (it swaps ``s_set`` and ``t_set``) and leaves the run vector
unchanged (it swaps ``s`` and ``t``, the two factors of the product
:func:`~runvec.seqcore.run_vector_of` reads), and the reversed tuple is
in the population,
since the runs do not depend on the sign.  So the sweep builds the run
vector at most once per reversal pair, for whichever member a target
first reads it on, and hands it to the other member.  The
targets reach their evaluators through one table and one balance gate
that :func:`check_lemma` also uses.  An evaluator takes an instance and a
domain of parameter values and tests the hypotheses and the conclusion
at each value itself: the sweep calls it once per tuple with every
value that can meet the hypotheses (k in 1..n-1 for L2-L5, mu in
1..gamma-1 for L6, each range built once per length), and
:func:`check_lemma` with the one value it was given, so both run the
same code.

Sweep reports serialize as one JSON record per (target, length):
``{target, n, population, hypotheses_met_count, failures}`` where
``population`` counts instances, ``hypotheses_met_count`` counts
individual verdict evaluations whose hypotheses held, and ``failures``
holds up to ten witnesses (``failure_count`` gives the full tally).
Records come in the order of ``SWEEP_TARGETS``, then by length, and
the report is a deterministic function of (targets, n_max), whatever
the worker count.  With more than one process (see :func:`pool_size`)
the units are dealt, longest first, into one share per process, each
unit to the share with the smallest population so far; at n <= 12 the
sequence targets split into {12} and {11..1}.  The caller computes the
first share and forks one child per other share, which sends its
records back pickled through a pipe; neither ``multiprocessing`` nor
``concurrent.futures`` is imported, and ``pickle`` only when a sweep
forks.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from functools import lru_cache, reduce
from itertools import zip_longest
from operator import or_

from .seqcore import (
    BinarySequence,
    Record,
    RunLengthEncoding,
    RunVector,
    _add_signed,
    _counter_sum,
    _element_planes,
    _int_in,
    _lowest_bits,
    _plane_balanced,
    _plane_distances,
    _plane_run_vector,
    _plane_skew_symmetric,
    _reflected_product,
    _signed_at,
    _signed_differ,
    _signed_digits,
    aperiodic_autocorrelations,
    f_eval,
    is_balanced,
    pack_rle,
    packed_autocorrelations,
    run_structure,
    run_vector,
    run_vector_of,
    trusted_rle,
    u_k,
    unpack,
)

LEMMA_IDS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L7n")

#: Targets swept over every sequence of a length; the rest are swept over
#: the balanced run tuples of odd lengths.
SEQUENCE_TARGETS = ("theorem1", "delta", "prop-skew")

SWEEP_TARGETS = SEQUENCE_TARGETS + LEMMA_IDS + ("p-odd",)

BALANCED_ENUM_LIMIT = 29

#: Largest n accepted per sweep target; :func:`sweep` refuses a request
#: beyond the limit of any target it names.
SWEEP_LIMITS = {
    "theorem1": 18,
    "delta": 18,
    "prop-skew": 19,
    **dict.fromkeys(LEMMA_IDS + ("p-odd",), BALANCED_ENUM_LIMIT),
}

_MAX_WITNESSES = 10


class BalancedProfile(Record):
    """Leading-run analysis of a balanced encoding with first run > 1.

    ``p`` is the first run length, ``nu`` the first index whose successor
    run is not a multiple of ``p``, ``q`` that run, ``alpha`` flags
    ``q mod p == 1``, ``s_nu_plus_1`` the boundary after run nu+1, and
    ``k0 = p + s_nu_plus_1 + alpha`` the pivot shift of the pair-bound
    verifier.
    """

    __slots__ = ("p", "nu", "q", "alpha", "s_nu_plus_1", "k0")

    def __init__(self, p: int, nu: int, q: int, alpha: int, s_nu_plus_1: int, k0: int):
        self._assign(p, nu, q, alpha, s_nu_plus_1, k0)


class Verdict(Record):
    """Outcome of one verifier on one instance.

    ``conclusion_holds`` is None when the hypotheses were not met.
    """

    __slots__ = ("lemma_id", "instance", "hypotheses_met", "conclusion_holds", "witness")

    def __init__(self, lemma_id: str, instance: str, hypotheses_met: bool,
                 conclusion_holds: bool | None, witness: dict | None = None):
        self._assign(lemma_id, instance, hypotheses_met, conclusion_holds, witness)


class BarkerPredictions(Record):
    """Predicted autocorrelation and run-vector profiles for an odd length.

    Slot ``i`` of each tuple holds the value for shift ``i + 1``.
    """

    __slots__ = ("n", "c", "r", "r_tilde")

    def __init__(self, n: int, c: tuple[int, ...], r: tuple[int, ...], r_tilde: tuple[int, ...]):
        self._assign(n, c, r, r_tilde)


class SweepRecord(Record):
    """One (target, length) row of a sweep report."""

    __slots__ = ("target", "n", "population", "hypotheses_met_count", "failure_count",
                 "failures")

    def __init__(self, target: str, n: int, population: int, hypotheses_met_count: int,
                 failure_count: int, failures: tuple):
        self._assign(target, n, population, hypotheses_met_count, failure_count, failures)

    def to_json(self) -> dict:
        return {**dict(self._items()), "failures": list(self.failures)}


class SweepReport(Record):
    """Every record of one sweep.  ``complete`` is always True: a sweep
    refuses any length above a requested target's limit."""

    __slots__ = ("n_max", "targets", "records")

    complete = True

    def __init__(self, n_max: int, targets: tuple[str, ...], records: tuple[SweepRecord, ...]):
        self._assign(n_max, targets, records)

    @property
    def ok(self) -> bool:
        return all(rec.failure_count == 0 for rec in self.records)

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "targets": list(self.targets),
            "complete": self.complete,
            "ok": self.ok,
            "records": [rec.to_json() for rec in self.records],
        }


def theorem1_residual(seq: BinarySequence) -> tuple[int, ...]:
    """Second-difference residuals of the autocorrelations against the
    run vector; slot ``k-1`` holds ``C_{k+1} - 2*C_k + C_{k-1} + 2*R_k``.
    An all-zero vector certifies the identity on this sequence.
    """
    c, r = aperiodic_autocorrelations(seq), run_vector(seq).r
    return tuple([c[k + 1] - 2 * c[k] + c[k - 1] + 2 * r[k - 1] for k in range(1, seq.n)])


def delta_autocorrelations(seq: BinarySequence) -> tuple[int, ...]:
    """Autocorrelations of the difference sequence; slot ``k-1`` holds shift k.

    The difference sequence ``d_i = a_i - a_{i-1}``, ``i = 1..n+1``, with
    ``a_0 = a_{n+1} = 0``, has the ends ``a_1`` and ``-a_n`` and otherwise
    terms 0 or +-2.  Independent oracle for the run vector: half of the
    value at shift k equals the reflected run-vector entry at ``k``, and
    the value equals the negated second difference of the plain
    autocorrelations.  Digit ``n - k`` of the product of
    ``sum_i d_{i+1} y**i`` and its reversal is ``delta_k``, ``0 <= k <= n``;
    its ``n + 1 - k`` products are at least -4 (-2 at the ends), and
    adjacent nonzero interior terms differ in sign, so ``delta_1 <= 4`` and
    ``-4(n - k) <= delta_k <= 4(n - 2)``: 8-bit slots hold n <= 33, 16-bit
    ones n <= 8193, 32-bit ones n <= 2**29 + 1, as ``delta_1 = -4(n - 1)``
    for the alternating sequence.
    """
    n = seq.n
    a = (0, *seq.elems, 0)  # a[i] = element i, with a_0 = a_{n+1} = 0
    width = 1 if n <= 33 else 2 if n <= 8193 else 4
    lifted = bytes([2 + ai - before for ai, before in zip(a[1:], a)])  # d_i + 2
    return _signed_digits(_reflected_product(lifted, 2, width), n, width)[:0:-1]


def delta_autocorrelation(seq: BinarySequence, k: int) -> int:
    """Entry ``k`` of :func:`delta_autocorrelations`, 1 <= k <= n-1."""
    return delta_autocorrelations(seq)[_int_in("k", k, 1, seq.n - 1) - 1]


def _plane_delta(planes: tuple[int, ...]) -> Iterator[tuple[list[int], list[int]]]:
    """:func:`delta_autocorrelations` over the population of the element
    ``planes``: the signed counter pairs of ``delta_1, ..., delta_{n-1}``,
    yielded one shift at a time in ascending k.

    The difference sequence is built from the elements: ``d_1 = a_1``,
    ``d_{n+1} = -a_n``, and for ``2 <= i <= n``, ``d_i = 2*a_i`` where
    ``a_i != a_{i-1}`` and 0 elsewhere.  So ``delta_k``, the sum of
    ``d_i * d_{i+k}``, has a term of 2 with ``d_1`` and one with
    ``d_{n+1}``, and one of 4 for each pair of interior differences
    ``k`` apart; each is minus where the two elements it multiplies
    differ in sign, ``-a_n`` counting for ``d_{n+1}``.
    """
    n = len(planes)
    nonzero = [a ^ b for a, b in zip(planes, planes[1:])]  # nonzero[i-2]: d_i != 0
    for k in range(1, n):
        counters = ([], [])
        for i, j in zip(range(2, n + 1 - k), range(2 + k, n + 1)):
            _add_signed(counters, nonzero[i - 2] & nonzero[j - 2], planes[i - 1] ^ planes[j - 1], 2)
        _add_signed(counters, nonzero[k - 1], planes[0] ^ planes[k], 1)
        _add_signed(counters, nonzero[n - k - 1], ~(planes[n - k] ^ planes[n - 1]), 1)
        yield counters


def balanced_profile(rle: RunLengthEncoding) -> BalancedProfile:
    """Leading-run profile of a balanced encoding; requires first run > 1.

    Raises ValueError when the encoding is not balanced or the first run
    is 1.  Internally cross-checks the facts the profile is built on
    (last run 1, divisibility of the early boundaries, the value -1 of
    the run vector at the first boundary, and the boundary bound for
    first run >= 3); any violation raises RuntimeError since it would
    mean the calculus itself is broken.
    """
    return _Instance(rle).profile


def barker_predictions(n: int) -> BarkerPredictions:
    """Predicted C, reflected and untransformed run-vector entries for a
    Barker sequence of odd length ``n`` (empty tuples for ``n = 1``)."""
    if _int_in("n", n) < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")
    m = (n + 1) // 2
    even_lag = (-1) ** (m + 1)
    first_r = -m if m % 2 else 1 - m
    last_tilde = m if m % 2 else 1 - m
    c = tuple(0 if k % 2 else even_lag for k in range(1, n))
    r = tuple(first_r if k == 1 else (-1) ** (k + m + 1) for k in range(1, n))
    r_tilde = tuple((-1) ** k if k <= n - 2 else last_tilde for k in range(1, n))
    return BarkerPredictions(n=n, c=c, r=r, r_tilde=r_tilde)


# ---------------------------------------------------------------------------
# Balanced-encoding evaluators.  Each takes the shared state of one
# encoding and an iterable of parameter values -- k for L2-L5, mu for L6,
# the single value None for the parameterless ones -- tests the lemma's
# hypotheses and then its conclusion at each value in turn, and returns
# (number of values whose hypotheses held, [(value, witness), ...] for the
# values whose conclusion failed, in iteration order).  The parameterised
# ones read per-instance state inside the loop: the rank and sign tables,
# indexed by k, and the run vector.  check_lemma and the sweep harness
# both reach them through _BALANCED_CHECKS and _evaluate, which holds the
# one balance gate, so an evaluator of a lemma that assumes a balanced
# encoding only ever sees balanced ones.
#
# Notation of the statements: s, t are the boundary prefix sums from each
# end and S, T their interior sets; f_s(k), f_t(k) are the boundary signs,
# (-1)**j at the j-th interior boundary of s (t) and 0 elsewhere, and
# f = f_s + f_t; mu is the rank with s_{mu-1} < k <= s_mu; k is "doubled"
# when k is even and k/2 is in S; u_k is as in runvec.seqcore.u_k, and
# r~_k = f(k) + 2*u_k.
# ---------------------------------------------------------------------------


class _Instance:
    """One encoding with the state its verifiers share, each part built
    once: the run structure and balancedness, which nearly every
    verifier reads, up front; the run vector, the tables indexed by k
    and the balanced profile on first read, kept in slots.  The sweep's
    encodings come from :func:`~runvec.seqcore.trusted_rle`, unchecked:
    :func:`balanced_run_tuples` makes tuples of positive ints only.

    ``rv``, when given, is the run vector of the reversed runs, which the
    sweep built for the reversal pair's first member: reversing the runs
    swaps ``s`` and ``t``, which :func:`~runvec.seqcore.run_vector_of`
    treats alike (it multiplies ``(1 + 2A)(1 + 2B)``), so that vector is
    this encoding's own."""

    __slots__ = ("rle", "rs", "balanced", "_rv", "_tables", "_profile")

    def __init__(self, rle: RunLengthEncoding, rv: RunVector | None = None):
        self.rle = rle
        self.rs = run_structure(rle)
        self.balanced = is_balanced(self.rs)
        self._rv = rv
        self._tables = self._profile = None

    @property
    def rv(self) -> RunVector:
        if self._rv is None:
            self._rv = run_vector_of(self.rs)
        return self._rv

    @property
    def tables(self) -> tuple[list[int], list[int], list[int]]:
        """``(rank, f, f_t)``, each a list with one slot per k = 0..n."""
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables

    @property
    def profile(self) -> BalancedProfile:
        if self._profile is None:
            self._profile = self._build_profile()
        return self._profile

    def _build_tables(self) -> tuple[list[int], list[int], list[int]]:
        """Slot k of ``rank`` holds :func:`~runvec.seqcore.boundary_rank_interval`
        of k, the mu with ``s_{mu-1} < k <= s_mu``, for ``1 <= k <= n``;
        slot k of ``f_t`` holds the reverse sign of
        :func:`~runvec.seqcore.f_eval` at k, ``(-1)**mu`` at the mu-th
        interior boundary of ``t`` and 0 elsewhere, and slot k of ``f``
        the sum of the forward sign, read the same way off ``s``, and the
        reverse one: ``f_eval(rs, k)[2]``.  One pass over the boundaries
        instead of a bisection or lookup per k; the forward sign alone is
        ``f[k] - f_t[k]``."""
        s, t, gamma, n = self.rs.s, self.rs.t, self.rs.gamma, self.rs.n
        rank, f, f_t = [0], [0] * (n + 1), [0] * (n + 1)
        before, sign = 0, -1
        for mu, boundary, reverse in zip(range(1, gamma), s, t):
            rank += [mu] * (boundary - before)
            f[boundary] += sign
            f[reverse] += sign
            f_t[reverse] = sign
            before, sign = boundary, -sign
        rank += [gamma] * (n - before)
        return rank, f, f_t

    def _build_profile(self) -> BalancedProfile:
        """:func:`balanced_profile` of the encoding, read off this state."""
        rle, rs = self.rle, self.rs
        if not self.balanced:
            raise ValueError("requires balanced RLE")
        p = rle.runs[0]
        if p == 1:
            raise ValueError("requires p > 1")
        if rle.runs[-1] != 1:
            raise RuntimeError(f"balanced encoding with p > 1 must end in a run of 1: {rle}")
        nu = next((j for j in range(1, rle.gamma) if rle.runs[j] % p != 0), None)
        if nu is None:
            raise RuntimeError(f"no qualifying run index exists for {rle}")
        q = rle.runs[nu]
        alpha = 1 if q % p == 1 else 0
        s_nu_plus_1 = rs.s[nu]
        profile = BalancedProfile(p, nu, q, alpha, s_nu_plus_1, p + s_nu_plus_1 + alpha)

        for j in range(nu):
            if rs.s[j] % p != 0:
                raise RuntimeError(f"early boundary not divisible by first run: {rle}")
        if s_nu_plus_1 % p == 0 or q % p == 0:
            raise RuntimeError(f"pivot boundary unexpectedly divisible: {rle}")
        _, _, f_p = f_eval(rs, p)
        if f_p + 2 * u_k(rs, p) != -1:
            raise RuntimeError(f"run vector at first boundary is not -1: {rle}")
        if p >= 3 and s_nu_plus_1 > rs.gamma + 1:
            raise RuntimeError(f"pivot boundary exceeds gamma + 1: {rle}")
        return profile


def _eval_l1(inst: _Instance, _):
    """L1: an encoding is balanced exactly when every r~_k, 1 <= k <= n-1,
    is odd.  It does not assume a balanced encoding: it is about them.  The
    sweep visits balanced tuples only, so it tests "balanced => every r~_k
    odd"; the converse is tested by :func:`check_lemma` on unbalanced ones."""
    balanced = inst.balanced
    r_tilde = inst.rv.r_tilde
    if balanced == all(map((1).__and__, r_tilde)):
        return 1, []
    bad = next((k for k, v in enumerate(r_tilde, start=1) if not v & 1), None)
    return 1, [(None, {"balanced": balanced, "first_even_entry_k": bad})]


def _eval_l2(inst: _Instance, ks):
    """L2: if k is not in S, then f(k) = f_t(k) = (-1)**(k+mu+1)."""
    s_set = inst.rs.s_set
    rank, f, f_t = inst.tables
    met, failed = 0, []
    for k in ks:
        if k in s_set:
            continue
        met += 1
        mu = rank[k]
        want = 1 if (k + mu) & 1 else -1
        if not f[k] == f_t[k] == want:
            failed.append((k, {"k": k, "mu": mu, "f": f[k], "f_t": f_t[k], "expected": want}))
    return met, failed


def _eval_l3(inst: _Instance, ks):
    """L3: if k is in S and k is odd, then f(k-1) = -f(k) when k > 1, and
    f(k+1) = f(k) when k+1 is in T.  A failed first part is the witness."""
    s_set, t_set = inst.rs.s_set, inst.rs.t_set
    _, f, _ = inst.tables
    met, failed = 0, []
    for k in ks:
        if not (k in s_set and k & 1):
            continue
        met += 1
        if k > 1 and f[k - 1] != -f[k]:
            failed.append((k, {"k": k, "part": "before", "f": f[k], "f_before": f[k - 1]}))
        elif (k + 1) in t_set and f[k + 1] != f[k]:
            failed.append((k, {"k": k, "part": "after", "f": f[k], "f_after": f[k + 1]}))
    return met, failed


def _eval_l4(inst: _Instance, ks):
    """L4: for every k, u_k = mu (mod 2) exactly when k is doubled."""
    s_set, r_tilde = inst.rs.s_set, inst.rv.r_tilde
    rank, f, _ = inst.tables
    met, failed = 0, []
    for k in ks:
        met += 1
        mu = rank[k]
        # r~_k = f(k) + 2*u_k, read off the run vector the instance already holds
        u = (r_tilde[k - 1] - f[k]) >> 1
        parity_match = not (u - mu) & 1
        doubled = not k & 1 and (k >> 1) in s_set
        if parity_match != doubled:
            failed.append((k, {"k": k, "mu": mu, "u": u, "doubled_boundary": doubled}))
    return met, failed


def _eval_l5(inst: _Instance, ks):
    """L5: if k is in S, then r~_k = 1 (mod 4) exactly when k is doubled."""
    s_set, r_tilde = inst.rs.s_set, inst.rv.r_tilde
    met, failed = 0, []
    for k in ks:
        if k not in s_set:
            continue
        met += 1
        doubled = not k & 1 and (k >> 1) in s_set
        r_tilde_k = r_tilde[k - 1]
        if doubled != (r_tilde_k & 3 == 1):
            failed.append((k, {"k": k, "r_tilde_k": r_tilde_k, "doubled_boundary": doubled}))
    return met, failed


def _eval_l6(inst: _Instance, mus):
    """L6: if mu < gamma and the runs 1..mu-1 are all >= 2, then the width
    w = s_mu - mu is below gamma and the last w runs are all <= 2."""
    runs, s = inst.rle.runs, inst.rs.s
    gamma = len(runs)
    # mu meets the hypotheses when mu < gamma and the mu - 1 runs before it
    # are all >= 2, that is, when mu - 1 <= short, the count of leading
    # runs >= 2, which ends at the first run of 1 since every run is >= 1
    short = runs.index(1) if 1 in runs else gamma
    top = min(gamma - 1, short + 1)
    met, failed = 0, []
    for mu in mus:
        if not 1 <= mu <= top:
            continue
        met += 1
        width = s[mu - 1] - mu
        if width >= gamma:
            failed.append((mu, {"mu": mu, "s_mu": s[mu - 1], "width": width}))
            continue
        for j in range(1, width + 1):
            if runs[gamma - j] > 2:
                failed.append((mu, {"mu": mu, "tail_index": gamma + 1 - j, "run": runs[gamma - j]}))
                break
    return met, failed


def _pivot_fault(inst: _Instance) -> str | None:
    """The first pivot fact of :class:`BalancedProfile` that a balanced
    encoding with first run > 1 breaks: ``"ii"`` when s_{nu+1} is even,
    ``"iii"`` when alpha = 1 and s_{nu+1} + 1 is not in T, else None.
    L7 assumes both facts and p-odd asserts them, as its parts ii and iii."""
    profile = inst.profile
    if not profile.s_nu_plus_1 & 1:
        return "ii"
    if profile.alpha == 1 and (profile.s_nu_plus_1 + 1) not in inst.rs.t_set:
        return "iii"
    return None


def _l7_hypotheses(inst: _Instance):
    """Profile of a balanced instance meeting the pair-bound hypotheses:
    p >= 3 odd, neither pivot fact broken (:func:`_pivot_fault`) and
    k0 < n, since the pair bound asserts nothing at or beyond n; else None."""
    p = inst.rle.runs[0]
    if p < 3 or not p & 1 or _pivot_fault(inst) or inst.profile.k0 >= inst.rs.n:
        return None
    return inst.profile


def _eval_l7(inst: _Instance, _):
    """L7: if p >= 3 is odd, s_{nu+1} is odd, alpha = 1 implies s_{nu+1} + 1
    is in T, and k0 < n, then |r~_{k0} + r~_{k0-1}| >= 2 (profile fields
    as in :class:`BalancedProfile`, p the first run)."""
    profile = _l7_hypotheses(inst)
    if profile is None:
        return 0, []
    k0 = profile.k0
    pair = inst.rv.tilde(k0) + inst.rv.tilde(k0 - 1)
    if abs(pair) >= 2:
        return 1, []
    return 1, [(None, {"k0": k0, "pair_sum": pair})]


def _eval_l7n(inst: _Instance, _):
    """L7n: under L7's hypotheses and its conclusion, some |C_j| >= 3 with
    j in n-k0-1..n-k0+2 and 0 <= j <= n (C_0 = n, C_n = 0), so the
    encoding is not Barker."""
    profile = _l7_hypotheses(inst)
    if profile is None:
        return 0, []
    k0 = profile.k0
    if abs(inst.rv.tilde(k0) + inst.rv.tilde(k0 - 1)) < 2:
        return 0, []
    n = inst.rs.n
    c = (n, *packed_autocorrelations(pack_rle(inst.rle), n), 0)
    window = [j for j in (n - k0 - 1, n - k0, n - k0 + 1, n - k0 + 2) if 0 <= j <= n]
    if any(abs(c[j]) >= 3 for j in window):
        return 1, []
    return 1, [(None, {"k0": k0, "window": window, "values": [c[j] for j in window]})]


def _eval_p_odd(inst: _Instance, _):
    """p-odd: for a Barker encoding (every |C_k| <= 1, 1 <= k <= n-1) of odd
    length n whose first run p exceeds 1, (i) p is odd when n > 3, and when
    n > 5 (ii) s_{nu+1} is odd, (iii) alpha = 1 implies s_{nu+1} + 1 is in T
    and (iv) n <= k0 + 1.  The first failed part is the witness.  It does
    not assume a balanced encoding: an odd Barker sequence is one."""
    rle = inst.rle
    n = rle.n
    if not (n % 2 == 1 and rle.runs[0] > 1):
        return 0, []
    for c in packed_autocorrelations(pack_rle(rle), n):
        if not -1 <= c <= 1:
            return 0, []
    if n <= 3:
        return 1, []
    profile = inst.profile
    if profile.p % 2 == 0:
        return 1, [(None, {"part": "i", "p": profile.p})]
    if n > 5:
        part = _pivot_fault(inst)
        if part is not None:
            return 1, [(None, {"part": part, "s_nu_plus_1": profile.s_nu_plus_1})]
        bound = profile.k0 + 1
        if n > bound:
            return 1, [(None, {"part": "iv", "n": n, "bound": bound})]
    return 1, []


#: Balanced-encoding target -> (evaluator, parameter name or None, whether
#: the lemma assumes a balanced encoding).
_BALANCED_CHECKS = {
    "L1": (_eval_l1, None, False),
    "L2": (_eval_l2, "k", True),
    "L3": (_eval_l3, "k", True),
    "L4": (_eval_l4, "k", True),
    "L5": (_eval_l5, "k", True),
    "L6": (_eval_l6, "mu", True),
    "L7": (_eval_l7, None, True),
    "L7n": (_eval_l7n, None, True),
    "p-odd": (_eval_p_odd, None, False),
}


def _evaluate(inst: _Instance, checks) -> list[tuple[int, list]]:
    """``(met count, failures)`` of each ``(evaluator, domain,
    assumes_balanced)`` in ``checks`` on one encoding: the one balance
    gate, so a lemma that assumes a balanced encoding meets no hypothesis
    on any other."""
    balanced = inst.balanced
    return [
        evaluate(inst, domain) if balanced or not assumes_balanced else (0, [])
        for evaluate, domain, assumes_balanced in checks
    ]


def check_lemma(
    lemma_id: str,
    rle: RunLengthEncoding,
    k: int | None = None,
    mu: int | None = None,
) -> Verdict:
    """Evaluate one verifier, of ``LEMMA_IDS`` or ``"p-odd"``, on one encoding.

    ``k`` is required for L2-L5 and must lie in [1, n-1]; ``mu`` is
    required for L6 and must lie in [1, gamma], and the others take
    neither.  Other parameters, and ones that are not exactly an int,
    raise ValueError; in-range ones that merely violate a lemma's
    hypotheses yield ``hypotheses_met=False``, as does an unbalanced
    encoding for a lemma that assumes a balanced one (all but L1 and
    p-odd), and a failed conclusion carries the sweep's witness for the
    value.
    """
    if lemma_id not in _BALANCED_CHECKS:
        ids = tuple(_BALANCED_CHECKS)
        raise ValueError(f"unknown lemma_id {lemma_id!r}; expected one of {ids}")
    evaluate, name, assumes_balanced = _BALANCED_CHECKS[lemma_id]
    for other, value in (("k", k), ("mu", mu)):
        if value is not None and other != name:
            raise ValueError(f"{lemma_id} takes no parameter {other}")
    domain = (None,)
    if name is not None:
        param = k if name == "k" else mu
        if param is None:
            raise ValueError(f"{lemma_id} requires parameter {name}")
        domain = (_int_in(name, param, 1, rle.n - 1 if name == "k" else rle.gamma),)
    [(met, failed)] = _evaluate(_Instance(rle), [(evaluate, domain, assumes_balanced)])
    if not met:
        return Verdict(lemma_id, rle.to_text(), False, None)
    if not failed:
        return Verdict(lemma_id, rle.to_text(), True, True)
    return Verdict(lemma_id, rle.to_text(), True, False, failed[0][1])


def check_p_odd(rle: RunLengthEncoding) -> Verdict:
    """``check_lemma("p-odd", rle)``: verify the four structural facts
    about odd-length Barker encodings whose first run exceeds 1; each
    part applies only above its length threshold (parts ii-iv need
    n > 5, part i needs n > 3).  The verdict's id is ``"p-odd"``."""
    return check_lemma("p-odd", rle)


@lru_cache(maxsize=None, typed=True)  # typed: 5.0 must miss, to be refused
def balanced_run_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """All balanced run tuples summing to odd ``n``, sorted.

    Grown from the tuples at ``n - 2`` by their outer pairs.  Around the
    centre c of a skew-symmetric sequence of length ``n = 2c - 1``,
    ``a_{c+d} = (-1)**d * a_{c-d}``, so the new ends satisfy
    ``a_n = (-1)**(c+1) * a_1`` and the old ones ``a_{n-1} = (-1)**c * a_2``.
    Either ``a_1 = a_2`` and ``a_n = -a_{n-1}``, or ``a_1 = -a_2`` and
    ``a_n = a_{n-1}``: exactly one end run grows and a run of 1 starts at
    the other, giving the children ``(r_1 + 1, ..., r_gamma, 1)`` and
    ``(1, r_1, ..., r_gamma + 1)`` of each tuple at ``n - 2``.  A negated
    sequence has the same run tuple, so one tuple stands for a negation
    pair, and the ``2**((n+1)//2 - 1)`` tuples must all differ.
    """
    if _int_in("n", n) < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")
    if n > BALANCED_ENUM_LIMIT:
        raise ValueError(f"balanced enumeration limited to n <= {BALANCED_ENUM_LIMIT}")
    if n == 1:
        return ((1,),)
    parents = balanced_run_tuples(n - 2)
    # sorted parents give sorted children, those starting with 1 first, so
    # the sort below finds a single run
    grown = [(1, *runs[:-1], runs[-1] + 1) for runs in parents]
    grown += [(runs[0] + 1, *runs[1:], 1) for runs in parents]
    distinct = len(set(grown))
    if distinct != 1 << (n - 1) // 2:
        raise RuntimeError(f"balanced enumeration produced {distinct} tuples for n={n}")
    grown.sort()
    return tuple(grown)


# ---------------------------------------------------------------------------
# Sweep harness.
# ---------------------------------------------------------------------------


def _negated_off(counters: tuple[list[int], list[int]], keep: int) -> tuple[list[int], list[int]]:
    """The signed counter pair ``counters`` with its value negated at the
    masks outside ``keep``: there its two counters trade planes."""
    positive, negative = [], []
    for plus, minus in zip_longest(*counters, fillvalue=0):
        swap = (plus ^ minus) & ~keep
        positive.append(plus ^ swap)
        negative.append(minus ^ swap)
    return positive, negative


def _sweep_sequences(n: int, targets: tuple[str, ...]) -> list[SweepRecord]:
    """The sequence targets at length n over the population of all
    ``2**n`` masks, as bit planes (see the module docstring): each target
    ORs the masks it fails on into one failure plane, whose popcount is
    its ``failure_count`` and whose ten lowest set bits, in ascending
    mask order, are its witnesses, their fields read off the planes at
    that bit.  A passing sweep decodes no mask.
    """
    theorem1, delta, skew = (t in targets for t in SEQUENCE_TARGETS)
    planes, population = _element_planes(n), 1 << n
    failing = {}  # target -> (failure plane, the witness fields at a mask on it)

    def first(mismatches, x):
        return next(k for k, plane in enumerate(mismatches, start=1) if plane >> x & 1)

    if theorem1 or delta:
        d = [[], *_plane_distances(planes), []]  # D_0 = D_n = 0
        # r_k = r~_{n-k} where a_1 != a_n, the masks with an even run count
        ends_differ = planes[0] ^ planes[-1]
        r = [_negated_off(pair, ends_differ) for pair in _plane_run_vector(planes)][::-1]
        # Theorem 1 holds at k exactly when R_k = D_{k+1} + D_{k-1} - 2*D_k
        second = [(_counter_sum(d[k + 1], d[k - 1]), [0, *d[k]]) for k in range(1, n)]
        mismatch = list(map(_signed_differ, second, r))

        def theorem1_fields(x):
            # the residual C_{k+1} - 2*C_k + C_{k-1} + 2*R_k
            k = first(mismatch, x)
            residual = 2 * (_signed_at(r[k - 1], x) - _signed_at(second[k - 1], x))
            return {"k": k, "residual": residual}

        failing["theorem1"] = (reduce(or_, mismatch, 0), theorem1_fields)
    if delta:
        deltas = list(_plane_delta(planes))
        # delta_k must equal 2*R_k, and so 2*(D_{k+1} + D_{k-1} - 2*D_k) too
        delta_mismatch = [
            wrong | _signed_differ(pair, ([0, *plus], [0, *minus]))
            for wrong, pair, (plus, minus) in zip(mismatch, deltas, r)
        ]

        def delta_fields(x):
            k = first(delta_mismatch, x)
            return {"k": k, "delta": _signed_at(deltas[k - 1], x), "r_k": _signed_at(r[k - 1], x)}

        failing["delta"] = (reduce(or_, delta_mismatch, 0), delta_fields)
    if skew:
        full = (1 << population) - 1
        skew_symmetric = _plane_skew_symmetric(planes, full)
        balanced = _plane_balanced(planes, full)

        def skew_fields(x):
            return {"skew_symmetric": bool(skew_symmetric >> x & 1),
                    "balanced": bool(balanced >> x & 1)}

        failing["prop-skew"] = (skew_symmetric ^ balanced, skew_fields)
    records = []
    for target in targets:
        plane, fields = failing[target]
        lowest = _lowest_bits(plane, _MAX_WITNESSES)
        witnesses = tuple([{"instance": unpack(x, n).to_text(), **fields(x)} for x in lowest])
        count = plane.bit_count()
        records.append(SweepRecord(target, n, population, population, count, witnesses))
    return records


def _sweep_balanced(n: int, targets: tuple[str, ...]) -> list[SweepRecord]:
    """The balanced-encoding targets at odd length n over every balanced
    run tuple; each tuple's state is built once for all of them, and its
    run vector is the one its reversal left, if any (see :class:`_Instance`).
    The tuples are still visited in sorted order, so every record is that
    of a sweep without sharing.
    """
    # every balanced tuple of length n has gamma = (n+1)//2 runs; L6 needs mu < gamma
    domains = {None: (None,), "k": range(1, n), "mu": range(1, (n + 1) // 2)}
    checks = [  # (evaluator, domain, assumes_balanced) per target, looked up once per length
        (evaluate, domains[name], assumes)
        for evaluate, name, assumes in map(_BALANCED_CHECKS.get, targets)
    ]
    met, found = [0] * len(checks), [[] for _ in checks]
    population = balanced_run_tuples(n)
    # a tuple's reversal -> the run vector the tuple built, for the reversal
    # to take; at most one entry per reversal pair
    awaited = {}
    for runs in population:
        rv = awaited.pop(runs, None)
        inst = _Instance(trusted_rle(1, runs), rv)
        for i, (met_count, failed) in enumerate(_evaluate(inst, checks)):
            met[i] += met_count
            for param, witness in failed:
                entry = {"instance": inst.rle.to_text()}
                if param is not None:
                    entry["param"] = param
                entry.update(witness)
                found[i].append(entry)
        if rv is None and inst._rv is not None:
            awaited[runs[::-1]] = inst._rv
    return [
        SweepRecord(target, n, len(population), count, len(failed), tuple(failed[:_MAX_WITNESSES]))
        for target, count, failed in zip(targets, met, found)
    ]


def pool_size(workers: int, tasks: int) -> int:
    """Processes a sweep may run, the calling one included: the request,
    capped by the task count and by the CPUs this process may run on (its
    affinity mask where the platform has one, else the core count), so no
    argument can start an unbounded number of processes.  Without
    ``os.fork`` the sweep runs in-process, so the size is 1."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, tasks, cpus))


def _run_share(share) -> list[SweepRecord]:
    return [rec for sweep_length, n, targets in share for rec in sweep_length(n, targets)]


def _run_shares(shares) -> list[SweepRecord]:
    """The records of every share: the first computed here, each other in
    a forked child that pickles ``(ok, records or exception)`` into a pipe.

    A child leaves only through ``os._exit``, so it never returns into the
    caller's stack or flushes the caller's stdio buffers; it exits 0 once
    its result is written and 1 otherwise.  Every child is reaped before
    this returns or raises.  A child's exception is raised here; a child
    that ended without a result, or a pipe or fork that could not be
    made, raises RuntimeError.  The package
    starts no threads, which a fork would not carry into the child (Python
    3.12 and later warn when a process with threads forks).
    """
    # imported here: only a sweep that forks needs it
    import pickle

    pids, pipes = [], []
    try:
        for share in shares[1:]:
            try:
                read_fd, write_fd = os.pipe()
                pipes.append(open(read_fd, "rb"))
                with open(write_fd, "wb") as writer:
                    pid = os.fork()
                    if pid == 0:
                        code = 1
                        try:
                            # a read end still open in a child would block that
                            # pipe's writer once the caller has closed its copy
                            for pipe in pipes:
                                pipe.close()
                            try:
                                payload = (True, _run_share(share))
                            except Exception as exc:
                                payload = (False, exc)
                            pickle.dump(payload, writer)
                            writer.flush()
                            code = 0
                        finally:
                            os._exit(code)
            except OSError as exc:  # EAGAIN under a process limit, EMFILE
                raise RuntimeError(f"could not start a sweep process: {exc}") from exc
            pids.append(pid)
        records = _run_share(shares[0])
        sent = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for data, status in zip(sent, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise RuntimeError(f"a sweep process ended without a result (exit status {code})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        records += value
    return records


def sweep(n_max: int, targets, workers: int = 1) -> SweepReport:
    """Run the selected verifiers over their full populations up to n_max.

    Raises ValueError before any work starts: for ``n_max`` not exactly
    an int, then below 1, for ``workers`` not exactly an int, then below
    1, then for ``targets`` that is a str, bytes or not iterable, then
    for an empty target list, then for the first name, in the caller's
    order, that is not in :data:`SWEEP_TARGETS` (names are
    case-sensitive), then for the first target whose :data:`SWEEP_LIMITS`
    entry is below ``n_max``.  The record list is sorted by (target, n)
    and does not depend on the worker count.
    """
    _int_in("n_max", n_max, 1)
    _int_in("workers", workers, 1)
    if isinstance(targets, (str, bytes)) or not isinstance(targets, Iterable):
        raise ValueError(f"targets must be a list of target names, got {targets!r}")
    wanted = list(targets)
    if not wanted:
        raise ValueError("no sweep targets given")
    for target in wanted:
        if target not in SWEEP_TARGETS:
            raise ValueError(
                f"unknown sweep target {target!r}; choose from {', '.join(SWEEP_TARGETS)}"
            )
    for target in wanted:
        cap = SWEEP_LIMITS[target]
        if n_max > cap:
            raise ValueError(f"target {target} limited to n <= {cap}, requested {n_max}")
    ordered = tuple(t for t in SWEEP_TARGETS if t in wanted)
    by_length = {}
    for target in ordered:
        sweep_length = _sweep_sequences if target in SEQUENCE_TARGETS else _sweep_balanced
        step = 1 if target in ("theorem1", "delta") else 2
        for n in range(1, n_max + 1, step):
            by_length.setdefault((sweep_length, n), []).append(target)
    # longest first, each to the share with the smallest population so
    # far, so no share ends on one long unit
    units = sorted(
        ((fn, n, tuple(names)) for (fn, n), names in by_length.items()),
        key=lambda unit: -unit[1],
    )
    size = pool_size(workers, len(units))
    shares = [[] for _ in range(size)]
    loads = [0] * size
    for unit in units:
        fn, n, _ = unit
        i = loads.index(min(loads))
        shares[i].append(unit)
        loads[i] += 1 << n if fn is _sweep_sequences else 1 << (n - 1) // 2
    records = _run_share(units) if size == 1 else _run_shares(shares)
    rank = {target: i for i, target in enumerate(ordered)}
    records.sort(key=lambda rec: (rank[rec.target], rec.n))
    return SweepReport(n_max, ordered, tuple(records))
