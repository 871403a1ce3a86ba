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
target is evaluated on it.  Sequences are swept as packed masks (see
:mod:`runvec.seqcore`): C comes from the lazy packed loop, the run vector
from the runs read off the mask (never from C), and sequences are
decoded only for the delta oracle, which is computed on the elements,
and for failure witnesses.

One mask is evaluated per orbit of {identity, negation, reversal,
negation after reversal}: every sequence target reads only quantities
that negation, ``x -> x ^ (2**n - 1)``, and reversal, ``x -> y`` with
y the n-bit reversal of x, leave unchanged, so each verdict also stands
for ``~x``, ``y`` and ``~y``.  For negation, read off the code:

* within n bits, ``~x ^ (~x >> 1)`` differs from ``x ^ (x >> 1)`` only
  in bit n-1, which :func:`~runvec.seqcore.packed_runs` forces on, so
  the runs, and with them the run structure, the run vector and
  balancedness, are equal;
* ``(~x ^ (~x >> k)) & mask`` equals ``(x ^ (x >> k)) & mask`` for
  every k >= 1, so C is equal;
* the delta oracle multiplies pairs of differences, and negation flips
  the sign of each difference, so every product is equal;
* negation preserves skew-symmetry, since both slots of a mirrored
  pair change sign.

For reversal:

* the runs are reversed, which swaps ``s`` and ``t``, and
  :func:`~runvec.seqcore.run_vector_of` treats both alike (it
  multiplies ``(1 + 2A)(1 + 2B)``, where ``A`` and ``B`` carry the ranks'
  signs at the boundaries of ``s`` and ``t``), so ``r`` and ``r_tilde``
  are equal;
* ``C_k`` sums ``a_i * a_{i+k}`` over all i, which reversal permutes;
* the difference sequence is reversed and negated, so the pairs at
  distance k, and their products, are the same;
* reversal preserves skew-symmetry, since it maps each mirrored pair to
  itself;
* swapping ``s_set`` and ``t_set`` keeps them a partition or not, so
  balancedness is equal.

The sweep therefore evaluates the '+'-first masks x whose '+'-first
partner, y or ``~y``, is not smaller; at n <= 12 that is 2 142 of the
8 190 masks.

Balanced run tuples are generated by mirroring the free half of a
skew-symmetric sequence; negation preserves the tuple, so each odd
length ``n`` yields exactly ``2**((n+1)//2 - 1)`` distinct instances.
Each tuple's run structure is built once, its balancedness, run vector,
boundary-rank table and balanced profile on first use.  The targets
reach their evaluators through one table that :func:`check_lemma` also
uses.  An evaluator takes an instance and a domain of parameter values
and tests the hypotheses and the conclusion at each value itself: the
sweep calls it once per tuple with every in-range value (k in 1..n-1
for L2-L5, mu in 1..gamma for L6), and :func:`check_lemma` with the
one value it was given, so both run the same code.

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
from functools import lru_cache

from .seqcore import (
    BinarySequence,
    Record,
    RunLengthEncoding,
    RunVector,
    aperiodic_autocorrelations,
    decode_rle,
    f_eval,
    is_balanced,
    is_barker,
    packed_autocorrelations,
    packed_rle,
    packed_runs,
    packed_skew_symmetric,
    run_structure,
    run_vector,
    run_vector_of,
    u_k,
    unpack,
)

LEMMA_IDS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L7n")

#: Targets swept over every sequence of a length; the rest are swept over
#: the balanced run tuples of odd lengths.
SEQUENCE_TARGETS = ("theorem1", "delta", "prop-skew")

SWEEP_TARGETS = SEQUENCE_TARGETS + LEMMA_IDS + ("p-odd",)

BALANCED_ENUM_LIMIT = 29

#: Largest n accepted per sweep target; requests beyond these clamp the
#: sweep and flag the report incomplete.
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "s_nu_plus_1", s_nu_plus_1)
        object.__setattr__(self, "k0", k0)


class Verdict(Record):
    """Outcome of one verifier on one instance.

    ``conclusion_holds`` is None when the hypotheses were not met.
    """

    __slots__ = ("lemma_id", "instance", "hypotheses_met", "conclusion_holds", "witness")

    def __init__(self, lemma_id: str, instance: str, hypotheses_met: bool,
                 conclusion_holds: bool | None, witness: dict | None = None):
        object.__setattr__(self, "lemma_id", lemma_id)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "hypotheses_met", hypotheses_met)
        object.__setattr__(self, "conclusion_holds", conclusion_holds)
        object.__setattr__(self, "witness", witness)


class BarkerPredictions(Record):
    """Predicted autocorrelation and run-vector profiles for an odd length.

    Slot ``i`` of each tuple holds the value for shift ``i + 1``.
    """

    __slots__ = ("n", "c", "r", "r_tilde")

    def __init__(self, n: int, c: tuple[int, ...], r: tuple[int, ...], r_tilde: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_tilde", r_tilde)


class SweepRecord(Record):
    """One (target, length) row of a sweep report."""

    __slots__ = ("target", "n", "population", "hypotheses_met_count", "failure_count",
                 "failures")

    def __init__(self, target: str, n: int, population: int, hypotheses_met_count: int,
                 failure_count: int, failures: tuple):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "population", population)
        object.__setattr__(self, "hypotheses_met_count", hypotheses_met_count)
        object.__setattr__(self, "failure_count", failure_count)
        object.__setattr__(self, "failures", failures)

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "n": self.n,
            "population": self.population,
            "hypotheses_met_count": self.hypotheses_met_count,
            "failure_count": self.failure_count,
            "failures": list(self.failures),
        }


class SweepReport(Record):
    """Every record of one sweep; ``complete`` is False when a target
    was clamped to its limit."""

    __slots__ = ("n_max", "targets", "records", "complete")

    def __init__(self, n_max: int, targets: tuple[str, ...], records: tuple[SweepRecord, ...],
                 complete: bool):
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "complete", complete)

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


def _sign_pow(e: int) -> int:
    """(-1)**e without leaving the integers."""
    return -1 if e & 1 else 1


def _second_difference_residual(c, r) -> tuple[int, ...]:
    """``C_{k+1} - 2*C_k + C_{k-1} + 2*R_k`` for k = 1..n-1, slot k-1."""
    return tuple(
        [before - 2 * at + after + 2 * rk for before, at, after, rk in zip(c, c[1:], c[2:], r)]
    )


def theorem1_residual(seq: BinarySequence) -> tuple[int, ...]:
    """Second-difference residuals of the autocorrelations against the
    run vector; slot ``k-1`` holds ``C_{k+1} - 2*C_k + C_{k-1} + 2*R_k``.
    An all-zero vector certifies the identity on this sequence.
    """
    return _second_difference_residual(aperiodic_autocorrelations(seq), run_vector(seq).r)


def delta_autocorrelations(seq: BinarySequence) -> tuple[int, ...]:
    """Autocorrelations of the difference sequence; slot ``k-1`` holds shift k.

    The difference sequence takes consecutive differences with zero
    padding on both ends, so it vanishes except at the sign changes and
    at the two ends; the sums run over pairs of its nonzero terms.
    Independent oracle for the run vector: half of the value at shift k
    equals the reflected run-vector entry at ``k``, and the value equals
    the negated second difference of the plain autocorrelations.
    """
    n = seq.n
    a = (0,) + seq.elems + (0,)  # a[i] = element i, with a_0 = a_{n+1} = 0
    support = [(i, a[i] - a[i - 1]) for i in range(1, n + 2) if a[i] != a[i - 1]]
    out = [0] * (n + 1)
    for p, (i, di) in enumerate(support):
        for j, dj in support[p + 1 :]:
            out[j - i] += di * dj
    return tuple(out[1:n])


def delta_autocorrelation(seq: BinarySequence, k: int) -> int:
    """Entry ``k`` of :func:`delta_autocorrelations`, 1 <= k <= n-1."""
    n = seq.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    return delta_autocorrelations(seq)[k - 1]


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
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")
    m = (n + 1) // 2
    even_lag = _sign_pow(m + 1)
    first_r = -m if m % 2 else 1 - m
    last_tilde = m if m % 2 else 1 - m
    c = tuple(0 if k % 2 else even_lag for k in range(1, n))
    r = tuple(first_r if k == 1 else _sign_pow(k + m + 1) for k in range(1, n))
    r_tilde = tuple(
        _sign_pow(k) if k <= n - 2 else last_tilde for k in range(1, n)
    )
    return BarkerPredictions(n=n, c=c, r=r, r_tilde=r_tilde)


# ---------------------------------------------------------------------------
# Balanced-encoding evaluators.  Each takes the shared state of one
# encoding and an iterable of parameter values -- k for L2-L5, mu for L6,
# the single value None for the parameterless ones -- tests the lemma's
# hypotheses and then its conclusion at each value in turn, and returns
# (number of values whose hypotheses held, [(value, witness), ...] for the
# values whose conclusion failed, in iteration order).  The parameterised
# ones read per-instance state inside the loop: the rank table, the sign
# tables and the run vector.  check_lemma, check_p_odd and the sweep
# harness all reach them through _BALANCED_CHECKS.
# ---------------------------------------------------------------------------


class _Instance:
    """One encoding with the state its verifiers share, each part built
    once: the run structure and balancedness, which nearly every
    verifier reads, up front; the run vector, the rank table and the
    balanced profile on first read, kept in plain attributes."""

    def __init__(self, rle: RunLengthEncoding):
        self.rle = rle
        self.rs = run_structure(rle)
        self.balanced = is_balanced(self.rs)
        self._rv = self._rank = self._profile = None

    @property
    def rv(self) -> RunVector:
        if self._rv is None:
            self._rv = run_vector_of(self.rs)
        return self._rv

    @property
    def rank(self) -> tuple[int, ...]:
        if self._rank is None:
            self._rank = self._build_rank()
        return self._rank

    @property
    def profile(self) -> BalancedProfile:
        if self._profile is None:
            self._profile = self._build_profile()
        return self._profile

    def _build_rank(self) -> tuple[int, ...]:
        """Slot k holds :func:`~runvec.seqcore.boundary_rank_interval` of
        k, the mu with ``s_{mu-1} < k <= s_mu``, for ``1 <= k <= n``; one
        pass over the boundaries instead of a bisection per k."""
        table = [0]
        before = 0
        for mu, boundary in enumerate(self.rs.s, start=1):
            table += [mu] * (boundary - before)
            before = boundary
        return tuple(table)

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
    balanced = inst.balanced
    r_tilde = inst.rv.r_tilde
    if balanced == all(v & 1 for v in r_tilde):
        return 1, []
    bad = next((k for k, v in enumerate(r_tilde, start=1) if not v & 1), None)
    return 1, [(None, {"balanced": balanced, "first_even_entry_k": bad})]


def _eval_l2(inst: _Instance, ks):
    if not inst.balanced:
        return 0, []
    rs, rank = inst.rs, inst.rank
    s_set, f_s, f_t = rs.s_set, rs.f_s, rs.f_t
    met, failed = 0, []
    for k in ks:
        if k in s_set:
            continue
        met += 1
        mu = rank[k]
        ft = f_t.get(k, 0)
        f = f_s.get(k, 0) + ft
        want = -_sign_pow(k + mu)
        if not f == ft == want:
            failed.append((k, {"k": k, "mu": mu, "f": f, "f_t": ft, "expected": want}))
    return met, failed


def _eval_l3(inst: _Instance, ks):
    if not inst.balanced:
        return 0, []
    rs = inst.rs
    s_set, t_set, f_s, f_t = rs.s_set, rs.t_set, rs.f_s, rs.f_t
    met, failed = 0, []
    for k in ks:
        if not (k in s_set and k & 1):
            continue
        met += 1
        f_at = f_s.get(k, 0) + f_t.get(k, 0)
        if k > 1:
            f_before = f_s.get(k - 1, 0) + f_t.get(k - 1, 0)
            if f_before != -f_at:
                failed.append((k, {"k": k, "part": "before", "f": f_at, "f_before": f_before}))
                continue
        if (k + 1) in t_set:
            f_after = f_s.get(k + 1, 0) + f_t.get(k + 1, 0)
            if f_after != f_at:
                failed.append((k, {"k": k, "part": "after", "f": f_at, "f_after": f_after}))
    return met, failed


def _eval_l4(inst: _Instance, ks):
    if not inst.balanced:
        return 0, []
    rs, rank, r_tilde = inst.rs, inst.rank, inst.rv.r_tilde
    s_set, f_s, f_t = rs.s_set, rs.f_s, rs.f_t
    met, failed = 0, []
    for k in ks:
        met += 1
        mu = rank[k]
        # r~_k = f(k) + 2*u_k, read off the run vector the instance already holds
        u = (r_tilde[k - 1] - f_s.get(k, 0) - f_t.get(k, 0)) // 2
        parity_match = (u - mu) % 2 == 0
        doubled = k % 2 == 0 and (k // 2) in s_set
        if parity_match != doubled:
            failed.append((k, {"k": k, "mu": mu, "u": u, "doubled_boundary": doubled}))
    return met, failed


def _eval_l5(inst: _Instance, ks):
    if not inst.balanced:
        return 0, []
    s_set, r_tilde = inst.rs.s_set, inst.rv.r_tilde
    met, failed = 0, []
    for k in ks:
        if k not in s_set:
            continue
        met += 1
        doubled = k % 2 == 0 and (k // 2) in s_set
        r_tilde_k = r_tilde[k - 1]
        if doubled != (r_tilde_k % 4 == 1):
            failed.append((k, {"k": k, "r_tilde_k": r_tilde_k, "doubled_boundary": doubled}))
    return met, failed


def _eval_l6(inst: _Instance, mus):
    if not inst.balanced:
        return 0, []
    runs, s = inst.rle.runs, inst.rs.s
    gamma = len(runs)
    # mu meets the hypotheses when mu < gamma and the mu - 1 runs before it
    # are all >= 2, that is, when mu - 1 <= short, the count of leading
    # runs >= 2
    short = next((j for j, run in enumerate(runs) if run < 2), gamma)
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


def _l7_hypotheses(inst: _Instance):
    """Profile of an instance meeting the pair-bound hypotheses, else None."""
    rle, rs = inst.rle, inst.rs
    if not inst.balanced or rle.runs[0] < 3:
        return None
    profile = inst.profile
    if profile.p % 2 == 0 or profile.s_nu_plus_1 % 2 == 0:
        return None
    if profile.alpha == 1 and (profile.s_nu_plus_1 + 1) not in rs.t_set:
        return None
    if profile.k0 >= rs.n:
        return None  # the pair bound asserts nothing at or beyond n
    return profile


def _eval_l7(inst: _Instance, _):
    profile = _l7_hypotheses(inst)
    if profile is None:
        return 0, []
    k0 = profile.k0
    pair = inst.rv.tilde(k0) + inst.rv.tilde(k0 - 1)
    if abs(pair) >= 2:
        return 1, []
    return 1, [(None, {"k0": k0, "pair_sum": pair})]


def _eval_l7n(inst: _Instance, _):
    profile = _l7_hypotheses(inst)
    if profile is None:
        return 0, []
    k0 = profile.k0
    if abs(inst.rv.tilde(k0) + inst.rv.tilde(k0 - 1)) < 2:
        return 0, []
    n = inst.rs.n
    c = aperiodic_autocorrelations(decode_rle(inst.rle))
    window = [j for j in (n - k0 - 1, n - k0, n - k0 + 1, n - k0 + 2) if 0 <= j <= n]
    if any(abs(c[j]) >= 3 for j in window):
        return 1, []
    return 1, [(None, {"k0": k0, "window": window, "values": [c[j] for j in window]})]


def _eval_p_odd(inst: _Instance, _):
    rle = inst.rle
    n = rle.n
    if not (n % 2 == 1 and rle.runs[0] > 1 and is_barker(decode_rle(rle))):
        return 0, []
    if n <= 3:
        return 1, []
    profile = inst.profile
    if profile.p % 2 == 0:
        return 1, [(None, {"part": "i", "p": profile.p})]
    if n > 5:
        if profile.s_nu_plus_1 % 2 == 0:
            return 1, [(None, {"part": "ii", "s_nu_plus_1": profile.s_nu_plus_1})]
        if profile.alpha == 1 and (profile.s_nu_plus_1 + 1) not in inst.rs.t_set:
            return 1, [(None, {"part": "iii", "s_nu_plus_1": profile.s_nu_plus_1})]
        bound = profile.k0 + 1
        if n > bound:
            return 1, [(None, {"part": "iv", "n": n, "bound": bound})]
    return 1, []


#: Balanced-encoding target -> (evaluator, parameter name or None).
_BALANCED_CHECKS = {
    "L1": (_eval_l1, None),
    "L2": (_eval_l2, "k"),
    "L3": (_eval_l3, "k"),
    "L4": (_eval_l4, "k"),
    "L5": (_eval_l5, "k"),
    "L6": (_eval_l6, "mu"),
    "L7": (_eval_l7, None),
    "L7n": (_eval_l7n, None),
    "p-odd": (_eval_p_odd, None),
}


def _domain(name: str | None, rs) -> range | tuple[None]:
    """Every in-range value of a parameter: k in 1..n-1, mu in 1..gamma."""
    if name is None:
        return (None,)
    return range(1, rs.n) if name == "k" else range(1, rs.gamma + 1)


def _verdict(lemma_id: str, rle: RunLengthEncoding, outcome) -> Verdict:
    """The verdict of an evaluator run on a single parameter value."""
    met, failed = outcome
    if not met:
        return Verdict(lemma_id, rle.to_text(), False, None)
    if not failed:
        return Verdict(lemma_id, rle.to_text(), True, True)
    return Verdict(lemma_id, rle.to_text(), True, False, failed[0][1])


def check_lemma(
    lemma_id: str,
    rle: RunLengthEncoding,
    k: int | None = None,
    mu: int | None = None,
) -> Verdict:
    """Evaluate one lemma verifier on one encoding.

    ``k`` is required for L2-L5 and must lie in [1, n-1]; ``mu`` is
    required for L6 and must lie in [1, gamma].  Parameters outside
    those ranges raise ValueError; in-range parameters that merely
    violate a lemma's hypotheses yield ``hypotheses_met=False``.
    """
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma_id {lemma_id!r}; expected one of {LEMMA_IDS}")
    evaluate, name = _BALANCED_CHECKS[lemma_id]
    inst = _Instance(rle)
    domain = _domain(name, inst.rs)
    if name is not None:
        param = k if name == "k" else mu
        if param is None:
            raise ValueError(f"{lemma_id} requires parameter {name}")
        if not 1 <= param <= len(domain):
            raise ValueError(f"parameter out of range: {name} must be in [1, {len(domain)}]")
        domain = (param,)
    return _verdict(lemma_id, rle, evaluate(inst, domain))


def check_p_odd(rle: RunLengthEncoding) -> Verdict:
    """Verify the four structural facts about odd-length Barker encodings
    whose first run exceeds 1; each part applies only above its length
    threshold (parts ii-iv need n > 5, part i needs n > 3)."""
    return _verdict("p_odd", rle, _eval_p_odd(_Instance(rle), (None,)))


@lru_cache(maxsize=None)
def balanced_run_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """All balanced run tuples summing to odd ``n``, sorted.

    Enumerates the ``2**m`` skew-symmetric sequences as masks (m free
    elements from the centre rightwards), reads the run lengths off
    each, and deduplicates: the two sign choices of a sequence share one
    run tuple, so exactly ``2**(m-1)`` tuples remain.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")
    if n > BALANCED_ENUM_LIMIT:
        raise ValueError(f"balanced enumeration limited to n <= {BALANCED_ENUM_LIMIT}")
    m = (n + 1) // 2
    flip_odd = int("10" * m, 2) & ((1 << m) - 1)
    seen = set()
    for bits in range(1 << m):
        # bit j of ``bits`` is element m+j; element m-j mirrors it, negated
        # for odd j, and the centre element m is bit m-1 of the mask
        right = int(format(bits, f"0{m}b")[::-1], 2)
        seen.add(packed_runs(((bits ^ flip_odd) << (m - 1)) | right, n))
    if len(seen) != 1 << (m - 1):
        raise RuntimeError(f"balanced enumeration produced {len(seen)} tuples for n={n}")
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# Sweep harness.
# ---------------------------------------------------------------------------


def _sweep_sequences(n: int, targets: tuple[str, ...]) -> list[SweepRecord]:
    """The sequence targets at length n over every mask; each evaluated
    mask's C, run structure and run vector are built once for all of them.

    One mask is evaluated per orbit of negation and reversal: the
    '+'-first mask x with x <= its '+'-first partner, the reversal of x
    or its complement.  The verdict, and every witness field but the
    instance, stand for each member of the orbit (see the module
    docstring), so a failing orbit adds one witness per member and the
    witnesses are listed by ascending mask.
    """
    theorem1, delta, skew = (t in targets for t in SEQUENCE_TARGETS)
    failures = {target: [] for target in targets}
    full = (1 << n) - 1
    half = 1 << (n - 1)
    for x in range(half):
        y = int(format(x, f"0{n}b")[::-1], 2)
        if x > (y if y < half else y ^ full):
            continue
        orbit = {x, x ^ full, y, y ^ full}
        rs = run_structure(packed_rle(x, n))
        if theorem1 or delta:
            c = (n, *packed_autocorrelations(x, n), 0)
            r = run_vector_of(rs).r
            from_c = tuple([2 * at - before - after for before, at, after in zip(c, c[1:], c[2:])])
            from_r = tuple([2 * rk for rk in r])
        if theorem1 and from_c != from_r:
            residual = _second_difference_residual(c, r)
            k, value = next((k, v) for k, v in enumerate(residual, start=1) if v)
            failures["theorem1"] += [(m, {"k": k, "residual": value}) for m in orbit]
        if delta:
            # the oracle is a literal computation on the elements themselves
            deltas = delta_autocorrelations(unpack(x, n))
            if deltas != from_c or deltas != from_r:
                i = next(i for i, d in enumerate(deltas) if d != from_c[i] or d != from_r[i])
                witness = {"k": i + 1, "delta": deltas[i], "r_k": r[i]}
                failures["delta"] += [(m, witness) for m in orbit]
        if skew:
            skew_symmetric = packed_skew_symmetric(x, n)
            balanced = is_balanced(rs)
            if skew_symmetric != balanced:
                witness = {"skew_symmetric": skew_symmetric, "balanced": balanced}
                failures["prop-skew"] += [(m, witness) for m in orbit]
    population = 1 << n
    records = []
    for target, found in failures.items():
        found.sort(key=lambda entry: entry[0])
        witnesses = tuple(
            [{"instance": unpack(m, n).to_text(), **w} for m, w in found[:_MAX_WITNESSES]]
        )
        records.append(SweepRecord(target, n, population, population, len(found), witnesses))
    return records


def _sweep_balanced(n: int, targets: tuple[str, ...]) -> list[SweepRecord]:
    """The balanced-encoding targets at odd length n over every balanced
    run tuple; each tuple's state is built once for all of them."""
    checks = [(target, *_BALANCED_CHECKS[target]) for target in targets]
    met = dict.fromkeys(targets, 0)
    failures = {target: [] for target in targets}
    population = balanced_run_tuples(n)
    for runs in population:
        inst = _Instance(RunLengthEncoding(1, runs))
        for target, evaluate, name in checks:
            met_count, failed = evaluate(inst, _domain(name, inst.rs))
            met[target] += met_count
            for param, witness in failed:
                entry = {"instance": inst.rle.to_text()}
                if param is not None:
                    entry["param"] = param
                entry.update(witness)
                failures[target].append(entry)
    return [
        SweepRecord(
            target, n, len(population), met[target], len(found), tuple(found[:_MAX_WITNESSES])
        )
        for target, found in failures.items()
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
    this returns or raises.  A child's exception is raised here, and a
    child that ended without a result raises RuntimeError.  The package
    starts no threads, which a fork would not carry into the child (Python
    3.12 and later warn when a process with threads forks).
    """
    # imported here: only a sweep that forks needs it
    import pickle

    pids, pipes = [], []
    try:
        for share in shares[1:]:
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

    Unknown targets raise ValueError.  A target whose configured limit
    is below ``n_max`` is clamped and the report is flagged incomplete.
    The record list is sorted by (target, n) and does not depend on the
    worker count.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    wanted = list(targets)
    for target in wanted:
        if target not in SWEEP_TARGETS:
            raise ValueError(
                f"unknown sweep target {target!r}; expected one of {SWEEP_TARGETS}"
            )
    ordered = tuple(t for t in SWEEP_TARGETS if t in wanted)
    by_length = {}
    complete = True
    for target in ordered:
        top = min(n_max, SWEEP_LIMITS[target])
        if top < n_max:
            complete = False
        sweep_length = _sweep_sequences if target in SEQUENCE_TARGETS else _sweep_balanced
        step = 1 if target in ("theorem1", "delta") else 2
        for n in range(1, top + 1, step):
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
    return SweepReport(n_max, ordered, tuple(records), complete)
