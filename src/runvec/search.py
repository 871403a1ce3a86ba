"""Pruned exhaustive enumeration and classification of odd-length Barker sequences.

One depth-first search serves both modes.  Step i places the pair
(a_i, a_{n+1-i}), from the ends inwards, with a_1 = +1.  In full mode
both elements of a pair are free.  In skew mode the right element is
the skew mirror a_{n+1-i} = (-1)^(m-i) a_i, m = (n+1)/2, so only
skew-symmetric sequences are visited; for odd lengths that loses
nothing, because every odd-length Barker sequence is skew-symmetric.
A placed set that is symmetric about the centre cancels the products
of every odd shift in pairs, so skew mode tests even shifts only.

Step i fixes products at two shift ranges only: k <= i-1, where the
new a_i and a_{n+1-i} meet the placed a_{i-k} and a_{n+1-i+k}, and
n+1-2i <= k <= n-i, where they meet a_{i+k} and a_{n+1-i-k}.  The
per-step tables are built over those shifts alone, in descending order,
and in skew mode over the even ones alone.

The bound: per shift k the search keeps the partial sum of the fixed
products and the count of products still unfixed.  The final C_k must
land in [lo_k, hi_k]: magnitude at most the threshold, parity of n - k.
For odd n at threshold 1 an even k is exact: C_{n-k} is even, hence 0,
so C_k = P_k = n (mod 4), +1 when n = 1 (mod 4) and -1 otherwise (the
congruence step of Turyn & Storer, Proc. AMS 12, 1961).  Each unfixed
product moves the sum by exactly 1, so partial - unfixed > hi_k or
partial + unfixed < lo_k kills the whole subtree; it never cuts a
sequence that passes.  Outside-in placement makes the top shifts exact
first -- after j pairs, C_{n-1}, ..., C_{n-j} are final -- so the bound
bites near the root.

The search emits packed masks (see :mod:`runvec.seqcore`), closes them
under negation by XOR and sorts them as integers; pruning is never
trusted for correctness: every mask is re-verified from scratch before
it is unpacked.  The search runs in the calling process.

The unpruned reference filter runs the packed autocorrelation kernel of
:mod:`runvec.seqcore` over every mask of a length; it exists so the
pruned search can be checked against it exhaustively.
"""

from __future__ import annotations

from .lemmalab import balanced_profile
from .seqcore import (
    BinarySequence,
    Record,
    RunLengthEncoding,
    _int_in,
    pack,
    packed_autocorrelations,
    packed_canonical,
    packed_runs,
    unpack,
)

#: Longest length searched in either mode, checked by :func:`enumerate_barker`
#: and :func:`find_barker_sequences`: at n = 45 the search takes about 2 ms in
#: full mode and 1.1 ms in skew mode (2-core VM, Python 3.11.7).
SEARCH_LIMIT = 45

#: Longest length searched at a threshold above 1, where n - 1 admits all 2**n
#: sequences: threshold 17 at n = 18 returns 262 144 in 3.1 s and peaks at
#: 88 MB resident (2-core VM, Python 3.11.7).
LOOSE_THRESHOLD_LIMIT = 18

#: Longest length :func:`brute_force_barker` filters: 2**20 masks in about
#: 2.1 s (2-core VM, Python 3.11.7).
BRUTE_FORCE_LIMIT = 20


def _refuse_past(limit: int, n: int, what: str) -> None:
    """``ValueError`` in the one wording of the search's caps when n > limit."""
    if n > limit:
        raise ValueError(f"{what} limited to n <= {limit}, requested {n}")


class SearchSpec(Record):
    """An inclusive odd-length range plus search mode.

    Lengths are odd in both modes (even-length search is out of scope);
    even bounds are rounded inward.  ``normalize``, exactly a bool,
    collapses the result to one representative per negation/reversal
    orbit.
    """

    __slots__ = ("n_min", "n_max", "mode", "normalize")

    def __init__(self, n_min: int, n_max: int, mode: str = "full", normalize: bool = False):
        _int_in("n_min", n_min)
        _int_in("n_max", n_max)
        if n_min < 1 or n_max < n_min:
            raise ValueError(f"bad length range [{n_min}, {n_max}]")
        if mode not in ("full", "skew"):
            raise ValueError(f"mode must be 'full' or 'skew', got {mode!r}")
        if type(normalize) is not bool:
            raise ValueError(f"normalize must be a bool, got {normalize!r}")
        self._assign(n_min, n_max, mode, normalize)

    def lengths(self) -> range:
        start = self.n_min if self.n_min % 2 == 1 else self.n_min + 1
        return range(start, self.n_max + 1, 2)


class ClassificationReport(Record):
    """Per-length Barker counts plus the normalized encodings and the
    structural facts checked on each (lengths above 5 only)."""

    __slots__ = ("n_max", "counts", "normalized_rles", "checks", "notes")

    def __init__(self, n_max: int, counts: dict, normalized_rles: dict, checks: tuple,
                 notes: tuple):
        self._assign(n_max, counts, normalized_rles, checks, notes)

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "counts": {str(n): self.counts[n] for n in sorted(self.counts)},
            "normalized_rles": {
                str(n): [rle.to_text() for rle in self.normalized_rles[n]]
                for n in sorted(self.normalized_rles)
            },
            "checks": list(self.checks),
            "notes": list(self.notes),
        }


def _step_tables(n, threshold, skew):
    """The per-step tables of :func:`_dfs`, one per placed pair, outside in.

    Step ``left`` (with ``right = n + 1 - left``) holds the pair's sign
    choices with their mask bits, and one check per shift k that gains a
    product, k <= left - 1 or right - left <= k <= n - left (module
    docstring).  A check holds k, the bounds the partial sum must meet
    given the products still unfixed, and the four partner slots; checks
    run in descending k, and skew mode builds even shifts only.
    """
    m = (n + 1) // 2
    # [lo[k], hi[k]]: the admissible final C_k (module docstring)
    hi = [threshold if (threshold + n - k) % 2 == 0 else threshold - 1 for k in range(n)]
    lo = [-h for h in hi]
    if n % 2 and threshold == 1:
        for k in range(2, n, 2):
            lo[k] = hi[k] = 1 if n % 4 == 1 else -1
    unfixed = [n - k for k in range(n)]
    # a skew-symmetric placement cancels every odd-shift product against
    # its mirror, so those sums stay 0 and skew mode skips them
    stride = 2 if skew else 1
    steps = []
    for left in range(1, m + 1):
        right = n + 1 - left
        gap = right - left
        top = n - left
        low = min(left, gap) - 1
        # the products each shift gains: the new left element times the
        # placed a[l1], a[l2], the new right one times a[r1], a[r2];
        # slot 0 holds 0 and stands for "no product"
        checks = []
        for span in (
            range(top - top % stride, max(gap, 1) - 1, -stride),
            range(low - low % stride, 0, -stride),
        ):
            for k in span:
                l1 = left - k if k < left else 0
                l2 = left + k if k >= gap else 0
                r1 = right + k if gap and k < left else 0
                r2 = right - k if gap and k > gap else 0
                unfixed[k] -= (l1 > 0) + (l2 > 0) + (r1 > 0) + (r2 > 0)
                checks.append((k, lo[k] - unfixed[k], hi[k] + unfixed[k], l1, l2, r1, r2))
        signs = (1,) if left == 1 else (1, -1)
        if left == right:
            pairs = [(x, x) for x in signs]
        elif skew:
            mirror = -1 if (m - left) % 2 else 1
            pairs = [(x, mirror * x) for x in signs]
        else:
            pairs = [(x, y) for x in signs for y in (1, -1)]
        # the mask bits of the pair: a_i is bit n-i, set where it is -1
        pairs = [(x, y, (x < 0) << (n - left) | (y < 0) << (n - right)) for x, y in pairs]
        steps.append((left, right, pairs, checks))
    return steps


def _dfs(n, threshold, skew):
    """Outside-in search for sequences with all off-peak sums within threshold.

    Step i places the pair (a_i, a_{n+1-i}); a_1 = +1, and in skew mode
    a_{n+1-i} is the skew mirror of a_i.  Each step checks only the
    shifts that gain a product, k <= i - 1 and n + 1 - 2i <= k <= n - i,
    and in skew mode only the even ones (:func:`_step_tables`).  Returns
    the packed masks of the hits, each with its top bit clear, and the
    surviving nodes per step: entry j counts the placements of j pairs
    that pass every check, so entry 0 is 1 (the empty placement) and
    entry m the number of hits.

    The recursive ``place`` refers to itself through its closure; that
    reference is dropped when the search ends, so the step tables are
    freed on return instead of left as cyclic garbage for the collector.
    """
    steps = _step_tables(n, threshold, skew)
    m = len(steps)
    a = [0] * (n + 1)
    out = []
    survivors = [0] * (m + 1)

    def place(step, cum, mask):
        survivors[step] += 1
        if step == m:
            out.append(mask)
            return
        left, right, pairs, checks = steps[step]
        for x, y, bits in pairs:
            a[left] = x
            a[right] = y
            c = cum[:]
            for k, lower, upper, l1, l2, r1, r2 in checks:
                p = c[k] + x * (a[l1] + a[l2]) + y * (a[r1] + a[r2])
                if p > upper or p < lower:
                    break
                c[k] = p
            else:
                place(step + 1, c, mask | bits)

    try:
        place(0, [0] * n, 0)
    finally:
        del place
    return out, survivors


def find_barker_sequences(n: int, mode: str = "full", threshold: int = 1) -> list[BinarySequence]:
    """Pruned search at one length, lexicographic with '+' before '-',
    on masks that are re-verified on the packed kernel before unpacking.

    The full-mode engine accepts any n >= 1 (the unpruned-filter
    soundness check runs it on even lengths too); skew mode requires
    odd n.  The odd-lengths-only policy of the range search lives in
    :func:`enumerate_barker`.  ``threshold`` bounds every off-peak
    ``|C_k|`` and must be an int >= 0.  Refused before any search: n above
    :data:`SEARCH_LIMIT`, and n above :data:`LOOSE_THRESHOLD_LIMIT` at a
    threshold above 1.
    """
    _int_in("n", n, 1)
    _int_in("threshold", threshold, 0)
    if mode not in ("full", "skew"):
        raise ValueError(f"mode must be 'full' or 'skew', got {mode!r}")
    if mode == "skew" and n % 2 == 0:
        raise ValueError("skew mode requires odd n")
    _refuse_past(SEARCH_LIMIT, n, f"{mode}-mode search")
    if threshold > 1:
        _refuse_past(LOOSE_THRESHOLD_LIMIT, n, f"search at threshold {threshold}")
    raw, _ = _dfs(n, threshold, mode == "skew")
    full = (1 << n) - 1
    closed = sorted(raw + [x ^ full for x in raw])
    for x in closed:
        if not all(-threshold <= c <= threshold for c in packed_autocorrelations(x, n)):
            raise RuntimeError(f"pruned search emitted a bad candidate: {unpack(x, n)}")
    return [unpack(x, n) for x in closed]


def enumerate_barker(spec: SearchSpec) -> list[BinarySequence]:
    """All Barker sequences of odd length within the range, ordered by
    length and then lexicographically with '+' before '-' (skew mode is
    complete here: see the module docstring)."""
    _refuse_past(SEARCH_LIMIT, spec.n_max, f"{spec.mode}-mode search")
    out = []
    for n in spec.lengths():
        out.extend(find_barker_sequences(n, spec.mode))
    if spec.normalize:
        out = canonical_representatives(out)
    return out


def canonical_representatives(seqs) -> list[BinarySequence]:
    reps = {(s.n, packed_canonical(pack(s), s.n)) for s in seqs}
    return [unpack(x, n) for n, x in sorted(reps)]


def brute_force_barker(n: int) -> list[BinarySequence]:
    """Unpruned filter over all 2**n sequences, word-parallel.

    Each mask goes through the packed kernel, one XOR, one mask and one
    popcount per shift, stopping at the first shift whose sum exceeds 1
    in magnitude.  Reference oracle for prune soundness; n above
    :data:`BRUTE_FORCE_LIMIT` is refused.
    """
    _refuse_past(BRUTE_FORCE_LIMIT, _int_in("n", n, 1), "unpruned filter")
    return [
        unpack(x, n)
        for x in range(1 << n)
        if all(-1 <= c <= 1 for c in packed_autocorrelations(x, n))
    ]


def classify_odd_barker(n_max: int) -> ClassificationReport:
    """Search every odd length up to ``n_max`` in skew mode, through
    :func:`enumerate_barker`, which refuses a bad range or one past
    :data:`SEARCH_LIMIT`, and classify the hits by their normalized (first
    run > 1, leading '+') encodings: the runs, which negation keeps,
    reversed when the first run is 1.  A length without hits counts 0."""
    spec = SearchSpec(1, n_max, "skew")
    counts = dict.fromkeys(spec.lengths(), 0)
    reps = {}
    for seq in enumerate_barker(spec):
        n = seq.n
        counts[n] += 1
        if n == 1:  # "+" and "-": a length-1 sequence has no off-peak shift
            continue
        runs = packed_runs(pack(seq), n)
        runs = runs[::-1] if runs[0] == 1 else runs
        if runs[0] == 1:
            raise RuntimeError(f"sequence has unit runs at both ends: {seq}")
        reps.setdefault(n, set()).add(runs)
    normalized = {
        n: tuple(RunLengthEncoding(1, runs) for runs in sorted(found))
        for n, found in reps.items()
    }
    notes = ("n=1 excluded from the classification: its encoding has first run 1",)
    checks = []
    for n in sorted(normalized):
        for rle in normalized[n]:
            if rle.n <= 5:
                continue
            profile = balanced_profile(rle)
            runs = rle.runs
            structure_ok = (runs[0] == runs[1] == 3 and runs[2] == 1) or (
                runs[0] in (3, 5) and runs[1] == 2
            )
            bound = profile.k0 + 1
            checks.append(
                {
                    "n": rle.n,
                    "rle": rle.to_text(),
                    "structure_ok": structure_ok,
                    "length_bound": bound,
                    "length_bound_ok": rle.n <= bound,
                }
            )
    return ClassificationReport(n_max, counts, normalized, tuple(checks), notes)


def counts_csv(report: ClassificationReport) -> str:
    """Per-length counts as CSV text."""
    lines = ["n,barker_count"]
    for n in sorted(report.counts):
        lines.append(f"{n},{report.counts[n]}")
    return "\n".join(lines) + "\n"
