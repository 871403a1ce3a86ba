"""Pruned exhaustive enumeration of Barker sequences and balanced encodings.

Two search modes share one bounding rule.  Full mode extends prefixes
left to right; skew mode grows a window outward from the centre element,
mirroring each placement, so only skew-symmetric sequences are ever
visited (their odd-shift sums vanish identically, halving the work
again).  After placing an element, every shift k with at least one
fixed product is tested: the final sum must land on a value of
magnitude at most the threshold with the parity forced by the sequence
length, and each still-unfixed product moves the sum by exactly 1, so a
partial sum farther from the nearest admissible value than the number
of unfixed products kills the whole subtree.

Both modes fix the first free element to +1 and close the result set
under negation at the end; mirrors and pruning are never trusted for
correctness -- every emitted sequence is re-verified from scratch.

The unpruned reference filter runs the packed autocorrelation kernel of
:mod:`runvec.seqcore` over every mask of a length; it exists so the
pruned searches can be checked against it exhaustively.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

from .lemmalab import balanced_profile, balanced_run_tuples
from .seqcore import (
    BinarySequence,
    RunLengthEncoding,
    encode_rle,
    is_balanced,
    pack,
    packed_autocorrelations,
    run_structure,
    unpack,
)

FULL_SEARCH_LIMIT = 25
SKEW_SEARCH_LIMIT = 45

_PARTITION_DEPTH = 3  # prefix depth split across workers


@dataclass(frozen=True)
class SearchSpec:
    """An inclusive odd-length range plus search mode.

    Lengths are odd in both modes (even-length search is out of scope);
    even bounds are rounded inward.  ``normalize`` collapses the result
    to one representative per negation/reversal orbit.  The prune
    threshold stays at 1 for Barker search.
    """

    n_min: int
    n_max: int
    mode: str = "full"
    normalize: bool = False
    prune_threshold: int = 1

    def __post_init__(self) -> None:
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError(f"bad length range [{self.n_min}, {self.n_max}]")
        if self.mode not in ("full", "skew"):
            raise ValueError(f"mode must be 'full' or 'skew', got {self.mode!r}")
        if self.prune_threshold < 0:
            raise ValueError("prune_threshold must be >= 0")

    def lengths(self) -> range:
        start = self.n_min if self.n_min % 2 == 1 else self.n_min + 1
        return range(start, self.n_max + 1, 2)


@dataclass(frozen=True)
class ClassificationReport:
    """Per-length Barker counts plus the normalized encodings and the
    structural facts checked on each (lengths above 5 only)."""

    n_max: int
    counts: dict
    normalized_rles: dict
    checks: tuple
    notes: tuple

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


def _lex_key(elems):
    return tuple(0 if x == 1 else 1 for x in elems)


def _full_dfs(n, threshold, forced):
    """Prefix search for sequences with all off-peak sums within threshold.

    ``forced`` pins the leading elements (replayed through the same
    pruning as free choices).  Returns raw element tuples.
    """
    # slack[k]: largest admissible |C_k| of the parity forced on shift k
    slack = [0] * (n + 1)
    for k in range(1, n):
        slack[k] = threshold if (threshold + n - k) % 2 == 0 else threshold - 1
    a = [0] * (n + 1)
    cum = [0] * (n + 1)
    out = []
    nf = len(forced)

    def extend(length):
        if length == n:
            out.append(tuple(a[1:]))
            return
        unfixed = n - length - 1
        for val in (forced[length],) if length < nf else (1, -1):
            a[length + 1] = val
            alive = True
            k = 0
            for i in range(length, 0, -1):
                k += 1
                p = cum[k] + a[i] * val
                cum[k] = p
                if p > unfixed + slack[k] or -p > unfixed + slack[k]:
                    alive = False
                    break
            if alive:
                extend(length + 1)
            kk = 0
            for i in range(length, length - k, -1):
                kk += 1
                cum[kk] -= a[i] * val

    extend(0)
    return out


def _skew_dfs(n, threshold, forced):
    """Centre-out search over skew-symmetric sequences of odd length.

    Free slot j carries the element at centre+j; the mirror element is
    forced.  Each window is itself skew-symmetric, so odd-shift partial
    sums are identically zero and only even shifts are tracked.
    """
    m = (n + 1) // 2
    # even shift k has n - k odd, so admissible values are odd
    slack = threshold if threshold % 2 == 1 else threshold - 1
    if slack < 0:
        return []
    a = [0] * (n + 2)
    cum = [0] * (n + 1)
    out = []
    nf = len(forced)

    def extend(j):
        if j == m:
            out.append(tuple(a[1 : n + 1]))
            return
        hi = m + j
        lo = m - j
        for val in (forced[j],) if j < nf else (1, -1):
            a[hi] = val
            a[lo] = val if j % 2 == 0 else -val
            unfixed = n - 2 * j - 1
            alive = True
            last = 0
            for k in range(2, 2 * j + 1, 2):
                d = a[lo] * a[lo + k] + a[hi - k] * a[hi] if k < 2 * j else a[lo] * a[hi]
                p = cum[k] + d
                cum[k] = p
                last = k
                if p > unfixed + slack or -p > unfixed + slack:
                    alive = False
                    break
            if alive:
                extend(j + 1)
            for k in range(2, last + 1, 2):
                d = a[lo] * a[lo + k] + a[hi - k] * a[hi] if k < 2 * j else a[lo] * a[hi]
                cum[k] -= d

    extend(0)
    return out


def _search_task(args):
    n, threshold, forced, mode = args
    dfs = _full_dfs if mode == "full" else _skew_dfs
    return dfs(n, threshold, forced)


def _within_threshold(seq, threshold):
    return all(-threshold <= c <= threshold for c in packed_autocorrelations(pack(seq), seq.n))


def find_barker_sequences(
    n: int, mode: str = "full", threshold: int = 1, workers: int = 1
) -> list[BinarySequence]:
    """Pruned search at one length, lexicographic with '+' before '-'.

    The full-mode engine accepts any n >= 1 (the unpruned-filter
    soundness check runs it on even lengths too); skew mode requires
    odd n.  The odd-lengths-only policy of the range search lives in
    :func:`enumerate_barker`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in ("full", "skew"):
        raise ValueError(f"mode must be 'full' or 'skew', got {mode!r}")
    if mode == "skew" and n % 2 == 0:
        raise ValueError("skew mode requires odd n")
    free = n if mode == "full" else (n + 1) // 2
    depth = min(_PARTITION_DEPTH, free - 1)
    if workers <= 1 or depth <= 0:
        raw = _search_task((n, threshold, (1,), mode))
    else:
        tasks = [
            (n, threshold, (1,) + pattern, mode)
            for pattern in product((1, -1), repeat=depth)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = [s for part in pool.map(_search_task, tasks) for s in part]
    closed = raw + [tuple(-x for x in s) for s in raw]
    closed.sort(key=_lex_key)
    seqs = [BinarySequence(t) for t in closed]
    for seq in seqs:
        if not _within_threshold(seq, threshold):
            raise RuntimeError(f"pruned search emitted a bad candidate: {seq}")
    return seqs


def enumerate_barker(
    spec: SearchSpec, workers: int = 1, limit: int | None = None
) -> list[BinarySequence]:
    """All Barker sequences of odd length within the range, ordered by
    length and then lexicographically with '+' before '-'.

    Skew mode visits only skew-symmetric sequences, which is complete
    for odd lengths because every odd-length Barker sequence is
    skew-symmetric; each survivor is still verified before emission.
    """
    cap = limit
    if cap is None:
        cap = FULL_SEARCH_LIMIT if spec.mode == "full" else SKEW_SEARCH_LIMIT
    if spec.n_max > cap:
        raise ValueError(
            f"{spec.mode}-mode search limited to n <= {cap}, requested {spec.n_max}"
        )
    out = []
    for n in spec.lengths():
        out.extend(find_barker_sequences(n, spec.mode, spec.prune_threshold, workers))
    if spec.normalize:
        out = canonical_representatives(out)
    return out


def canonical_form(seq: BinarySequence) -> BinarySequence:
    """Least of the four negation/reversal variants ('+' sorts first)."""
    e = seq.elems
    variants = [e, e[::-1], tuple(-x for x in e), tuple(-x for x in e[::-1])]
    return BinarySequence(min(variants, key=_lex_key))


def canonical_representatives(seqs) -> list[BinarySequence]:
    reps = {(s.n, canonical_form(s).elems) for s in seqs}
    return [BinarySequence(e) for _, e in sorted(reps, key=lambda p: (p[0], _lex_key(p[1])))]


def brute_force_barker(n: int) -> list[BinarySequence]:
    """Unpruned filter over all 2**n sequences, word-parallel.

    Each mask goes through the packed kernel, one XOR, one mask and one
    popcount per shift, stopping at the first shift whose sum exceeds 1
    in magnitude.  Reference oracle for prune soundness.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        unpack(x, n)
        for x in range(1 << n)
        if all(-1 <= c <= 1 for c in packed_autocorrelations(x, n))
    ]


def enumerate_balanced_rles(n: int) -> list[RunLengthEncoding]:
    """Every balanced encoding with length-sum ``n`` (odd), start sign '+',
    sorted by run tuple; each one is re-verified before being returned."""
    rles = []
    for runs in balanced_run_tuples(n):
        rle = RunLengthEncoding(1, runs)
        if not is_balanced(run_structure(rle)):
            raise RuntimeError(f"generator produced a non-balanced tuple: {runs}")
        rles.append(rle)
    return rles


def _normalize_leading_run(seq: BinarySequence) -> BinarySequence:
    """Reverse until the first run exceeds 1, then negate to start on '+'.

    Reversal and negation both preserve the Barker property, so the
    normal form represents the same search hit.
    """
    if encode_rle(seq).runs[0] == 1:
        seq = seq.reversed()
    if seq.elems[0] == -1:
        seq = seq.negated()
    if encode_rle(seq).runs[0] == 1:
        raise RuntimeError(f"sequence has unit runs at both ends: {seq}")
    return seq


def classify_odd_barker(n_max: int, workers: int = 1) -> ClassificationReport:
    """Search every odd length up to ``n_max`` in skew mode and classify
    the hits by their normalized (first run > 1, leading '+') encodings."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > SKEW_SEARCH_LIMIT:
        raise ValueError(
            f"classification limited to n <= {SKEW_SEARCH_LIMIT}, requested {n_max}"
        )
    counts = {}
    normalized = {}
    notes = []
    for n in range(1, n_max + 1, 2):
        found = find_barker_sequences(n, "skew", 1, workers)
        counts[n] = len(found)
        if n == 1:
            if found:
                notes.append(
                    "n=1 excluded from the classification: its encoding has first run 1"
                )
            continue
        reps = {encode_rle(_normalize_leading_run(seq)).runs for seq in found}
        if reps:
            normalized[n] = tuple(RunLengthEncoding(1, runs) for runs in sorted(reps))
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
            bound = profile.p + profile.s_nu_plus_1 + profile.alpha + 1
            checks.append(
                {
                    "n": rle.n,
                    "rle": rle.to_text(),
                    "structure_ok": structure_ok,
                    "length_bound": bound,
                    "length_bound_ok": rle.n <= bound,
                }
            )
    return ClassificationReport(n_max, counts, normalized, tuple(checks), tuple(notes))


def counts_csv(report: ClassificationReport) -> str:
    """Per-length counts as CSV text."""
    lines = ["n,barker_count"]
    for n in sorted(report.counts):
        lines.append(f"{n},{report.counts[n]}")
    return "\n".join(lines) + "\n"
