"""Naive reference implementations used to derive expected test values.

Everything here recomputes from first principles on plain tuples and
deliberately avoids the library's own code paths, so a test asserting
``library == frozen_constant == oracle`` really has two independent
routes to the same number.
"""

from itertools import groupby, product


def all_sign_tuples(n):
    """All 2**n tuples over {+1, -1}, plus-first lexicographic order."""
    return [t for t in product((1, -1), repeat=n)]


def brute_aperiodic(elems):
    """Shifted inner products by direct double summation; last slot 0."""
    n = len(elems)
    out = [sum(elems[i] * elems[i + k] for i in range(n - k)) for k in range(n)]
    return tuple(out) + (0,)


def brute_periodic(elems):
    """Cyclic shifted inner products by direct summation."""
    n = len(elems)
    return tuple(
        sum(elems[i] * elems[(i + k) % n] for i in range(n)) for k in range(n)
    )


def brute_runs(elems):
    """Run lengths via groupby."""
    return tuple(len(list(g)) for _, g in groupby(elems))


def brute_is_barker(elems):
    c = brute_aperiodic(elems)
    return all(-1 <= v <= 1 for v in c[1:-1])


def brute_is_skew_symmetric(elems):
    n = len(elems)
    if n % 2 == 0:
        return False
    m = (n + 1) // 2
    return all(
        elems[m - j - 1] == (-1) ** j * elems[m + j - 1] for j in range(1, m)
    )


def brute_delta_autocorrelation(elems, k):
    """Difference-sequence autocorrelation with zero padding, literally."""
    n = len(elems)
    padded = (0,) + tuple(elems) + (0,)
    delta = [padded[i] - padded[i - 1] for i in range(1, n + 2)]
    return sum(delta[i] * delta[i + k] for i in range(n + 1 - k))


def composition(n, mask):
    """The ordered tuple of positive integers summing to n whose parts end
    after element i+1 exactly where bit i of ``mask`` is set."""
    runs = []
    length = 1
    for i in range(n - 1):
        if (mask >> i) & 1:
            runs.append(length)
            length = 1
        else:
            length += 1
    runs.append(length)
    return tuple(runs)


def compositions(n):
    """All ordered tuples of positive integers summing to n (2**(n-1))."""
    return [composition(n, mask) for mask in range(1 << (n - 1))]


def brute_prefix_structure(runs):
    """(s, t, S, T) from a run tuple by literal accumulation."""
    gamma = len(runs)
    s = []
    total = 0
    for r in runs:
        total += r
        s.append(total)
    t = []
    total = 0
    for r in reversed(runs):
        total += r
        t.append(total)
    return tuple(s), tuple(t), set(s[: gamma - 1]), set(t[: gamma - 1])


def brute_is_balanced(runs):
    """Whether the interior boundaries read from both ends partition
    {1, ..., n-1}: literal union and intersection of the two sets."""
    _, _, s_set, t_set = brute_prefix_structure(runs)
    return not (s_set & t_set) and (s_set | t_set) == set(range(1, sum(runs)))


def brute_balanced_tuples(n):
    """Every balanced run tuple summing to n, sorted: a filter over all
    compositions of n."""
    return sorted(runs for runs in compositions(n) if brute_is_balanced(runs))


def brute_signs(runs):
    """(f_s, f_t): dicts mapping the j-th interior forward (reverse)
    boundary to (-1)**j, j = 1..gamma-1."""
    s, t, _, _ = brute_prefix_structure(runs)
    gamma = len(runs)
    return (
        {s[j - 1]: (-1) ** j for j in range(1, gamma)},
        {t[j - 1]: (-1) ** j for j in range(1, gamma)},
    )


def brute_rank(runs, k):
    """The index mu with s_{mu-1} < k <= s_mu (s_0 = 0), by linear scan."""
    s, _, _, _ = brute_prefix_structure(runs)
    return next(mu for mu, boundary in enumerate(s, start=1) if k <= boundary)


def brute_u(runs, k):
    """u_k = sum over j = 1..gamma-1 of (-1)**j * f_t(k - s_j), literally."""
    s, _, _, _ = brute_prefix_structure(runs)
    _, f_t = brute_signs(runs)
    return sum((-1) ** j * f_t.get(k - s[j - 1], 0) for j in range(1, len(runs)))


def brute_run_vector(runs):
    """(r~_1, ..., r~_{n-1}) with r~_k = f_s(k) + f_t(k) + 2*u_k, each term
    read literally off :func:`brute_signs` and :func:`brute_u`."""
    f_s, f_t = brute_signs(runs)
    return tuple(
        f_s.get(k, 0) + f_t.get(k, 0) + 2 * brute_u(runs, k) for k in range(1, sum(runs))
    )
