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


def brute_canonical(elems):
    """The least of the four negation/reversal variants of ``elems``,
    compared as '+'/'-' texts, where '+' sorts before '-'."""
    negated = tuple(-x for x in elems)
    variants = [elems, elems[::-1], negated, negated[::-1]]
    return min(variants, key=lambda v: "".join("+" if x == 1 else "-" for x in v))


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


def _u(s, f_t, k):
    return sum((-1) ** j * f_t.get(k - s[j - 1], 0) for j in range(1, len(s)))


def brute_u(runs, k):
    """u_k = sum over j = 1..gamma-1 of (-1)**j * f_t(k - s_j), literally."""
    s, _, _, _ = brute_prefix_structure(runs)
    _, f_t = brute_signs(runs)
    return _u(s, f_t, k)


def brute_run_vector(runs):
    """(r~_1, ..., r~_{n-1}) with r~_k = f_s(k) + f_t(k) + 2*u_k, each term
    read literally off :func:`brute_signs` and the sum of :func:`brute_u`."""
    s, _, _, _ = brute_prefix_structure(runs)
    f_s, f_t = brute_signs(runs)
    return tuple(f_s.get(k, 0) + f_t.get(k, 0) + 2 * _u(s, f_t, k) for k in range(1, sum(runs)))


def brute_elements(runs):
    """The '+'-first sequence with the run lengths ``runs``: the j-th run,
    j = 1..gamma, repeats (-1)**(j-1)."""
    out = []
    for j, r in enumerate(runs, start=1):
        out += [(-1) ** (j - 1)] * r
    return tuple(out)


def brute_profile(runs):
    """(p, nu, q, alpha, s_{nu+1}, k0) of a balanced run tuple whose first
    run exceeds 1, read off the plain tuple r_1..r_gamma: p = r_1, nu the
    least j >= 1 with r_{j+1} not a multiple of p, q = r_{nu+1},
    alpha = 1 when q = 1 (mod p) and 0 otherwise, s_{nu+1} = r_1 + ... +
    r_{nu+1} and k0 = p + s_{nu+1} + alpha.  None when the tuple is
    unbalanced or its first run is 1."""
    if not brute_is_balanced(runs) or runs[0] == 1:
        return None
    r = (None,) + tuple(runs)  # r[j] is the j-th run, 1-based
    p = r[1]
    nu = min(j for j in range(1, len(runs)) if r[j + 1] % p != 0)
    q = r[nu + 1]
    alpha = 1 if q % p == 1 else 0
    s_next = sum(r[1 : nu + 2])
    return p, nu, q, alpha, s_next, p + s_next + alpha


def _brute_p_odd(runs):
    """(met, holds) of p-odd, which assumes no balanced tuple."""
    n = sum(runs)
    if n % 2 == 0 or runs[0] == 1 or not brute_is_barker(brute_elements(runs)):
        return False, None
    if n <= 3:
        return True, True
    profile = brute_profile(runs)
    if profile is None:  # an odd Barker sequence is balanced: a broken calculus
        return True, False
    p, _, _, alpha, s_next, k0 = profile
    _, _, _, t_set = brute_prefix_structure(runs)
    if n <= 5:
        return True, p % 2 == 1
    return True, (
        p % 2 == 1 and s_next % 2 == 1 and (alpha == 0 or s_next + 1 in t_set) and n <= k0 + 1
    )


def brute_lemma(target, runs, param):
    """(met, holds) of one of the lemmas L2-L7n or p-odd on the run tuple
    ``runs`` at ``param``, k for L2-L5, mu for L6 and None for the rest,
    each statement read off the plain tuples: ``met`` says whether its
    hypotheses hold and ``holds`` whether its conclusion does (None when
    ``met`` is False).  All but p-odd assume a balanced tuple.
    f = f_s + f_t, mu is the rank of k, k is doubled when it is even and
    k/2 is a forward interior boundary, (p, nu, q, alpha, s_{nu+1}, k0)
    is :func:`brute_profile`, r~ is :func:`brute_run_vector` and C is
    :func:`brute_aperiodic` of :func:`brute_elements`, C_0 = n, C_n = 0.
    - L2: k not in S  =>  f(k) = f_t(k) = (-1)**(k+mu+1).
    - L3: k in S, k odd  =>  f(k-1) = -f(k) if k > 1, f(k+1) = f(k) if k+1 in T.
    - L4: u_k = mu (mod 2)  <=>  k doubled.
    - L5: k in S  =>  (r~_k = 1 (mod 4)  <=>  k doubled).
    - L6: mu < gamma, runs 1..mu-1 all >= 2  =>  w = s_mu - mu < gamma and
      the last w runs all <= 2.
    - L7: p >= 3 odd, s_{nu+1} odd, (alpha = 1 => s_{nu+1} + 1 in T), k0 < n
      =>  |r~_{k0} + r~_{k0-1}| >= 2.
    - L7n: L7's hypotheses and its conclusion  =>  |C_j| >= 3 for some j
      in n-k0-1..n-k0+2 with 0 <= j <= n.
    - p-odd: n odd, r_1 > 1 and |C_k| <= 1 for 1 <= k <= n-1  =>  p odd
      when n > 3, and when n > 5 also s_{nu+1} odd, (alpha = 1 =>
      s_{nu+1} + 1 in T) and n <= k0 + 1."""
    if target == "p-odd":
        return _brute_p_odd(runs)
    if not brute_is_balanced(runs):
        return False, None
    gamma = len(runs)
    s, _, s_set, t_set = brute_prefix_structure(runs)
    if target in ("L7", "L7n"):
        profile = brute_profile(runs)
        if profile is None:  # first run 1, so p < 3
            return False, None
        n = sum(runs)
        p, _, _, alpha, s_next, k0 = profile
        if not (
            p >= 3 and p % 2 == 1 and s_next % 2 == 1
            and (alpha == 0 or s_next + 1 in t_set) and k0 < n
        ):
            return False, None
        r_tilde = brute_run_vector(runs)  # r~_k is r_tilde[k - 1]
        pair_bound = abs(r_tilde[k0 - 1] + r_tilde[k0 - 2]) >= 2
        if target == "L7":
            return True, pair_bound
        if not pair_bound:
            return False, None
        c = brute_aperiodic(brute_elements(runs))
        return True, any(abs(c[j]) >= 3 for j in range(n - k0 - 1, n - k0 + 3) if 0 <= j <= n)
    if target == "L6":
        mu = param
        if not (mu < gamma and all(r >= 2 for r in runs[: mu - 1])):
            return False, None
        w = s[mu - 1] - mu
        return True, w < gamma and all(r <= 2 for r in runs[gamma - w:])
    k = param
    f_s, f_t = brute_signs(runs)

    def f(j):
        return f_s.get(j, 0) + f_t.get(j, 0)

    mu = brute_rank(runs, k)
    doubled = k % 2 == 0 and k // 2 in s_set
    if target == "L2":
        if k in s_set:
            return False, None
        return True, f(k) == f_t.get(k, 0) == (-1) ** (k + mu + 1)
    if target == "L3":
        if not (k in s_set and k % 2 == 1):
            return False, None
        return True, (k == 1 or f(k - 1) == -f(k)) and (k + 1 not in t_set or f(k + 1) == f(k))
    if target == "L4":
        return True, ((brute_u(runs, k) - mu) % 2 == 0) == doubled
    if target == "L5":
        if k not in s_set:
            return False, None
        return True, (brute_run_vector(runs)[k - 1] % 4 == 1) == doubled
    raise ValueError(f"no statement for {target!r}")


def brute_parse_sequence(text, max_n=None):
    """The outcome of reading a '+'/'-' text character by character:
    ("ok", elements), ("ParseError", message, position) or
    ("ValueError", message) for a text longer than ``max_n``."""
    if max_n is not None and len(text) > max_n:
        return ("ValueError", f"sequence length limited to n <= {max_n}, got {len(text)}")
    if not text:
        return ("ParseError", "empty sequence at position 0", 0)
    elems = []
    for pos, ch in enumerate(text):
        if ch == "+":
            elems.append(1)
        elif ch == "-":
            elems.append(-1)
        else:
            return ("ParseError", f"expected '+' or '-', got {ch!r} at position {pos}", pos)
    return ("ok", tuple(elems))


def brute_parse_encoding(text, max_n=None):
    """The outcome of reading ``"<sign>,r1,r2,..."`` token by token:
    ("ok", (start sign, runs)), ("ParseError", message, position) or
    ("ValueError", message).  With ``max_n`` these come first: a text
    longer than ``2*max_n + 1`` characters, then any token after the
    first comma that, without its leading zeros, is an ASCII digit
    string longer than ``max_n``'s; a total over ``max_n`` comes last.
    A run is an ASCII digit string that is not all zeros; one of more
    than 4300 significant digits is refused, as ``int()`` refuses it."""

    def error(message, pos):
        return ("ParseError", f"{message} at position {pos}", pos)

    if max_n is not None:
        if len(text) > 2 * max_n + 1:
            return (
                "ValueError",
                f"encoding text limited to {2 * max_n + 1} characters, got {len(text)}",
            )
        for token in text.split(",")[1:]:
            digits = token.lstrip("0")
            if digits and all(ch in "0123456789" for ch in digits) and len(digits) > len(str(max_n)):
                return (
                    "ValueError",
                    f"sequence length limited to n <= {max_n}, got a run of {len(digits)} digits",
                )
    if not text:
        return error("empty run-length encoding", 0)
    if text[0] not in ("+", "-"):
        return error(f"expected leading sign '+' or '-', got {text[0]!r}", 0)
    if len(text) < 2 or text[1] != ",":
        return error("expected ',' after the sign", 1)
    runs = []
    pos = 2
    for token in text[2:].split(","):
        digits = token.lstrip("0")
        if not digits or not all(ch in "0123456789" for ch in digits):
            return error(f"expected a positive run length, got {token!r}", pos)
        if len(digits) > 4300:
            return error(f"run length of {len(digits)} digits", pos)
        value = 0
        for ch in digits:
            value = 10 * value + "0123456789".index(ch)
        runs.append(value)
        pos += len(token) + 1
    if max_n is not None and sum(runs) > max_n:
        return ("ValueError", f"sequence length limited to n <= {max_n}, got {sum(runs)}")
    return ("ok", (1 if text[0] == "+" else -1, tuple(runs)))


def derived_barker_profile(n, even_sign=None):
    """(C, R, R~) at shifts 1..n-1 of a Barker sequence of odd length n,
    derived without a sequence in three steps: C_k = 0 at odd k and
    ``even_sign`` at even k (+1 when n = 1 mod 4, else -1, by default),
    with C_0 = n and C_n = 0; R_k = -(C_{k+1} - 2 C_k + C_{k-1}) / 2,
    Theorem 1; and R~ = (-1)**gamma times R reversed, gamma = (n+1)/2."""
    if even_sign is None:
        even_sign = 1 if n % 4 == 1 else -1
    c = [n] + [0 if k % 2 else even_sign for k in range(1, n)] + [0]
    r = [-(c[k + 1] - 2 * c[k] + c[k - 1]) // 2 for k in range(1, n)]
    gamma = (n + 1) // 2
    r_tilde = [(-1) ** gamma * v for v in reversed(r)]
    return tuple(c[1:n]), tuple(r), tuple(r_tilde)


def brute_step_tables(n):
    """Per outside-in step j = 1..(n+1)/2, which places positions j and
    n+1-j (1-based), a dict over every shift k in 1..n-1 of
    (new, still_open): ``new`` lists the index pairs (i, i+k), i < i+k,
    that are both placed after step j but were not both placed before
    it, and ``still_open`` counts the pairs (i, i+k) not both placed
    after step j.  Built by scanning every pair at every step."""
    placed = set()
    out = []
    for j in range(1, (n + 1) // 2 + 1):
        before = set(placed)
        placed |= {j, n + 1 - j}
        table = {}
        for k in range(1, n):
            pairs = [(i, i + k) for i in range(1, n - k + 1)]
            both = [p for p in pairs if p[0] in placed and p[1] in placed]
            new = [p for p in both if not (p[0] in before and p[1] in before)]
            table[k] = (new, len(pairs) - len(both))
        out.append(table)
    return out


def brute_admissible_range(n, k, threshold):
    """(lo, hi): the least and the greatest value in [-threshold, threshold]
    of the parity of n - k that a final C_k may take (lo > hi when the
    interval holds none).  At threshold 1, odd n and even k, C_{n-k} has
    odd parity, hence is 0, and C_k + C_{n-k} = n (mod 4) leaves the one
    value C_k = n (mod 4) in {+1, -1}."""
    if threshold == 1 and n % 2 and k % 2 == 0:
        v = 1 if n % 4 == 1 else -1
        return v, v
    hi = threshold if (threshold - (n - k)) % 2 == 0 else threshold - 1
    lo = -threshold if (threshold + (n - k)) % 2 == 0 else -threshold + 1
    return lo, hi
