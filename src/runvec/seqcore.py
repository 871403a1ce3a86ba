"""Exact integer calculus for finite {-1,+1} sequences.

Covers the whole chain from raw sequences to their run vector:
run-length encoding and decoding, aperiodic and periodic
autocorrelations, the forward/reverse boundary prefix sums with the
alternating boundary signs read off them, and the derived run-vector pair.

Index conventions, stated once here for the whole package:

* Formulas are 1-based, storage is 0-based.  Slot ``i`` of
  ``BinarySequence.elems`` holds element ``a_{i+1}``.
* Aperiodic autocorrelation vectors: slot ``k`` holds ``C_k`` for
  ``k = 0..n``, with ``C_n = 0`` by convention.  Periodic vectors:
  slot ``k`` holds the k-th cyclic autocorrelation, ``k = 0..n-1``.
* Run-vector tuples are shifted by one: slot ``i`` holds the entry for
  shift ``i+1``: ``r[k-1]`` is entry k of the reflected vector, and
  :meth:`RunVector.tilde` reads the untransformed one 1-based.
* ``RunStructure.s`` and ``.t`` store the boundary prefix sums with
  slot ``j`` holding the ``(j+1)``-th one, so ``s[0]`` is the first
  run boundary and ``s[-1] == n``.
* The boundary values ``a_0 = 0`` and ``a_{n+1} = 0`` are conventions
  applied inside operations; they are never stored.

Packed form: a length-n sequence is also one integer ``x`` with bit
``n-1-i`` set exactly where slot ``i`` holds -1 (see :func:`pack`), so
the first element is the most significant bit and numeric order of the
masks is lexicographic order with '+' before '-'.  Negation is
``x ^ (2**n - 1)``; reversal, :func:`packed_reversal`, reverses the
mask's binary text; the orbit of both, the
masks ``x``, ``x ^ full``, ``y`` and ``y ^ full`` for ``full = 2**n - 1``
and the reversal ``y``, is represented by its least mask,
:func:`packed_canonical`.  Slots ``i`` and ``i+k`` differ exactly where
``x ^ (x >> k)`` has a set bit below ``n-k``, so
``C_k = (n-k) - 2*popcount((x ^ (x >> k)) & mask)``.  The run lengths
(:func:`packed_runs`), the predicates and C wherever it is still read
one mask at a time are computed on this form: p-odd and L7n on each
balanced tuple, and the search's re-verification of each hit.
:func:`unpack` turns a mask back into a sequence through the checking
constructor.

Products: both autocorrelation vectors, the run vector and the delta
oracle of :mod:`runvec.lemmalab` are each read off one big-integer
multiplication (Kronecker substitution): two polynomials with small
integer coefficients are packed into fixed-width byte slots of two
integers, multiplied once, and the signed slots of the product are
decoded by :func:`_signed_digits`.  For C and the delta oracle the
factors are the sequence, or its difference sequence, and its reversal
(:func:`_reflected_product`; :func:`packed_correlation_vectors` folds
the periodic vector out of the same product); for the run vector they
come from the boundary prefix sums alone (:func:`run_vector_of`),
never from C.  Each docstring derives its slot widths.

Bit planes: a population of masks is also a tuple of ints, one per
slot, whose bit x holds slot i of mask x (:func:`_element_planes`), and
a count per mask is a bit-sliced counter, a list of such planes added
with ripple carry (:func:`_plane_add`).  The plane kernels read C
(:func:`_plane_distances`) and the run vector (:func:`_plane_run_vector`,
from the boundary planes alone) of every mask of a population at once,
with one big-integer AND, OR or XOR per plane and term; each yields
one shift's counter at a time, so a caller holds only what it keeps;
:func:`_counter_equals` tests a counter against a constant, and
:func:`_lowest_bits` decodes the masks of a plane in ascending order.

Integer arguments: each entry point that takes a length, shift, rank,
count or cap from its caller (README lists them) passes it through one
guard, :func:`_int_in`, which refuses with ``ValueError`` a value that
is not exactly an ``int`` (bool, float and str included) or that lies
outside the entry point's range, in one of four wordings:
``<name> must be an int, got <repr>``, ``<name> must be in [lo, hi],
got <v>``, ``<name> must be >= lo, got <v>`` and, for a range with no
member (``hi < lo``, such as a shift k at n = 1), ``no admissible value
for <name>, got <v>``.  The resource caps, the odd-length checks and
the constructors' per-element loops keep their own wording, and the
packed kernels, which the balanced sweep runs once per tuple and the
search once per hit, state what they require and check nothing.

Every operation is a pure function of its inputs; no operation mutates
a value after construction, so values are safe to share across threads.
The one exception is private: :func:`_plane_add` and :func:`_add_signed`
add into a counter list that their caller builds and owns.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, repeat, zip_longest
from collections.abc import Iterator
from operator import xor
from struct import unpack_from


class ParseError(ValueError):
    """Malformed text input; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


#: Decimal digits ``int()`` converts under any ``sys.set_int_max_str_digits``
#: setting (640 is the least it accepts); an uncapped encoding whose runs
#: are all this short is parsed in one pass.
_INT_DIGITS = 640


def _int_in(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``value``, when it is exactly an int in ``[lo, hi]`` (``>= lo``
    without ``hi``, any int without ``lo``); else ``ValueError`` in the
    wording of the module docstring.  The package's one integer guard."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if hi is not None and not lo <= value <= hi:
        if hi < lo:
            raise ValueError(f"no admissible value for {name}, got {value}")
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    return value


def _length_error(max_n: int, got) -> ValueError:
    return ValueError(f"sequence length limited to n <= {max_n}, got {got}")


def _capped(rle: RunLengthEncoding, max_n: int | None) -> RunLengthEncoding:
    """``rle``, or ``ValueError`` when it has more than ``max_n`` elements."""
    if max_n is not None and rle.n > max_n:
        raise _length_error(max_n, rle.n)
    return rle


class Record:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__`` in constructor order,
    and its ``__init__`` passes them in that order to :meth:`_assign`,
    which sets them past the refusing :meth:`__setattr__` and fails on
    a miscount.  Four builders with traffic call ``object.__setattr__``
    directly.  One pass of the ``balanced-lemmas`` benchmark builds
    2 050 ``RunStructure``, 1 024 ``RunVector`` and 2 047
    :func:`trusted_rle` encodings, and ``_assign`` took a ``RunVector``
    build from 0.46 to 1.26 us and a ``trusted_rle`` from 0.49 to
    1.21 us.  The ``RunLengthEncoding`` constructor runs once per
    ``analyze`` or ``rle`` request, and ``_assign`` took it from 0.56
    to 1.14 us (``timeit``, 2 cores, Python 3.11.7).
    Records of the exact same type with equal fields are equal; hash
    and repr read the same fields.  Unpickling calls the constructor
    (:meth:`__reduce__`), since restoring slot state would assign.

    Not a dataclass: importing :mod:`dataclasses`, which imports
    :mod:`inspect`, and building the frozen classes took about 20 ms of
    every command's start-up; these classes build in well under 1 ms.
    """

    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _items(self) -> tuple:
        return tuple([(f, getattr(self, f)) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __hash__(self) -> int:
        return hash(self._items())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in self._items()])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class BinarySequence(Record):
    """A finite sequence over {-1, +1}."""

    __slots__ = ("elems",)

    def __init__(self, elems: tuple[int, ...]):
        elems = tuple(elems)
        if not elems:
            raise ValueError("sequence length must be >= 1")
        for x in elems:
            # an exact type test, so bool, float, Fraction and Decimal are rejected
            if type(x) is not int or (x != 1 and x != -1):
                raise ValueError(f"sequence elements must be +1 or -1, got {x!r}")
        self._assign(elems)

    @property
    def n(self) -> int:
        return len(self.elems)

    @classmethod
    def from_text(cls, text: str) -> BinarySequence:
        """Parse a '+'/'-' string such as ``"+++--+-"`` (see :func:`parse_sequence`)."""
        return unpack(parse_sequence(text), len(text))

    def to_text(self) -> str:
        return "".join("+" if x == 1 else "-" for x in self.elems)

    def __str__(self) -> str:
        return self.to_text()


class RunLengthEncoding(Record):
    """Starting sign plus the lengths of the maximal constant blocks."""

    __slots__ = ("start_sign", "runs")

    def __init__(self, start_sign: int, runs: tuple[int, ...]):
        runs = tuple(runs)
        if type(start_sign) is not int or (start_sign != 1 and start_sign != -1):
            raise ValueError(f"start_sign must be +1 or -1, got {start_sign!r}")
        if not runs:
            raise ValueError("an encoding needs at least one run")
        for r in runs:
            # an exact type test, so bool (an int subclass) is rejected too
            if type(r) is not int or r < 1:
                raise ValueError(f"run lengths must be positive integers, got {r!r}")
        set_ = object.__setattr__
        set_(self, "start_sign", start_sign)
        set_(self, "runs", runs)

    @property
    def gamma(self) -> int:
        return len(self.runs)

    @property
    def n(self) -> int:
        return sum(self.runs)

    @classmethod
    def from_text(cls, text: str, max_n: int | None = None) -> RunLengthEncoding:
        """Parse ``"<sign>,r1,r2,..."`` such as ``"+,3,2,1,1"``.

        With ``max_n``, an encoding of more elements raises ``ValueError``,
        checked in this order: a text longer than ``2*max_n + 1``
        characters, the length of ``'+,1,...,1'`` with ``max_n`` runs; a
        run with more digits than ``max_n`` has, anywhere after the first
        comma, before any token is parsed; then a total over ``max_n``.

        A sign, a comma and ASCII digit runs of at most that many digits
        (without a cap, of at most :data:`_INT_DIGITS`) are validated and
        converted at C level in one pass.  Any other text, or a zero run,
        goes through the token loop, which raises the :class:`ParseError`
        of the first bad token.
        """
        if max_n is not None and len(text) > 2 * _int_in("max_n", max_n, 1) + 1:
            raise ValueError(
                f"encoding text limited to {2 * max_n + 1} characters, got {len(text)}"
            )
        run_digits = _INT_DIGITS if max_n is None else len(str(max_n))
        tokens = text[2:].split(",")
        if (
            text[:2] in ("+,", "-,")
            and not text[2:].strip(",0123456789")
            and "" not in tokens
            and max(map(len, tokens)) <= run_digits
        ):
            runs = tuple(map(int, tokens))
            if 0 not in runs:
                return _capped(cls(1 if text[0] == "+" else -1, runs), max_n)
        if max_n is not None:
            # a run with more digits than the cap is over it on its own; refuse it
            # before int() meets it, which converts at most 4300 digits
            for token in text.split(",")[1:]:
                digits = token.lstrip("0")
                if digits.isascii() and digits.isdigit() and len(digits) > run_digits:
                    raise _length_error(max_n, f"a run of {len(digits)} digits")
        if not text:
            raise ParseError("empty run-length encoding", 0)
        if text[0] not in "+-":
            raise ParseError(f"expected leading sign '+' or '-', got {text[0]!r}", 0)
        if len(text) < 2 or text[1] != ",":
            raise ParseError("expected ',' after the sign", 1)
        runs = []
        pos = 2
        for token in tokens:
            # isdigit() alone admits '²' or '①', which int() rejects; leading
            # zeros are dropped so they count against no digit limit
            digits = token.lstrip("0")
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError(f"expected a positive run length, got {token!r}", pos)
            try:
                runs.append(int(digits))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"run length of {len(digits)} digits", pos) from None
            pos += len(token) + 1
        return _capped(cls(1 if text[0] == "+" else -1, tuple(runs)), max_n)

    def to_text(self) -> str:
        sign = "+" if self.start_sign == 1 else "-"
        return ",".join([sign] + [str(r) for r in self.runs])

    def __str__(self) -> str:
        return self.to_text()


class RunStructure(Record):
    """Boundary prefix sums of an encoding.

    ``s`` holds the forward prefix sums of the run lengths, ``t`` the
    prefix sums taken from the other end; both end at ``n``.
    ``s_set``/``t_set`` are the first ``gamma - 1`` of each (the interior
    boundary positions).  The alternating sign of an interior boundary,
    ``(-1)**j`` at rank ``j``, follows from its slot in ``s`` or ``t``, so
    it is not stored: :func:`f_eval` reads it off them.
    """

    __slots__ = ("s", "t", "s_set", "t_set", "gamma", "n")

    def __init__(self, s: tuple[int, ...], t: tuple[int, ...], s_set: frozenset[int],
                 t_set: frozenset[int], gamma: int, n: int):
        set_ = object.__setattr__
        set_(self, "s", s)
        set_(self, "t", t)
        set_(self, "s_set", s_set)
        set_(self, "t_set", t_set)
        set_(self, "gamma", gamma)
        set_(self, "n", n)


class RunVector(Record):
    """The run-vector pair; slot ``i`` of each tuple holds entry ``i+1``."""

    __slots__ = ("r_tilde", "r")

    def __init__(self, r_tilde: tuple[int, ...], r: tuple[int, ...]):
        set_ = object.__setattr__
        set_(self, "r_tilde", r_tilde)
        set_(self, "r", r)

    def tilde(self, k: int) -> int:
        """Entry k of the untransformed vector, 1 <= k <= n-1."""
        return self.r_tilde[_int_in("k", k, 1, len(self.r_tilde)) - 1]


_BITS = str.maketrans("+-", "01")


def pack(seq: BinarySequence) -> int:
    """The packed form of a sequence, in the layout the module docstring states."""
    return int("".join(["1" if v < 0 else "0" for v in seq.elems]), 2)


def unpack(x: int, n: int) -> BinarySequence:
    """The length-n sequence whose packed form is ``x``, ``0 <= x < 2**n``:
    ``n >= 1`` and the type of ``x`` are checked by :func:`_int_in`, the
    range of ``x`` here."""
    _int_in("n", n, 1)
    if not 0 <= _int_in("x", x) < 1 << n:
        raise ValueError(f"mask {x} does not fit in {n} bits")
    return BinarySequence([-1 if bit == "1" else 1 for bit in format(x, f"0{n}b")])


def trusted_rle(start_sign: int, runs: tuple[int, ...]) -> RunLengthEncoding:
    """``RunLengthEncoding(start_sign, runs)`` past the constructor's checks,
    for a caller whose sign is +1 or -1 and whose runs are a non-empty
    tuple of positive ints by construction; unpickling still checks."""
    rle = object.__new__(RunLengthEncoding)
    object.__setattr__(rle, "start_sign", start_sign)
    object.__setattr__(rle, "runs", runs)
    return rle


def packed_reversal(x: int, n: int) -> int:
    """The packed form of the reversal of the packed length-n sequence
    ``x``, ``0 <= x < 2**n``: bit ``p`` moves to bit ``n-1-p``."""
    return int(format(x, f"0{n}b")[::-1], 2)


def packed_canonical(x: int, n: int) -> int:
    """The least of the masks of ``x``, its negation, its reversal and
    both: the representative of the orbit (module docstring)."""
    full, y = (1 << n) - 1, packed_reversal(x, n)
    return min(x, x ^ full, y, y ^ full)


def parse_sequence(text: str, max_n: int | None = None) -> int:
    """The packed form of a '+'/'-' text such as ``"+++--+-"``, whose
    length is ``len(text)``.

    With ``max_n``, a longer text raises ``ValueError`` before it is read.
    A text of '+' and '-' only is validated by one ``strip`` and converted
    by one base-2 ``int()``, which no digit limit applies to; only any
    other text is scanned again, for the :class:`ParseError` at its first
    other character.
    """
    if max_n is not None and len(text) > _int_in("max_n", max_n, 1):
        raise _length_error(max_n, len(text))
    if text and not text.strip("+-"):
        return int(text.translate(_BITS), 2)
    if not text:
        raise ParseError("empty sequence", 0)
    pos = next(i for i, ch in enumerate(text) if ch not in "+-")
    raise ParseError(f"expected '+' or '-', got {text[pos]!r}", pos)


def decode_text(rle: RunLengthEncoding) -> str:
    """The '+'/'-' text of the sequence an encoding describes: run j
    repeats its sign ``r_j`` times, and the signs alternate from the
    start sign."""
    signs = "+-" if rle.start_sign == 1 else "-+"
    return "".join(map(str.__mul__, signs * len(rle.runs), rle.runs))


def packed_runs(x: int, n: int) -> tuple[int, ...]:
    """Run lengths of the packed length-n sequence ``x``.

    Bit ``j`` of ``x ^ (x >> 1)`` (below ``n-1``) is set exactly where
    slots ``n-2-j`` and ``n-1-j`` differ.  With bit ``n-1`` forced on,
    the binary digits after the leading 1 list those boundaries from
    the first slot onwards, so each run is one more than the number of
    0 digits between consecutive 1s.
    """
    flips = bin((x ^ (x >> 1)) | (1 << (n - 1)))[3:]
    return tuple([len(gap) + 1 for gap in flips.split("1")])


def packed_rle(x: int, n: int) -> RunLengthEncoding:
    """Run-length encoding of the packed length-n sequence ``x``: the
    sign of its first slot and :func:`packed_runs`."""
    return RunLengthEncoding(-1 if x >> (n - 1) else 1, packed_runs(x, n))


def pack_rle(rle: RunLengthEncoding) -> int:
    """The packed form of the sequence ``rle`` describes, the inverse of
    :func:`packed_rle`: one shift per run, and one or of ones per run
    whose sign is -1, every other run from the first when the start sign
    is -1.  Each shift copies the mask, so at n = 10 000 the text route,
    ``parse_sequence(decode_text(rle))``, is faster (0.7 ms against 1.2)."""
    x, negative = 0, rle.start_sign < 0
    for r in rle.runs:
        x <<= r
        if negative:
            x |= (1 << r) - 1
        negative = not negative
    return x


def packed_autocorrelations(x: int, n: int) -> Iterator[int]:
    """``C_1, ..., C_{n-1}`` of the packed length-n sequence ``x``, lazily;
    requires ``0 <= x < 2**n``.

    The lazy loop for early-exit bound tests: a caller that tests a
    bound stops consuming at the first shift that breaks it: p-odd on
    each balanced tuple and the search's re-verification of each hit.
    It also gives the whole of C to L7n on each balanced tuple, to the
    search records and to :func:`aperiodic_autocorrelations`, whose
    callers in the package all stay at n <= 45: up to about n = 21 the
    loop is as fast as the fixed cost of
    :func:`packed_correlation_vectors` or faster (4.0 us against 7.7 us
    at n = 13, 2-core VM, Python 3.11.7), and that product serves
    ``analyze``.
    """
    mask = (1 << n) - 1
    for k in range(1, n):
        mask >>= 1
        yield n - k - 2 * ((x ^ (x >> k)) & mask).bit_count()


_INT_CODES = {1: "b", 2: "h", 4: "i"}  # struct codes of 1-, 2- and 4-byte slots


def _signed_digits(value: int, count: int, width: int) -> tuple[int, ...]:
    """Digits ``0..count-1`` of ``value = sum_k d_k * y**k``,
    ``y = 2**w``, ``w = 8*width``, as signed integers.  Each of them must
    lie in ``[-2**(w-1), 2**(w-1))``; the digits from ``count`` up may be
    anything.

    A negative digit borrows from the one above it.  Adding ``M``, which
    holds ``2**(w-1)`` in each of the ``count`` low slots, lifts digit k
    to ``d_k + 2**(w-1)``, which lies in ``[0, 2**w)``.  So the low terms
    form the plain base-``y`` representation of a number below
    ``y**count``, and the terms from ``y**count`` up are a multiple of
    ``y**count``: masking to ``count*w`` bits keeps exactly the lifted
    digits.  XOR with ``M`` flips each slot's top bit back, which leaves
    ``d_k`` in w-bit two's complement.  The slots are read little-endian,
    whatever the host byte order.
    """
    bits = 8 * width
    mask = (1 << bits * count) - 1
    signs = mask // ((1 << bits) - 1) << (bits - 1)  # M
    digits = ((value + signs) & mask) ^ signs
    return unpack_from(f"<{count}{_INT_CODES[width]}", digits.to_bytes(width * count, "little"))


def _reflected_product(lifted: bytes, lift: int, width: int) -> int:
    """``A * R`` for ``A = sum_i v_i y**i``, ``y = 2**(8*width)``, and its
    reversal ``R``, where byte i of ``lifted`` is ``v_i + lift``: in the low
    byte of each slot the bytes read little-endian are ``A + O``, and read
    big-endian, shifted down by ``8*width - 8`` bits, ``R + O``, ``O``
    holding ``lift`` in every slot."""
    slots = bytearray(width * len(lifted))
    slots[::width] = lifted
    offset = int.from_bytes((bytes([lift]) + bytes(width - 1)) * len(lifted), "little")
    return (int.from_bytes(slots, "little") - offset) * (
        (int.from_bytes(slots, "big") >> 8 * width - 8) - offset
    )


_LIFTED = bytes.maketrans(b"01", b"\x02\x00")  # a bit of a mask -> a_i + 1


def packed_correlation_vectors(x: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The aperiodic vector ``(C_0, ..., C_n)``, with ``C_n = 0``, and the
    periodic vector ``(P_0, ..., P_{n-1})`` of the packed length-n
    sequence ``x``, both from one product; requires ``0 <= x < 2**n``.

    For ``A = sum_i a_i y**i`` and its reversal
    ``R = sum_i a_{n-1-i} y**i``, coefficient ``n-1+k`` of ``A*R`` is
    ``sum_i a_{i+k} * a_i = C_k``, and so is coefficient ``n-1-k``
    (``0 <= k < n``).  Both factors are packed with ``w`` bits per
    coefficient, ``y = 2**w``, by :func:`_reflected_product` from
    ``a_i + 1`` (2 or 0), and ``A*R = sum_m d_m y**m`` is one product.

    Splitting: every ``|d_m| <= n < y/2``, and the top digit of the low
    half ``L = sum_{m<n} d_m y**m`` is ``d_{n-1} = C_0 = n >= 1``, so
    ``0 < L < y**n``.  Hence masking the product to ``n*w`` bits gives
    ``L`` and shifting it right by ``n*w`` bits gives the high half
    ``H = sum_{j<n-1} C_{j+1} y**j``, both exactly, with no borrow
    between them.  ``H`` holds ``C_1..C_{n-1}``.  The periodic vector is
    the product reduced modulo ``y**n - 1``: ``P_0 = n``, and slot j of
    ``L + H`` holds ``d_j + d_{n+j} = C_{n-1-j} + C_{j+1} = P_{j+1}``
    (see :func:`periodic_autocorrelations`).

    Slot widths: :func:`_signed_digits` reads ``C_1..C_{n-1}`` and
    ``P_1..P_{n-1}``, all of magnitude at most ``n``, and
    ``P_k = n`` for the constant sequence.  So 8-bit slots hold
    n <= 127, 16-bit slots n <= 32767 and 32-bit slots every
    n < 2**31; the constant sequence overflows the narrower slot at
    n = 128 and n = 32768.
    """
    width = 1 if n <= 127 else 2 if n <= 32767 else 4
    product = _reflected_product(format(x, f"0{n}b").encode().translate(_LIFTED), 1, width)
    low, high = product & ((1 << 8 * width * n) - 1), product >> 8 * width * n
    return (
        (n, *_signed_digits(high, n - 1, width), 0),
        (n, *_signed_digits(low + high, n - 1, width)),
    )


def packed_skew_symmetric(x: int, n: int) -> bool:
    """Skew-symmetry of the packed length-n sequence ``x``.

    Slots ``i`` and ``n-1-i`` must agree exactly when ``i`` has the
    parity of the centre slot ``c``, so the bit-reversed mask equals
    ``x`` flipped on the slots of the other parity.
    """
    if n % 2 == 0:
        return False
    c = n // 2
    flipped = int(("01" * n)[c & 1 : (c & 1) + n], 2)
    return packed_reversal(x, n) == x ^ flipped


def encode_rle(seq: BinarySequence) -> RunLengthEncoding:
    """Run-length encode: maximal constant blocks, first element's sign kept."""
    return packed_rle(pack(seq), seq.n)


def decode_rle(rle: RunLengthEncoding) -> BinarySequence:
    """Expand an encoding back into the unique sequence it describes."""
    return BinarySequence.from_text(decode_text(rle))


def aperiodic_autocorrelations(seq: BinarySequence) -> tuple[int, ...]:
    """All shifted inner products ``C_0..C_n``; the last slot is 0 by convention."""
    n = seq.n
    return (n, *packed_autocorrelations(pack(seq), n), 0)


def periodic_autocorrelations(seq: BinarySequence) -> tuple[int, ...]:
    """Cyclic autocorrelations for shifts ``0..n-1`` (indices wrap modulo n).

    They follow from the aperiodic ones: ``P_0 = C_0 = n``, and for
    ``0 < k < n`` the cyclic products ``a_i * a_{(i+k) mod n}`` split
    into those with ``i < n-k``, which sum to ``C_k``, and those with
    ``i = n-k+j`` for ``0 <= j < k``, which are ``a_j * a_{j+n-k}`` and
    sum to ``C_{n-k}``, so ``P_k = C_k + C_{n-k}``.
    :func:`packed_correlation_vectors` reads both off one product.
    """
    return packed_correlation_vectors(pack(seq), seq.n)[1]


def run_structure(rle: RunLengthEncoding) -> RunStructure:
    """Boundary prefix sums from both ends and the interior boundary sets."""
    runs = rle.runs
    s = tuple(accumulate(runs))
    t = tuple(accumulate(reversed(runs)))
    gamma = len(runs)
    return RunStructure(s, t, frozenset(s[: gamma - 1]), frozenset(t[: gamma - 1]), gamma, s[-1])


def _boundary_sign(prefix: tuple[int, ...], k: int) -> int:
    """``(-1)**j`` when ``k`` is the j-th interior boundary of the
    increasing prefix sums ``prefix`` (the 0-based slot ``j - 1``), else 0."""
    j = bisect_left(prefix, k)
    return (1 if j & 1 else -1) if j < len(prefix) - 1 and prefix[j] == k else 0


def f_eval(rs: RunStructure, k: int) -> tuple[int, int, int]:
    """The boundary signs at any integer ``k``: the forward sign, the
    reverse sign, and their sum.  The forward (reverse) sign is
    ``(-1)**j`` when ``k`` is the j-th interior boundary of ``s`` (``t``),
    found by bisection, and zero off the boundary sets, so the function is
    total over every int k."""
    _int_in("k", k)
    fs = _boundary_sign(rs.s, k)
    ft = _boundary_sign(rs.t, k)
    return fs, ft, fs + ft


def u_k(rs: RunStructure, k: int) -> int:
    """Alternating sum of reverse-boundary signs sampled at ``k`` minus each
    forward boundary, each sign read off ``t`` as in :func:`f_eval`.  Zero
    whenever ``k`` does not exceed the first boundary.

    Requires ``1 <= k <= n - 1``.
    """
    _int_in("k", k, 1, rs.n - 1)
    total = 0
    s, t = rs.s, rs.t
    for j in range(1, rs.gamma):
        d = k - s[j - 1]
        if d <= 0:
            break  # boundaries increase and the reverse signs vanish at <= 0
        v = _boundary_sign(t, d)
        total += -v if j & 1 else v
    return total


def run_vector_of(rs: RunStructure) -> RunVector:
    """Run vector of the length-n sequence behind the run structure ``rs``.

    Entry k of the untransformed vector is ``f_eval(rs, k)[2] +
    2 * u_k(rs, k)``: with 0-based ranks and ``sigma_j = -(-1)**j``,
    each forward boundary ``s_j = k`` and each reverse boundary
    ``t_i = k`` adds ``sigma_j`` or ``sigma_i``, and each pair with
    ``s_j + t_i = k`` adds ``2 * sigma_j * sigma_i``.  For
    ``A = sum_j sigma_j x**s_j`` and ``B = sum_i sigma_i x**t_i`` over
    the interior boundaries the entries are therefore the coefficients
    of ``A + B + 2*A*B`` below ``x**n``, and

        (1 + 2*A) * (1 + 2*B) = 1 + 2*(A + B + 2*A*B),

    so entry k is half of coefficient k of that product, ``1 <= k < n``.
    Coefficients at ``x**n`` and above, from pairs with ``s_j + t_i >= n``,
    are never read.

    The product is one big-integer multiplication (Kronecker
    substitution): each factor is packed with ``w`` bits per coefficient,
    ``x = 2**w``, and multiplied once.  The product is ``1 + 2*Q`` with
    ``Q = A + B + 2*A*B``, which has no constant term because every
    interior boundary is at least 1; so ``Q`` is a multiple of ``x``, and
    one right shift by ``w + 1`` bits gives ``Q / x`` exactly, whose
    digit ``k - 1`` is ``r_tilde_k``.  :func:`_signed_digits` reads its
    ``n - 1`` low digits.  ``|r_tilde_k| <= 2*gamma - 1 <= 2n - 1``
    fits ``[-2**(w-1), 2**(w-1))`` with 8-bit slots for n <= 64,
    16-bit slots for n <= 16384 and 32-bit slots for every n <= 2**30.
    None of the first two reaches further: the alternating sequence has
    ``r_tilde_{n-1} = 2n - 2``, which is 128 at n = 65 and 32768 at
    n = 16385.

    Each factor is built from a ``bytearray`` holding each coefficient
    plus 2 in the low byte of its slot (3 for the constant 1, 4 for an
    odd rank's +2, 0 for an even rank's -2, 2 elsewhere), minus the
    integer with 2 in every slot: O(n), with no quadratic shift-and-add.
    The last sums, ``n``, mark slot n, which no digit read depends on; ``r``
    re-reads ``r_tilde`` backwards, negated when gamma is odd (mark 4).
    """
    n = rs.n
    if n < 2:
        return RunVector((), ())
    width = 1 if n <= 64 else 2 if n <= 16384 else 4
    twos = (b"\x02" + bytes(width - 1)) * (n + 1)
    forward, reverse = bytearray(twos), bytearray(twos)
    forward[0] = reverse[0] = 3
    mark = 0  # 0 - 2 at an even rank, 4 - 2 at an odd one
    for p, q in zip(rs.s, rs.t):
        forward[p * width] = reverse[q * width] = mark
        mark ^= 4
    offset = int.from_bytes(twos, "little")
    product = (int.from_bytes(forward, "little") - offset) * (
        int.from_bytes(reverse, "little") - offset
    )
    r_tilde = _signed_digits(product >> 8 * width + 1, n - 1, width)
    return RunVector(r_tilde, tuple([-v for v in reversed(r_tilde)]) if mark else r_tilde[::-1])


def run_vector(seq: BinarySequence) -> RunVector:
    """Run vector of a sequence; empty pair for ``n = 1``."""
    return run_vector_of(run_structure(encode_rle(seq)))


def is_skew_symmetric(seq: BinarySequence) -> bool:
    """True iff the length is odd and every pair equidistant from the centre
    agrees up to the alternating sign; length 1 is vacuously true."""
    return packed_skew_symmetric(pack(seq), seq.n)


def is_balanced(rs: RunStructure) -> bool:
    """True iff the interior boundary sets partition ``{1, ..., n-1}``.

    Each set holds ``gamma - 1`` distinct points of ``{1, ..., n-1}``, so
    they partition it exactly when those counts add up to ``n - 1`` and
    the sets are disjoint: O(gamma), with no set of size n built.
    """
    return 2 * (rs.gamma - 1) == rs.n - 1 and rs.s_set.isdisjoint(rs.t_set)


def is_barker(seq: BinarySequence) -> bool:
    """True iff every off-peak aperiodic autocorrelation is at most 1 in
    magnitude; length 1 is vacuously true."""
    return all(-1 <= c <= 1 for c in packed_autocorrelations(pack(seq), seq.n))


def boundary_rank_interval(rs: RunStructure, k: int) -> int:
    """The unique index ``mu`` with ``s_{mu-1} < k <= s_mu`` for ``1 <= k <= n``."""
    return bisect_left(rs.s, _int_in("k", k, 1, rs.n)) + 1


def all_sequences(n: int) -> Iterator[BinarySequence]:
    """Every length-n sequence, lexicographically with '+' before '-';
    ``n`` is checked by this call, not at the first ``next()``."""
    return map(unpack, range(1 << _int_in("n", n, 1)), repeat(n))


def _element_planes(n: int) -> tuple[int, ...]:
    """The element planes of the population of all ``2**n`` masks: bit x
    of plane i is set exactly where slot i of mask x holds -1, that is
    where bit ``n-1-i`` of x is set.

    Over x = 0, 1, ..., bit b of x reads ``w = 2**b`` zeros, then w ones,
    and so on.  The plane of bit b starts as one such block of ``2w``
    bits and doubles, ``plane | plane << width``, until it spans the
    ``2**n`` masks: n doublings or fewer per plane, each O(2**n) bits.
    """
    size = 1 << n
    planes = []
    for b in range(n - 1, -1, -1):
        w = 1 << b
        plane, width = ((1 << w) - 1) << w, 2 * w
        while width < size:
            plane |= plane << width
            width *= 2
        planes.append(plane)
    return tuple(planes)


def _plane_add(counter: list[int], plane: int, bit: int = 0) -> None:
    """Add ``plane * 2**bit`` to the bit-sliced ``counter``, in place.

    A counter is a list of planes, least significant first: its value at
    mask x is the sum of ``2**j`` over the planes j whose bit x is set.
    Ripple carry from plane ``bit`` up: each step keeps the sum bits
    ``held ^ plane`` and carries ``held & plane``, and it stops as soon as
    nothing carries, so a counter grows a plane only when some mask
    carries out of its top one.
    """
    counter.extend(repeat(0, bit - len(counter)))
    for j in range(bit, len(counter)):
        if not plane:
            return
        held = counter[j]
        counter[j] = held ^ plane
        plane &= held
    if plane:
        counter.append(plane)


def _add_signed(counters: tuple[list[int], list[int]], present: int, minus: int, bit: int) -> None:
    """Add a term of magnitude ``2**bit`` at the masks of ``present`` to
    the signed pair ``counters = (positive, negative)``: to the negative
    counter where ``minus`` is set, to the positive one elsewhere.  The
    pair's value is positive minus negative."""
    minus &= present
    _plane_add(counters[0], present ^ minus, bit)
    _plane_add(counters[1], minus, bit)


def _counter_equals(counter: list[int], value: int, full: int) -> int:
    """The plane of the masks among ``full`` at which ``counter`` holds
    ``value >= 0``: each plane j must read bit j of ``value``, and a value
    with a bit above the counter's top plane is held nowhere."""
    equal = 0 if value >> len(counter) else full
    for j, plane in enumerate(counter):
        equal &= plane if value >> j & 1 else ~plane
    return equal


def _lowest_bits(plane: int, count: int) -> list[int]:
    """The positions of the ``count`` lowest set bits of ``plane``, or of
    all of them when it has fewer, ascending."""
    bits = []
    while plane and len(bits) < count:
        low = plane & -plane
        bits.append(low.bit_length() - 1)
        plane ^= low
    return bits


def _counter_sum(*counters: list[int]) -> list[int]:
    """A new counter holding the sum of ``counters``."""
    total = []
    for counter in counters:
        for bit, plane in enumerate(counter):
            _plane_add(total, plane, bit)
    return total


def _signed_differ(a: tuple[list[int], list[int]], b: tuple[list[int], list[int]]) -> int:
    """The plane of the masks at which the signed counter pairs ``a`` and
    ``b`` differ: where ``a+ + b-`` and ``a- + b+`` differ in some plane."""
    differ = 0
    for x, y in zip_longest(_counter_sum(a[0], b[1]), _counter_sum(a[1], b[0]), fillvalue=0):
        differ |= x ^ y
    return differ


def _signed_at(pair: tuple[list[int], list[int]], x: int) -> int:
    """The value of the signed counter pair ``pair`` at mask ``x``."""
    plus, minus = ([(plane >> x & 1) << j for j, plane in enumerate(c)] for c in pair)
    return sum(plus) - sum(minus)


def _plane_distances(planes: tuple[int, ...]) -> Iterator[list[int]]:
    """``D_1, ..., D_{n-1}`` as counters over the population of the
    element ``planes``, yielded one shift at a time in ascending k: D_k
    counts the slots i with ``a_i != a_{i+k}``, one plane
    ``E_i ^ E_{i+k}`` each, so ``C_k = (n-k) - 2*D_k``."""
    for k in range(1, len(planes)):
        counter = []
        for low, high in zip(planes, planes[k:]):
            _plane_add(counter, low ^ high)
        yield counter


def _plane_run_vector(planes: tuple[int, ...]) -> Iterator[tuple[list[int], list[int]]]:
    """The signed counter pairs of ``r_tilde_1, ..., r_tilde_{n-1}`` over
    the population of the element ``planes``, from the boundary planes
    alone, yielded one shift at a time in ascending k.

    The terms are those of :func:`run_vector_of`.  The boundary
    plane ``B_p = E_{p-1} ^ E_p`` marks a forward boundary at ``s = p``
    and a reverse one at ``t = n - p``.  A boundary's 0-based rank is the
    number of boundaries before it, so its sign ``-(-1)**rank`` is +1
    where the running XOR of the boundaries before it is set: ``forward``
    from the first slot, ``reverse`` from the last.  Entry k gains that
    sign at a forward boundary ``s = k`` and at a reverse one ``t = k``,
    and twice the product of the signs for each pair ``s + t = k``, which
    is minus where the two parities differ.  The XOR of every boundary,
    ``E_0 ^ E_{n-1}``, is the plane of the masks with ``a_1 != a_n``,
    those with an even run count: ``r_k = r_tilde_{n-k}`` there and
    ``-r_tilde_{n-k}`` at the other masks, whose run count is odd.
    """
    n = len(planes)
    bounds = [a ^ b for a, b in zip(planes, planes[1:])]  # bounds[p-1] is B_p
    forward = list(accumulate(bounds, xor, initial=0))  # forward[s-1]: parity at s
    reverse = list(accumulate(reversed(bounds), xor, initial=0))  # reverse[t-1]: at t
    for k in range(1, n):
        counters = ([], [])
        for s, t in zip(range(1, k), range(k - 1, 0, -1)):
            both = bounds[s - 1] & bounds[n - t - 1]
            _add_signed(counters, both, forward[s - 1] ^ reverse[t - 1], 1)
        _add_signed(counters, bounds[k - 1], ~forward[k - 1], 0)
        _add_signed(counters, bounds[n - k - 1], ~reverse[k - 1], 0)
        yield counters


def _plane_skew_symmetric(planes: tuple[int, ...], full: int) -> int:
    """The plane of the skew-symmetric masks among ``full``, the plane of
    the population of the element ``planes``: at odd n, with the centre
    slot m, ``a_{m+d} = (-1)**d * a_{m-d}``, so slots ``m + d`` and
    ``m - d`` differ exactly at odd d.  No mask of even length is."""
    n = len(planes)
    if n % 2 == 0:
        return 0
    m, skew = n // 2, full
    for d in range(1, m + 1):
        differ = planes[m + d] ^ planes[m - d]
        skew &= differ if d & 1 else ~differ
    return skew


def _plane_balanced(planes: tuple[int, ...], full: int) -> int:
    """The plane of the balanced masks among ``full``, the plane of the
    population of the element ``planes``: the interior boundary sets
    partition ``{1, ..., n-1}`` exactly when each k is a forward boundary
    (``B_k``) or a reverse one (``B_{n-k}``) but not both, and the pairs
    ``(k, n-k)`` with ``k <= n/2`` cover every k."""
    bounds = [a ^ b for a, b in zip(planes, planes[1:])]
    balanced = full
    for low, high in zip(bounds[: len(planes) // 2], reversed(bounds)):
        balanced &= low ^ high
    return balanced
