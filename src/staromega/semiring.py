"""Star-omega semirings: the four concrete instances.

Everything is exact: values are Python ints plus distinguished INF / NEG_INF
tokens, never floats.  star and omega use analytic closed forms (suprema of
the monotone partial sums / products); the test-suite re-derives them from
truncations.  The hot loops run on raw values through instance kernels
that write each carrier's arithmetic out: `axpy_raw`, a matrix row update,
and `concat_raw`, the products of two word strata that
`system.least_solution_finite` keys by integer word codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union


class SemiringError(ValueError):
    """Invalid value for an instance, or operands from different instances."""


class _Extreme:
    """Signed infinity token, used instead of floats to keep arithmetic exact."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "inf" if self.sign > 0 else "-inf"

    def __reduce__(self):
        # by name: pickling and copying give the token back, so `is INF` holds
        return "INF" if self.sign > 0 else "NEG_INF"


INF = _Extreme(1)
NEG_INF = _Extreme(-1)

Ext = Union[int, _Extreme]


def _is_nat(v: Ext) -> bool:
    return isinstance(v, int) and v >= 0


class SemiringInstance:
    """One of the four concrete complete star-omega semirings.

    Subclasses fix carrier, operations, and the closed forms for star/omega.
    Instances are stateless singletons; compare them by identity.  Copying
    or pickling one gives the singleton back.
    """

    name: str = ""

    def zero_raw(self) -> Ext:
        raise NotImplementedError

    def one_raw(self) -> Ext:
        raise NotImplementedError

    def top_raw(self) -> Ext:
        """The absorbing top T of the addition: T + x = T for every x."""
        raise NotImplementedError

    def add_raw(self, a: Ext, b: Ext) -> Ext:
        raise NotImplementedError

    def mul_raw(self, a: Ext, b: Ext) -> Ext:
        raise NotImplementedError

    def axpy_raw(self, y: list, left: Ext, z) -> list:
        """The row y + left * z, cell by cell, for a nonzero `left`; the
        instances write the arithmetic out."""
        add, mul = self.add_raw, self.mul_raw
        return [add(a, mul(left, b)) for a, b in zip(y, z)]

    def concat_raw(self, out: dict, left: dict, scale: int, right: dict) -> None:
        """Add left[w] * right[sw] into out[w * scale + sw], in place, for
        nonzero values; the instances write the arithmetic out."""
        add, mul, get = self.add_raw, self.mul_raw, out.get
        for w, v in left.items():
            base = w * scale
            for sw, sv in right.items():
                key, val = base + sw, mul(v, sv)
                prev = get(key)
                out[key] = val if prev is None else add(prev, val)

    def star_raw(self, a: Ext) -> Ext:
        raise NotImplementedError

    def omega_raw(self, a: Ext) -> Ext:
        raise NotImplementedError

    def preclose_raw(self, a: list[list]) -> None:
        """A step that `matrix._star` runs on the raw n x n list `a` just
        before the sweep.  An instance may raise cells of `a` in place, each
        to at most its value in M+ (the sum of the powers M^1, M^2, ...), in
        an idempotent semiring: then M <= a <= M+ in the natural order, so
        a+ = M+ and the star is unchanged.  The generic body does nothing.
        """

    def sweep_raw(self, a: list[list], order) -> list:
        """Lehmann elimination in place on the raw n x n list `a`, with the
        pivots taken in `order`, a permutation of range(n).  Returns `cols`,
        where cols[k] is column k as it stood just before pivot k was
        eliminated.

        Eliminating pivot k replaces a[i][j] by a[i][j] + a[i][k] (a[k][k])*
        a[k][j]; after eliminating a set P of pivots, a[i][j] is the weight
        of the paths i -> j of length >= 1 whose intermediate states all lie
        in P.

        This body needs only the raw protocol: `add_raw`, `mul_raw`,
        `star_raw`, `zero_raw`, `top_raw` and `axpy_raw`.  A row is skipped
        when its left factor equals `zero_raw()`; every other row is updated
        by one `axpy_raw` call.  Besides the semiring instances,
        `gnf._HandleAlgebra` speaks that protocol and reuses this body, so
        the normal form's decomposition runs the sweep on matrices of series
        handles.

        A row whose cells all equal the absorbing top T (`top_raw()`, with
        T + x = T) is skipped at every later pivot: an update only adds to
        each cell, so such a row is a fixed point, and skipping it changes
        neither `a` nor `cols`.  Each row is tested once when the sweep
        starts, so a row that `preclose_raw` filled is never updated, and
        again after each update whose left factor equals T, by a list
        comparison that stops at the first other cell; a matrix that never
        saturates pays one flag test per row and one comparison of `left`
        with T per update.
        """
        mul, star, axpy = self.mul_raw, self.star_raw, self.axpy_raw
        zero, top = self.zero_raw(), self.top_raw()
        tops = [top] * len(a)
        full = [row == tops for row in a]
        cols: list = [None] * len(a)
        for k in order:
            row_k = tuple(a[k])
            col_k = cols[k] = tuple(row[k] for row in a)
            pivot = star(row_k[k])
            for i, x in enumerate(col_k):
                if full[i]:
                    continue
                left = mul(x, pivot)
                if left == zero:
                    continue
                row = a[i] = axpy(a[i], left, row_k)
                if left == top and row == tops:
                    full[i] = True
        return cols

    def validate_raw(self, v: Ext) -> None:
        raise NotImplementedError

    def grid(self) -> tuple[Ext, ...]:
        """Small value grid used by the exhaustive identity checks."""
        raise NotImplementedError

    # -- lifted API -------------------------------------------------------

    def __repr__(self) -> str:
        return f"<semiring {self.name}>"

    def __reduce__(self):
        return (instance_by_name, (self.name,))

    def value(self, v: Ext) -> "SemiringValue":
        """The scalar v, validated: the entry point for values from outside."""
        self.validate_raw(v)
        return SemiringValue(self, v)

    # one stored scalar each, built on first use
    @cached_property
    def zero(self) -> "SemiringValue":
        return _scalar(self, self.zero_raw())

    @cached_property
    def one(self) -> "SemiringValue":
        return _scalar(self, self.one_raw())

    def parse_value(self, text: str) -> "SemiringValue":
        text = text.strip()
        if text == "inf":
            return self.value(INF)
        if text == "-inf":
            return self.value(NEG_INF)
        try:
            return self.value(int(text))
        except ValueError as exc:
            raise SemiringError(f"cannot parse {text!r} as a {self.name} value") from exc

    @staticmethod
    def format_value(v: "SemiringValue") -> str:
        return repr(v.value)


# a 0/1 row as the ASCII digits of a binary numeral, and back
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class BooleanSemiring(SemiringInstance):
    """<B, or, and, 0, 1> with 0* = 1* = 1 and infima as infinite products."""

    name = "boolean"

    def zero_raw(self):
        return 0

    def one_raw(self):
        return 1

    def top_raw(self):
        return 1

    def add_raw(self, a, b):
        return a | b

    def mul_raw(self, a, b):
        return a & b

    def axpy_raw(self, y, left, z):
        # a nonzero left is 1
        return [a | b for a, b in zip(y, z)]

    def concat_raw(self, out, left, scale, right):
        # a nonzero value is 1
        out.update({w * scale + sw: 1 for w in left for sw in right})

    def sweep_raw(self, a, order):
        # Warshall's closure on bit rows: bit j of rows[i] is a[i][j], and
        # eliminating pivot k ORs row k into every row with bit k set, one
        # word operation per row instead of n cell updates
        n = len(a)
        if not n:
            return []
        rows = [int(bytes(reversed(row)).translate(_TO_DIGITS), 2) for row in a]
        cols: list = [None] * n
        for k in order:
            row_k = rows[k]
            col_k = cols[k] = tuple([r >> k & 1 for r in rows])
            rows = [r | row_k if x else r for r, x in zip(rows, col_k)]
        width = f"0{n}b"
        for i, r in enumerate(rows):
            a[i] = list(format(r, width)[::-1].encode().translate(_FROM_DIGITS))
        return cols

    def star_raw(self, a):
        return 1

    def omega_raw(self, a):
        return a

    def validate_raw(self, v):
        # an int, as on the other carriers: a float 1.0 equals 1 but is not exact
        if not isinstance(v, int) or v not in (0, 1):
            raise SemiringError(f"boolean value must be 0 or 1, got {v!r}")

    def grid(self):
        return (0, 1)


class TropicalSemiring(SemiringInstance):
    """<N u inf, min, +, inf, 0> with the infinite numeric sum as infinite product."""

    name = "tropical"

    def zero_raw(self):
        return INF

    def one_raw(self):
        return 0

    def top_raw(self):
        return 0

    def add_raw(self, a, b):
        if a is INF:
            return b
        if b is INF:
            return a
        return a if a <= b else b

    def mul_raw(self, a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def axpy_raw(self, y, left, z):
        # a nonzero left is finite
        return [
            a if b is INF else left + b if a is INF or left + b < a else a
            for a, b in zip(y, z)
        ]

    def concat_raw(self, out, left, scale, right):
        # a nonzero value is finite
        get = out.get
        for w, v in left.items():
            base = w * scale
            for sw, sv in right.items():
                key, val = base + sw, v + sv
                prev = get(key)
                if prev is None or val < prev:
                    out[key] = val

    def preclose_raw(self, a):
        # Warshall's closure of the 0 entries on bit rows, as in the Boolean
        # sweep: bit j of rows[i] is set when a[i][j] == 0.  Weights are
        # naturals, so a path of 0 entries i -> j makes M+[i][j] = 0, the
        # absorbing top; writing it lets the sweep skip every filled row.
        rows = [
            sum([1 << j for j, x in enumerate(row) if x == 0]) if 0 in row else 0
            for row in a
        ]
        if not any(rows):
            return
        # pivot k ORs row k into every row with bit k set; the iterator
        # reads row k after the earlier pivots updated it
        closed = rows[:]
        for k, row_k in enumerate(closed):
            if row_k:
                bit = 1 << k
                for i, r in enumerate(closed):
                    if r & bit:
                        closed[i] = r | row_k
        n = len(a)
        full = (1 << n) - 1
        for i, (r, c) in enumerate(zip(rows, closed)):
            if c == r:
                continue
            if c == full:
                a[i] = [0] * n
                continue
            row, new = a[i], c ^ r
            while new:
                low = new & -new
                row[low.bit_length() - 1] = 0
                new ^= low

    def star_raw(self, a):
        # partial sums min_{j<=n} j*a are minimised by the j=0 term
        return 0

    def omega_raw(self, a):
        return 0 if a == 0 else INF

    def validate_raw(self, v):
        if v is INF or _is_nat(v):
            return
        raise SemiringError(f"tropical value must be a natural or inf, got {v!r}")

    def grid(self):
        return (0, 1, 2, 3, INF)


class ArcticSemiring(SemiringInstance):
    """<N u {-inf, inf}, max, +, -inf, 0> with the infinite sum as infinite product."""

    name = "arctic"

    def zero_raw(self):
        return NEG_INF

    def one_raw(self):
        return 0

    def top_raw(self):
        return INF

    def add_raw(self, a, b):
        if a is INF or b is NEG_INF:
            return a
        if b is INF or a is NEG_INF:
            return b
        return a if a >= b else b

    def mul_raw(self, a, b):
        # -inf is the annihilating zero, so it wins against inf
        if a is NEG_INF or b is NEG_INF:
            return NEG_INF
        if a is INF or b is INF:
            return INF
        return a + b

    def axpy_raw(self, y, left, z):
        # a nonzero left is inf or finite
        if left is INF:
            return [a if b is NEG_INF else INF for a, b in zip(y, z)]
        return [
            a if b is NEG_INF or a is INF
            else INF if b is INF
            else left + b if a is NEG_INF or left + b > a
            else a
            for a, b in zip(y, z)
        ]

    def concat_raw(self, out, left, scale, right):
        # a nonzero value is inf or finite, and inf absorbs
        get = out.get
        for w, v in left.items():
            base = w * scale
            for sw, sv in right.items():
                key = base + sw
                prev = get(key)
                if prev is not INF:
                    val = INF if v is INF or sv is INF else v + sv
                    if prev is None or val is INF or val > prev:
                        out[key] = val

    def star_raw(self, a):
        if a is NEG_INF or a == 0:
            return 0
        return INF

    def omega_raw(self, a):
        if a is NEG_INF:
            return NEG_INF
        if a == 0:
            return 0
        return INF

    def validate_raw(self, v):
        if v is INF or v is NEG_INF or _is_nat(v):
            return
        raise SemiringError(f"arctic value must be a natural, inf or -inf, got {v!r}")

    def grid(self):
        return (NEG_INF, 0, 1, 2, 3, INF)


class CountingSemiring(SemiringInstance):
    """<N u inf, +, *, 0, 1> with the natural infinite product; not idempotent."""

    name = "counting"

    def zero_raw(self):
        return 0

    def one_raw(self):
        return 1

    def top_raw(self):
        return INF

    def add_raw(self, a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def mul_raw(self, a, b):
        # 0 annihilates even inf
        if a == 0 or b == 0:
            return 0
        if a is INF or b is INF:
            return INF
        return a * b

    def axpy_raw(self, y, left, z):
        # a nonzero left is inf or a positive integer
        if left is INF:
            return [a if b == 0 else INF for a, b in zip(y, z)]
        return [
            a if b == 0 else INF if a is INF or b is INF else a + left * b
            for a, b in zip(y, z)
        ]

    def concat_raw(self, out, left, scale, right):
        # a nonzero value is inf or a positive integer, and inf absorbs
        get = out.get
        for w, v in left.items():
            base = w * scale
            for sw, sv in right.items():
                key = base + sw
                prev = get(key)
                if prev is not INF:
                    val = INF if v is INF or sv is INF else v * sv
                    out[key] = val if prev is None or val is INF else prev + val

    def star_raw(self, a):
        if a == 0:
            return 1
        return INF

    def omega_raw(self, a):
        if a == 0:
            return 0
        if a == 1:
            return 1
        return INF

    def validate_raw(self, v):
        if v is INF or _is_nat(v):
            return
        raise SemiringError(f"counting value must be a natural or inf, got {v!r}")

    def grid(self):
        return (0, 1, 2, 3, INF)


BOOLEAN = BooleanSemiring()
TROPICAL = TropicalSemiring()
ARCTIC = ArcticSemiring()
COUNTING = CountingSemiring()

INSTANCES: dict[str, SemiringInstance] = {
    s.name: s for s in (BOOLEAN, TROPICAL, ARCTIC, COUNTING)
}


def instance_by_name(name: str) -> SemiringInstance:
    try:
        return INSTANCES[name]
    except (KeyError, TypeError):
        raise SemiringError(
            f"unknown semiring {name!r}; expected one of {sorted(INSTANCES)}"
        ) from None


def raw_to_json(v: Ext) -> int | str:
    """A raw value as JSON: integers as they are, the infinities as "inf" / "-inf"."""
    if v is INF:
        return "inf"
    if v is NEG_INF:
        return "-inf"
    return v


def raw_from_json(v) -> Ext:
    """Inverse of `raw_to_json`; anything else raises SemiringError."""
    if v == "inf":
        return INF
    if v == "-inf":
        return NEG_INF
    if isinstance(v, int):
        return v
    raise SemiringError(f"{v!r} is not an integer, 'inf' or '-inf'")


@dataclass(frozen=True, slots=True)
class SemiringValue:
    """A scalar of one concrete instance; arithmetic checks instance agreement.

    `instance.value(v)` validates v; the library builds the scalars it
    computes itself with `_scalar`, which trusts its raw value.
    """

    instance: SemiringInstance
    value: Ext

    def _check(self, other: "SemiringValue") -> None:
        if self.instance is not other.instance:
            raise SemiringError(
                f"mixed instances: {self.instance.name} and {other.instance.name}"
            )

    def __add__(self, other: "SemiringValue") -> "SemiringValue":
        self._check(other)
        return _scalar(self.instance, self.instance.add_raw(self.value, other.value))

    def __mul__(self, other: "SemiringValue") -> "SemiringValue":
        self._check(other)
        return _scalar(self.instance, self.instance.mul_raw(self.value, other.value))

    def star(self) -> "SemiringValue":
        return _scalar(self.instance, self.instance.star_raw(self.value))

    def omega(self) -> "OmegaValue":
        return _scalar(self.instance, self.instance.omega_raw(self.value))

    def is_zero(self) -> bool:
        # the infinities have no __eq__, so == is identity on them
        return self.value == self.instance.zero_raw()

    def is_one(self) -> bool:
        return self.value == self.instance.one_raw()

    def __repr__(self) -> str:
        return f"{self.instance.name}:{self.value!r}"


_new = object.__new__
_set_instance = SemiringValue.instance.__set__
_set_value = SemiringValue.value.__set__


def _scalar(instance: SemiringInstance, v: Ext) -> SemiringValue:
    """A SemiringValue without validation, for a raw value that the library
    computed itself from valid operands."""
    s = _new(SemiringValue)
    _set_instance(s, instance)
    _set_value(s, v)
    return s


# The semimodule side of every instance here is the semiring itself.
OmegaValue = SemiringValue
