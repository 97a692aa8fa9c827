import copy
import dataclasses
import pickle
from dataclasses import dataclass

import pytest

from staromega.semiring import (
    ARCTIC,
    BOOLEAN,
    COUNTING,
    INF,
    INSTANCES,
    NEG_INF,
    TROPICAL,
    OmegaValue,
    SemiringError,
    SemiringInstance,
    SemiringValue,
    _scalar,
)

ALL = [BOOLEAN, TROPICAL, ARCTIC, COUNTING]


def grid(inst):
    return [inst.value(v) for v in inst.grid()]


# -- axioms, exhaustively on the value grids ----------------------------------


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_semiring_axioms_on_grid(inst):
    g = grid(inst)
    zero, one = inst.zero, inst.one
    for a in g:
        assert a + zero == a
        assert zero + a == a
        assert a * one == a
        assert one * a == a
        assert a * zero == zero
        assert zero * a == zero
        for b in g:
            assert a + b == b + a
            assert a * b == b * a  # all four instances are commutative
            for c in g:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_idempotent_on_every_instance_but_counting(inst):
    # a + a = a on Boolean, tropical and arctic, and 1 + 1 = 2 on counting
    assert all(a + a == a for a in grid(inst)) == (inst is not COUNTING)


# -- star and omega: closed forms against truncated partial sums --------------


def star_oracle(a, rounds=40):
    """Partial sums of powers; INF expected when they keep moving."""
    inst = a.instance
    acc = inst.one
    power = inst.one
    last = None
    for _ in range(rounds):
        power = power * a
        nxt = acc + power
        if nxt == acc:
            return acc
        last, acc = acc, nxt
    return inst.value(INF)


def omega_oracle(a, rounds=40):
    """Limit of prefix products paired with the remaining tail behavior.

    For these carriers the infinite product stabilizes exactly when the
    prefix products do; otherwise it runs off to the absorbing element.
    """
    inst = a.instance
    acc = a
    for _ in range(rounds):
        nxt = acc * a
        if nxt == acc:
            return acc
        acc = nxt
    return inst.value(INF)


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_star_matches_partial_sums(inst):
    for a in grid(inst):
        assert a.star() == star_oracle(a), a


def test_star_closed_form_examples():
    assert BOOLEAN.value(0).star() == BOOLEAN.value(1)
    assert TROPICAL.value(3).star() == TROPICAL.value(0)
    assert COUNTING.value(0).star() == COUNTING.value(1)
    assert COUNTING.value(2).star() == COUNTING.value(INF)
    assert ARCTIC.value(NEG_INF).star() == ARCTIC.value(0)
    assert ARCTIC.value(2).star() == ARCTIC.value(INF)


def test_omega_examples():
    assert TROPICAL.value(0).omega() == TROPICAL.value(0)
    assert TROPICAL.value(2).omega() == TROPICAL.value(INF)
    assert BOOLEAN.value(1).omega() == BOOLEAN.value(1)
    assert BOOLEAN.value(0).omega() == BOOLEAN.value(0)
    assert ARCTIC.value(NEG_INF).omega() == ARCTIC.value(NEG_INF)
    assert COUNTING.value(1).omega() == COUNTING.value(1)
    assert COUNTING.value(2).omega() == COUNTING.value(INF)


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_omega_matches_partial_products(inst):
    for a in grid(inst):
        got = a.omega()
        oracle = omega_oracle(a)
        # stabilized prefix products pin the value; divergence means the
        # additively absorbing element for these carriers
        assert got == oracle, (a, got, oracle)


# -- quemiring -----------------------------------------------------------------
# The pair algebra of finite and omega parts, kept here as the reference its
# laws are checked on: the library folds quemiring systems into mixed ones
# and never multiplies pairs itself.


@dataclass(frozen=True)
class QuemiringValue:
    """Pair (finite part, omega part) with the semidirect product multiplication."""

    finite_part: SemiringValue
    omega_part: OmegaValue

    def __post_init__(self):
        if self.finite_part.instance is not self.omega_part.instance:
            raise SemiringError("quemiring parts must share one instance")

    @property
    def instance(self) -> SemiringInstance:
        return self.finite_part.instance

    def __add__(self, other: "QuemiringValue") -> "QuemiringValue":
        return QuemiringValue(
            self.finite_part + other.finite_part, self.omega_part + other.omega_part
        )

    def __mul__(self, other: "QuemiringValue") -> "QuemiringValue":
        return QuemiringValue(
            self.finite_part * other.finite_part,
            self.omega_part + self.finite_part * other.omega_part,
        )

    def otimes(self) -> "QuemiringValue":
        """(s, v) to (s*, s^omega + s* v), the natural star of the pair algebra."""
        s, v = self.finite_part, self.omega_part
        return QuemiringValue(s.star(), s.omega() + s.star() * v)


def quemiring_zero(instance: SemiringInstance) -> QuemiringValue:
    return QuemiringValue(instance.zero, instance.zero)


def quemiring_one(instance: SemiringInstance) -> QuemiringValue:
    return QuemiringValue(instance.one, instance.zero)


def quemiring_otimes(q: QuemiringValue) -> QuemiringValue:
    return q.otimes()


def test_quemiring_operations():
    t = TROPICAL
    x = QuemiringValue(t.value(1), t.value(2))
    y = QuemiringValue(t.value(0), t.value(5))
    s = x + y
    assert s.finite_part == t.value(0) and s.omega_part == t.value(2)
    p = x * y
    # (s v) (s' v') = (s s', v + s v')
    assert p.finite_part == t.value(1)
    assert p.omega_part == t.value(2) + t.value(1) * t.value(5)
    assert quemiring_zero(t) + x == x
    assert quemiring_one(t) * x == x


def test_quemiring_otimes_examples():
    t, b = TROPICAL, BOOLEAN
    z = quemiring_otimes(quemiring_zero(b))
    assert (z.finite_part, z.omega_part) == (b.one, b.zero)
    q = quemiring_otimes(QuemiringValue(b.value(1), b.value(0)))
    assert (q.finite_part.value, q.omega_part.value) == (1, 1)
    q = quemiring_otimes(QuemiringValue(t.value(0), t.value(5)))
    assert (q.finite_part.value, q.omega_part.value) == (0, 0)


def test_quemiring_mixed_instances_rejected():
    with pytest.raises(SemiringError):
        QuemiringValue(TROPICAL.value(0), BOOLEAN.value(1))


from hypothesis import given, strategies as st


@given(st.sampled_from(ALL).flatmap(
    lambda inst: st.tuples(
        st.sampled_from(inst.grid()), st.sampled_from(inst.grid())
    ).map(lambda ab: QuemiringValue(inst.value(ab[0]), inst.value(ab[1])))
))
def test_quemiring_otimes_unfolds(q):
    # q^x = 1 + q q^x, the pair-level counterpart of the scalar star unfolding
    inst = q.instance
    assert q.otimes() == quemiring_one(inst) + q * q.otimes()


# -- families and misc ----------------------------------------------------------


def test_sum_family():
    # an n-ary sum starts from zero, so the empty family gives zero
    assert sum([], TROPICAL.zero) == TROPICAL.value(INF)
    assert sum([TROPICAL.value(v) for v in (3, 1, 2)], TROPICAL.zero) == TROPICAL.value(1)
    assert sum([ARCTIC.value(v) for v in (3, 1, 2)], ARCTIC.zero) == ARCTIC.value(3)
    with pytest.raises(SemiringError):
        sum([BOOLEAN.value(1)], TROPICAL.zero)


def test_carrier_validation():
    with pytest.raises(SemiringError):
        TROPICAL.value(NEG_INF)
    with pytest.raises(SemiringError):
        BOOLEAN.value(2)
    for inst in ALL:
        # equal to a carrier value, but not exact
        with pytest.raises(SemiringError):
            inst.value(1.0)
    with pytest.raises(SemiringError):
        COUNTING.value(-1)
    ARCTIC.value(NEG_INF)  # legal only here


def test_value_parsing_and_formatting():
    assert TROPICAL.parse_value("inf").value is INF
    assert ARCTIC.parse_value("-inf").value is NEG_INF
    assert COUNTING.parse_value("17").value == 17
    with pytest.raises(SemiringError):
        TROPICAL.parse_value("x")
    assert INSTANCES["tropical"] is TROPICAL


def test_infinities_compare_above_and_below_large_integers():
    big = 10**31
    assert ARCTIC.add_raw(big, INF) is INF
    assert ARCTIC.add_raw(INF, big) is INF
    assert ARCTIC.add_raw(big, NEG_INF) == big
    assert TROPICAL.add_raw(big, INF) == big
    assert TROPICAL.add_raw(INF, big) == big
    assert TROPICAL.add_raw(big, big + 1) == big


def test_natural_order():
    # a <= b in the natural order of the additive monoid iff a + b = b
    leq = lambda a, b: a + b == b
    assert leq(TROPICAL.value(INF), TROPICAL.value(3))
    assert leq(TROPICAL.value(5), TROPICAL.value(3))
    assert not leq(TROPICAL.value(3), TROPICAL.value(5))
    assert leq(BOOLEAN.value(0), BOOLEAN.value(1))


# -- inlined raw arithmetic and the fused row kernels ---------------------------


def carrier_values(inst):
    """The grid plus a small and a huge integer where the carrier has them."""
    return list(inst.grid()) + ([] if inst is BOOLEAN else [17, 10**40])


def same(x, y):
    return x is y or (type(x) is type(y) is int and x == y)


@pytest.mark.parametrize("inst", [TROPICAL, ARCTIC, COUNTING], ids=lambda i: i.name)
def test_inlined_arithmetic_matches_the_extended_integer_reference(inst):
    from ext_arith_reference import REFERENCE

    add, mul = REFERENCE[inst.name]
    values = carrier_values(inst)
    assert (NEG_INF in values) == (inst is ARCTIC)
    for a in values:
        for b in values:
            assert same(inst.add_raw(a, b), add(a, b)), (a, b)
            assert same(inst.mul_raw(a, b), mul(a, b)), (a, b)


def generic_axpy(inst, y, left, z):
    return [inst.add_raw(a, inst.mul_raw(left, b)) for a, b in zip(y, z)]


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
@given(data=st.data())
def test_row_kernel_matches_the_generic_comprehension(inst, data):
    values = carrier_values(inst)
    lefts = [v for v in values if v != inst.zero_raw()]
    # INF is a left factor where it is not the zero
    assert (INF in lefts) == (inst in (ARCTIC, COUNTING))
    n = data.draw(st.integers(0, 12))
    y = data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    z = data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    for left in lefts:
        got = inst.axpy_raw(list(y), left, tuple(z))
        want = generic_axpy(inst, y, left, z)
        assert len(got) == len(want)
        assert all(map(same, got, want)), (y, left, z, got, want)


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
@given(data=st.data())
def test_concatenation_kernel_matches_the_generic_body(inst, data):
    # strata of coded words with nonzero values, into an output that may
    # hold some of the keys already; the generic body adds with add_raw
    values = [v for v in carrier_values(inst) if v != inst.zero_raw()]
    strata = st.dictionaries(st.integers(0, 15), st.sampled_from(values), max_size=6)
    out, left, right = data.draw(strata), data.draw(strata), data.draw(strata)
    scale = data.draw(st.sampled_from([1, 2, 4]))
    got, want = dict(out), dict(out)
    inst.concat_raw(got, left, scale, right)
    SemiringInstance.concat_raw(inst, want, left, scale, right)
    assert got.keys() == want.keys()
    assert all(same(got[key], want[key]) for key in got), (out, left, scale, right)


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_is_zero_on_every_grid_value(inst):
    # the values hold inf where the carrier has it, and -inf in arctic
    for v in carrier_values(inst):
        assert inst.value(v).is_zero() == same(v, inst.zero_raw()), v
    assert inst.zero.is_zero() and not inst.one.is_zero()


# -- scalars: slotted, frozen, shared zero and one ------------------------------


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_scalars_are_frozen_and_slotted(inst):
    v = inst.value(inst.grid()[-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.value = inst.one_raw()
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.instance = BOOLEAN
    assert not hasattr(v, "__dict__")


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_scalar_equality_and_hash_by_instance_and_value(inst):
    values = inst.grid()
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (inst.value(a) == inst.value(b)) == (i == j), (a, b)
        assert hash(inst.value(a)) == hash(inst.value(a))
        assert len({inst.value(a), inst.value(a)}) == 1
    # equal raw values of different instances stay different scalars
    assert TROPICAL.value(0) != ARCTIC.value(0) and BOOLEAN.value(1) != COUNTING.value(1)


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_scalars_survive_deepcopy_and_pickle(inst):
    for v in grid(inst) + [inst.zero, inst.one]:
        for again in (copy.deepcopy(v), copy.copy(v), pickle.loads(pickle.dumps(v))):
            assert again == v and hash(again) == hash(v)
            assert again.instance is inst
            if not isinstance(v.value, int):
                assert again.value is v.value
    assert pickle.loads(pickle.dumps(inst)) is inst and copy.deepcopy(inst) is inst


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_trusted_scalar_equals_the_validated_value(inst):
    for v in inst.grid():
        fast = _scalar(inst, v)
        assert type(fast) is SemiringValue
        assert fast == inst.value(v) and hash(fast) == hash(inst.value(v))
        assert repr(fast) == repr(inst.value(v))


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_zero_and_one_are_stored_once_per_instance(inst):
    assert inst.zero is inst.zero and inst.one is inst.one
    assert inst.zero == inst.value(inst.zero_raw()) and inst.one == inst.value(inst.one_raw())
