"""Reference for the raw arithmetic of the tropical, arctic and counting
instances: the extended-integer helpers they called before each instance
wrote its `add_raw` / `mul_raw` out with direct infinity tests."""

from staromega.semiring import INF, NEG_INF


def ext_cmp(a, b) -> int:
    """Total order on extended integers: -inf < ints < inf."""
    if a is b:
        return 0
    if a is INF or b is NEG_INF:
        return 1
    if a is NEG_INF or b is INF:
        return -1
    return (a > b) - (a < b)


def ext_plus(a, b, neg_dominates: bool):
    """Arithmetic + on extended integers.

    neg_dominates resolves -inf + inf: True gives -inf (arctic multiplication,
    where -inf is the annihilating zero), False gives inf.
    """
    if a is NEG_INF or b is NEG_INF:
        if neg_dominates:
            return NEG_INF
        if a is INF or b is INF:
            return INF
        return NEG_INF
    if a is INF or b is INF:
        return INF
    return a + b


def counting_mul(a, b):
    # 0 annihilates even inf
    if a == 0 or b == 0:
        return 0
    if a is INF or b is INF:
        return INF
    return a * b


# instance name -> (add, mul) on raw values
REFERENCE = {
    "tropical": (
        lambda a, b: a if ext_cmp(a, b) <= 0 else b,
        lambda a, b: ext_plus(a, b, neg_dominates=False),
    ),
    "arctic": (
        lambda a, b: a if ext_cmp(a, b) >= 0 else b,
        lambda a, b: ext_plus(a, b, neg_dominates=True),
    ),
    "counting": (
        lambda a, b: ext_plus(a, b, neg_dominates=False),
        counting_mul,
    ),
}
