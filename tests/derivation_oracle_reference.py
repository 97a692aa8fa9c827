"""The derivation oracle as it memoized leftmost derivations on whole stacks.

Its cost grows about fourfold per letter, so it is a reference for words of
up to six letters only: tests/test_system.py checks `oracle_coeff_gnf`
against it.
"""

from functools import lru_cache

from staromega.system import IllFormedSystem, is_gnf_algebraic


def oracle_coeff_gnf_reference(sys, component, w):
    if not is_gnf_algebraic(sys, allow_eps=True):
        raise IllFormedSystem("derivation oracle requires a Greibach-shaped system")
    inst = sys.instance
    rules = dict(zip(sys.variables, sys.rhs))

    @lru_cache(maxsize=None)
    def derive(stack, pos):
        if not stack:
            return inst.one if pos == len(w) else inst.zero
        head, rest = stack[0], stack[1:]
        acc = inst.zero
        for mono in rules[head].monomials:
            if not mono.word:
                acc = acc + mono.coeff * derive(rest, pos)
            elif pos < len(w) and mono.word[0] == w[pos]:
                acc = acc + mono.coeff * derive(tuple(mono.word[1:]) + rest, pos + 1)
        return acc

    return derive((sys.variables[component],), 0)
