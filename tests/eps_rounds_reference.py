"""Reference for the empty-word weights: global Kleene rounds.

This is how the empty-word part was solved before it was solved one
strongly connected component at a time, and then read off the derivation
weights of the empty word.  `global_eps_rounds` raises RoundsDidNotSettle
where the rounds still move after max_iter rounds, which every counting
system with a cycle among its nullable variables does, and so does an
arctic cycle that gains weight; `eps_rounds` gives the values after a
fixed number of rounds, to tell the variables that still move.
"""

from kleene_reference import RoundsDidNotSettle


def _round(inst, rules, vals):
    add, mul, zero = inst.add_raw, inst.mul_raw, inst.zero_raw()
    nxt = []
    for monos in rules:
        acc = zero
        for prod, word in monos:
            for j in word:
                prod = mul(prod, vals[j])
            acc = add(acc, prod)
        nxt.append(acc)
    return nxt


def eps_rounds(inst, rules, rounds):
    """The raw values after the given number of Kleene rounds from zero."""
    vals = [inst.zero_raw()] * len(rules)
    for _ in range(rounds):
        vals = _round(inst, rules, vals)
    return vals


def global_eps_rounds(inst, rules, max_iter):
    """Raw least solution of x_i = sum of c * prod x_j over rules[i], a list
    of (raw coefficient, variable indices), by Kleene rounds from zero."""
    vals = [inst.zero_raw()] * len(rules)
    for _ in range(max_iter):
        nxt = _round(inst, rules, vals)
        if nxt == vals:
            return vals
        vals = nxt
    raise RoundsDidNotSettle("empty-word coefficients did not stabilize")
