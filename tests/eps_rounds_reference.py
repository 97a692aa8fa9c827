"""Reference for the empty-word weights: global Kleene rounds.

This is how `system._eps_raw` solved the empty-word part before it
solved it one strongly connected component at a time.  It raises
NotStabilized where the rounds still move after max_iter rounds, which
every counting system with a cycle among its nullable variables does, so
the tests compare the exact solver with it only where it settles.
"""

from staromega.system import NotStabilized


def global_eps_rounds(inst, rules, max_iter):
    """Raw least solution of x_i = sum of c * prod x_j over rules[i], a list
    of (raw coefficient, variable indices), by Kleene rounds from zero."""
    add, mul, zero = inst.add_raw, inst.mul_raw, inst.zero_raw()
    vals = [zero] * len(rules)
    for _ in range(max_iter):
        nxt = []
        for monos in rules:
            acc = zero
            for prod, word in monos:
                for j in word:
                    prod = mul(prod, vals[j])
                acc = add(acc, prod)
            nxt.append(acc)
        if nxt == vals:
            return vals
        vals = nxt
    raise NotStabilized("empty-word coefficients did not stabilize")
