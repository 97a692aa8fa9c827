"""Reference for the finite least solution: strata keyed by word tuples.

`reference_least_solution` is how `least_solution_finite` solved a system
before it coded the words of each stratum as integers.  It reads the same
empty-word weights, unit matrix and length bounds, and keys every stratum
by the word itself, so the tests compare the coded strata with it on
random systems, coefficient for coefficient and key for key.
"""

from staromega.matrix import _star
from staromega.semiring import _scalar
from staromega.series import TruncatedSeries
from staromega.system import AlgebraicSystem, eps_coefficients, productive_components


def reference_least_solution(sys: AlgebraicSystem, max_len: int) -> list[TruncatedSeries]:
    """Coefficients of the least solution on all words up to max_len.

    Solved one word length at a time (Kuich and Salomaa 1986).  The
    empty-word coefficients e come first, from `eps_coefficients`: the
    derivation weights of the empty word, exact on every instance, inf
    where a counting cycle of nullable variables or an arctic cycle that
    gains weight pumps them up.  A word of length L >= 1 splits
    over a monomial in one of two ways.  Either one variable takes all of
    it and every other symbol, a variable, takes the empty word: that is
    the unit matrix U, where U[i][j] sums c * prod e over the other
    variables of x_i's monomials.  Or every symbol takes a shorter factor:
    that is r[L], read off the words shorter than L.  So the words of
    length L are U* r[L] in every component, with one matrix star of U for
    all lengths, exact on every instance: a chain loop that pumps its
    weight up gives inf, where Kleene rounds never settle.  Unproductive
    variables are dropped first, and a monomial is read only at the lengths
    between its shortest and its longest word.
    """
    inst = sys.instance
    n = len(sys.variables)
    live = productive_components(sys)
    if not live:
        return [TruncatedSeries(inst, max_len, {})] * n
    add, mul, zero = inst.add_raw, inst.mul_raw, inst.zero_raw()
    ix = {v: i for i, v in enumerate(sys.variables)}
    # the productive monomials: a variable-free word goes straight into its
    # stratum, a terminal-free one (variable indices) feeds e and U, and one
    # with a variable that is not alone is read by length; shapes lists them
    # with (variable, number of terminals, variable indices) for each
    consts: dict[int, list[dict]] = {}
    free: list[list] = [[] for _ in range(n)]
    products, shapes = [], []
    nullable = False
    for i, (v, p) in enumerate(zip(sys.variables, sys.rhs)):
        if v not in live:
            continue
        for m in p.monomials:
            w = m.word
            uses = [ix[s] for s in w if s in ix]
            if not uses:
                if not w:
                    nullable = True
                    free[i].append((m.coeff.value, uses))
                elif len(w) <= max_len:
                    consts.setdefault(len(w), [{} for _ in range(n)])[i][w] = m.coeff.value
            elif all(sys.variables[j] in live for j in uses):
                if len(uses) == len(w):
                    free[i].append((m.coeff.value, uses))
                if len(w) > 1:
                    products.append((i, m.coeff.value, w))
            else:
                continue
            shapes.append((i, len(w) - len(uses), uses))
    eps = [e.value for e in eps_coefficients(sys)] if nullable else [zero] * n

    unit: dict[tuple[int, int], object] = {}
    for i, monos in enumerate(free):
        for c, uses in monos:
            if len(uses) > 1 and not nullable:
                continue
            for p, j in enumerate(uses):
                u = c
                for q, other in enumerate(uses):
                    if q != p:
                        u = mul(u, eps[other])
                if u != zero:
                    unit[(i, j)] = add(unit[(i, j)], u) if (i, j) in unit else u
    ustar = None
    if unit:
        rect = [[unit.get((i, j), zero) for j in range(n)] for i in range(n)]
        ustar = [
            [(j, u) for j, u in enumerate(row) if u != zero] for row in _star(inst, rect)
        ]

    progs = []
    if products:
        # the shortest and longest words of each component, capped at
        # max_len + 1, which stands for every longer length too.  A longest
        # length that still grows after as many rounds as there are
        # variables has a pump x =>* u x v, |uv| > 0, under it: unbounded
        cap = max_len + 1
        low, high = [cap] * n, [-1] * n
        rounds, changed = 0, True
        while changed:
            rounds, changed = rounds + 1, False
            for i, k, uses in shapes:
                if any(high[j] < 0 for j in uses):
                    continue
                shortest = k + sum(low[j] for j in uses)
                longest = k + sum(high[j] for j in uses)
                if shortest < low[i]:
                    low[i], changed = shortest, True
                if longest > high[i] and high[i] < cap:
                    high[i], changed = cap if rounds > n else min(longest, cap), True
        # per symbol: variable index or -1, the symbol, and the shortest and
        # longest lengths of the symbols after it
        for i, c, w in products:
            steps, lo, hi = [], 0, 0
            for s in reversed(w):
                j = ix.get(s, -1)
                steps.append((j, s, lo, hi))
                lo += low[j] if j >= 0 else 1
                hi += high[j] if j >= 0 else 1
            progs.append((i, c, lo, hi, steps[::-1]))

    # strata[i][L]: the words of length L in component i, raw coefficients
    strata = [[{(): e} if e != zero else {}] for e in eps]
    for length in range(1, max_len + 1) if progs else sorted(consts):
        rest = consts.pop(length, None) or [{} for _ in range(n)]
        for i, c, shortest, longest, steps in progs:
            if not shortest <= length <= longest:
                continue
            partial = {(): c}
            for j, s, lo, hi in steps:
                nxt: dict = {}
                if j < 0:
                    for w, v in partial.items():
                        lw = len(w) + 1
                        if lw + lo <= length <= lw + hi:
                            key = w + (s,)
                            nxt[key] = add(nxt[key], v) if key in nxt else v
                else:
                    comp = strata[j]
                    # a factor of length L is a unit step, in U
                    lo_j, hi_j = low[j], min(high[j], length - 1)
                    for w, v in partial.items():
                        lw = length - len(w)
                        for m in range(max(lo_j, lw - hi), min(hi_j, lw - lo) + 1):
                            for sw, sv in comp[m].items():
                                key = w + sw
                                val = mul(v, sv)
                                nxt[key] = add(nxt[key], val) if key in nxt else val
                partial = nxt
                if not partial:
                    break
            acc = rest[i]
            for w, v in partial.items():
                acc[w] = add(acc[w], v) if w in acc else v
        if ustar is not None:
            solved = []
            for row in ustar:
                acc = {}
                for j, u in row:
                    for w, v in rest[j].items():
                        val = mul(u, v)
                        acc[w] = add(acc[w], val) if w in acc else val
                solved.append(acc)
            rest = solved
        for comp, stratum in zip(strata, rest):
            comp.append(stratum)
    return [
        TruncatedSeries(inst, max_len, {
            w: _scalar(inst, v)
            for stratum in comp for w, v in stratum.items() if v != zero
        })
        for comp in strata
    ]
