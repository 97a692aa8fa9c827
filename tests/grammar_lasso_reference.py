"""Reference implementations of the grammar route's lasso analyses.

These are the Boolean support fixpoint and the capped certificate search
that `canonical_omega_lasso` used before it computed exact derivation
weights.  The tests compare the exact route against them: the support
fixpoint must equal the Boolean projection of `support_triples`, and a
capped search sums a subset of the runs, so its value must lie below the
exact one in the natural order.
"""

from staromega._search import HitEdge, PositionAutomaton, lasso_value
from staromega.system import SegmentTable, _epsilon_closure_with_hits


def reference_support_triples(sys, pa):
    """(variable, state) -> reachable (state, consumed-a-letter) derivation
    facts, by round-robin rounds until nothing changes."""
    gen = {(v, s): set() for v in sys.variables for s in range(pa.size)}
    changed = True
    while changed:
        changed = False
        for vi, v in enumerate(sys.variables):
            for s in range(pa.size):
                res = reference_chain_states(sys.rhs[vi], s, pa, gen, set(sys.variables))
                tgt = gen[(v, s)]
                before = len(tgt)
                tgt |= res
                if len(tgt) != before:
                    changed = True
    return gen


def reference_chain_states(p, start, pa, gen, variables):
    """The (state, consumed-a-letter) facts that p's monomials reach from start."""
    out = set()
    for mono in p.monomials:
        frontier = {(start, False)}
        for sym in mono.word:
            nxt = set()
            if sym in variables:
                for (s, b) in frontier:
                    for (s2, b2) in gen[(sym, s)]:
                        nxt.add((s2, b or b2))
            else:
                for (s, b) in frontier:
                    if pa.letter(s) == sym:
                        nxt.add((pa.advance(s), True))
            frontier = nxt
            if not frontier:
                break
        out |= frontier
    return out


def reference_canonical_search(sys, k, component, w, factor_len, max_iter=256):
    """Sum over the runs whose factors are at most factor_len letters long.

    Coefficients of the factors come from one `SegmentTable` over a sample
    u v^reps that covers every factor from every quotient position, which
    raises NotStabilized when the sample's coefficients still change after
    max_iter rounds.
    """
    inst = sys.instance
    m = sys.m
    pa = PositionAutomaton.of(w)
    reps = (len(w.period) + factor_len) // len(w.period) + 2
    table = SegmentTable(sys.x_part, w.prefix + w.period * reps, max_iter)

    def poly_coeff(p, lo, hi):
        got = table._eval_poly_from(p, lo, hi).get(hi)
        return inst.zero if got is None else got

    def advance_by(s, length):
        for _ in range(length):
            s = pa.advance(s)
        return s

    eps = {}
    for i, row in enumerate(sys.rho):
        for j, p in row.items():
            c = poly_coeff(p, 0, 0)
            if not c.is_zero():
                eps[(i, j)] = c
    hits = _epsilon_closure_with_hits(inst, eps, m, k) if eps else None

    edges = {(j, s): [] for j in range(m) for s in range(pa.size)}
    for s in range(pa.size):
        for length in range(1, factor_len + 1):
            target = advance_by(s, length)
            amat = {}
            for i, row in enumerate(sys.rho):
                for j, p in row.items():
                    c = poly_coeff(p, s, s + length)
                    if not c.is_zero():
                        amat[(i, j)] = c
            if hits is None:
                for (i, j2), c in amat.items():
                    edges[(i, s)].append(HitEdge((j2, target), c, False))
                continue
            for bit in (False, True):
                h = hits[1 if bit else 0]
                acc = {}
                for (mid, j2), c in amat.items():
                    for j in range(m):
                        hv = h[j][mid]
                        if hv.is_zero():
                            continue
                        key = (j, j2)
                        add = hv * c
                        prev = acc.get(key)
                        acc[key] = add if prev is None else prev + add
                for (j, j2), c in acc.items():
                    edges[(j, s)].append(HitEdge((j2, target), c, bit))

    return lasso_value(
        inst,
        edges,
        {(component, pa.state_of(0)): inst.one},
        is_anchor=lambda node: pa.is_periodic(node[1]),
        is_buchi=lambda node: node[0] < k,
    )
