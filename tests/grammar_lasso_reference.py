"""Reference implementations of the grammar route's lasso analyses.

These are the Boolean support fixpoint and the capped certificate search
that `canonical_omega_lasso` used before it computed exact derivation
weights, the Jacobi segment table that `SegmentTable` used before it read
them off the quotient of a finite word, and the weighted saturation of
every (variable, position) pair with the z-coefficients evaluated on it,
as the route computed it before it built only what the start can use.
The closure construction is how the route read off letter-free z-steps
before `_search.lasso_value` summed them itself.  The tests compare the
exact route against them: the support fixpoint must equal the Boolean
projection of `support_triples`, a capped search sums a subset of the
runs, so its value must lie below the exact one in the natural order, the
Jacobi table must equal `SegmentTable` wherever it settles, the z-steps
must be those of the full saturation, and the value must be the closure
construction's.
"""

from idempotent_lasso_reference import HitEdge, lasso_value
from kleene_reference import RoundsDidNotSettle
from staromega import _search
from staromega._search import PositionAutomaton, solve_derivations
from staromega.matrix import _star
from staromega.semiring import _scalar
from staromega.system import _derivation_items


def z_steps(sys, pa, start):
    """(j, s) -> {(j2, t, consumed-a-letter): weight} of the engine, the
    z-steps that `canonical_omega_lasso` reads from the start, as scalars."""
    inst = sys.x.instance
    _, steps = _derivation_items(sys.x, pa, sys.rho, [start])
    return {
        node: {key: _scalar(inst, c) for key, c in outs.items()} for node, outs in steps.items()
    }


def _epsilon_closure_with_hits(inst, eps, m, k):
    """Closure of the empty-factor step matrix, split by Buchi visits en route.

    eps holds the nonzero empty-factor steps, keyed by (row, column).
    """
    size = 2 * m
    add = inst.add_raw
    rows = [[inst.zero_raw()] * size for _ in range(size)]
    for (j, j2), v in eps.items():
        for b in (0, 1):
            b2 = 1 if (b or j2 < k) else 0
            src, dst = j + b * m, j2 + b2 * m
            rows[src][dst] = add(rows[src][dst], v.value)
    star = _star(inst, rows)
    h0 = [[_scalar(inst, v) for v in row[:m]] for row in star[:m]]
    h1 = [[_scalar(inst, v) for v in row[m:]] for row in star[:m]]
    return h0, h1


def closure_omega_lasso(sys, k, component, w):
    """`canonical_omega_lasso` by closing the letter-free z-steps first.

    Letter-free steps keep the position and do not depend on it, so one
    matrix star closes them, keeping whether a Buchi z-variable was visited.
    Every edge of the closed graph is a closure followed by one letter step,
    and it hits when its closure or its target visits a Buchi z-variable.
    """
    inst, m = sys.x.instance, sys.m
    pa = PositionAutomaton.of(w)
    start = (component, pa.state_of(0))
    steps = z_steps(sys, pa, start)
    eps = {(j, j2): c for (j, _s), outs in steps.items()
           for (j2, _t, bit), c in outs.items() if not bit}
    if eps:
        hits = _epsilon_closure_with_hits(inst, eps, m, k)
        closure = [
            [(mid, bool(b), h[j][mid]) for b, h in enumerate(hits) for mid in range(m)
             if not h[j][mid].is_zero()]
            for j in range(m)
        ]
    else:
        closure = [[(j, False, inst.one)] for j in range(m)]
    edges = {}
    for j, s in steps:
        acc = {}
        for mid, hit, h in closure[j]:
            for (j2, t, bit), c in steps[(mid, s)].items():
                if bit:
                    key = ((j2, t), hit or j2 < k)
                    prev = acc.get(key)
                    acc[key] = h * c if prev is None else prev + h * c
        edges[(j, s)] = [(node, c.value, hit, True) for (node, hit), c in acc.items()]
    return _scalar(inst, _search.lasso_value(inst, edges, {start: inst.one_raw()}))


class JacobiSegmentTable:
    """Least-solution coefficients on the segments of one word, by Jacobi
    rounds from zero; raises RoundsDidNotSettle when the table still changes
    after max_iter rounds.

    Sparse: only nonzero coefficients are stored, indexed both by segment and
    by (variable, start) so polynomial evaluation only walks live entries.
    """

    def __init__(self, sys, word, max_iter=256):
        self.word = word
        self.var_set = set(sys.variables)
        n = len(word)
        self.table, self.by_start = {}, {}
        for _ in range(max_iter):
            nxt = {}
            for vi, v in enumerate(sys.variables):
                for i in range(n + 1):
                    for j, val in self.eval_poly_from(sys.rhs[vi], i, n).items():
                        if not val.is_zero():
                            nxt[(v, i, j)] = val
            if nxt == self.table:
                return
            self.table, self.by_start = nxt, {}
            for (v, i, j), val in nxt.items():
                self.by_start.setdefault((v, i), []).append((j, val))
        raise RoundsDidNotSettle("segment solution did not stabilize")

    def eval_poly_from(self, p, lo, hi_max):
        """All segment ends >= lo with their coefficients under p."""
        out = {}
        for mono in p.monomials:
            cur = {lo: mono.coeff}
            for sym in mono.word:
                nxt = {}
                if sym in self.var_set:
                    for pos, c in cur.items():
                        for end, t in self.by_start.get((sym, pos), ()):
                            add = c * t
                            prev = nxt.get(end)
                            nxt[end] = add if prev is None else prev + add
                else:
                    for pos, c in cur.items():
                        if pos < hi_max and self.word[pos] == sym:
                            prev = nxt.get(pos + 1)
                            nxt[pos + 1] = c if prev is None else prev + c
                cur = nxt
                if not cur:
                    break
            for end, c in cur.items():
                prev = out.get(end)
                out[end] = c if prev is None else prev + c
        return out


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

    Coefficients of the factors come from one `JacobiSegmentTable` over a
    sample u v^reps that covers every factor from every quotient position,
    which raises RoundsDidNotSettle when the sample's coefficients still change
    after max_iter rounds.
    """
    inst = sys.x.instance
    m = sys.m
    pa = PositionAutomaton.of(w)
    reps = (len(w.period) + factor_len) // len(w.period) + 2
    table = JacobiSegmentTable(sys.x, w.prefix + w.period * reps, max_iter)

    def poly_coeff(p, lo, hi):
        got = table.eval_poly_from(p, lo, hi).get(hi)
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
        is_anchor=lambda node: node[1] >= pa.prefix_len,
        is_buchi=lambda node: node[0] < k,
    )


def reference_weighted_support_triples(sys, pa):
    """(variable, s) -> {(t, consumed-a-letter): weight}, saturated at every
    (variable, position) pair.

    The weight is the sum over the derivations from the variable of words
    that lead position s of the quotient to t, split by whether the word is
    empty: the weighted product of the grammar with the quotient
    (Bar-Hillel, Perles and Shamir 1961; Goodman 1999).  An item is a
    variable fact (variable, s, t, bit) or, for monomials with more than two
    variable occurrences, a prefix fact ((monomial, length), s, t, bit)
    whose product already holds two operands, so every derivation term is
    (coefficient, item, item).  A monomial is read left to right from s:
    letters move the position, and at a variable the partial product waits
    for that variable's facts at the current position.  One worklist finds
    every item; a fact taken from it extends the products waiting for it,
    and a product that starts waiting joins the facts already taken, so
    every pair is joined once.  `solve_derivations` then weighs every item.
    """
    variables = set(sys.variables)
    monos = [
        (v, m.coeff.value, m.word) for v, p in zip(sys.variables, sys.rhs) for m in p.monomials
    ]
    ids: dict[tuple, int] = {}
    rules: list[list] = []
    work: list = []
    facts_at: dict[tuple[str, int], list] = {}
    waiting: dict[tuple[str, int], list] = {}

    def item(key, term) -> tuple[int, bool]:
        """The id of an item given one more derivation, and whether it is new."""
        i = ids.get(key)
        if i is not None:
            rules[i].append(term)
            return i, False
        ids[key] = i = len(rules)
        rules.append([term])
        return i, True

    def read(mi, j, s, t, bit, c, ops):
        """Read monomial mi on from symbol j at position t; the symbols
        before j lead s to t with product c (None: the unit) times the items
        in ops, at most two."""
        v, _c, word = monos[mi]
        while j < len(word) and word[j] not in variables:
            if pa.letter(t) != word[j]:
                return
            t, bit, j = pa.advance(t), True, j + 1
        term = (c,) + ops + (None,) * (2 - len(ops))
        if j == len(word):
            if item((v, s, t, bit), term)[1]:
                work.append((v, s, t, bit))
            return
        if len(ops) == 2:
            i, fresh = item(((mi, j), s, t, bit), term)
            if not fresh:
                return
            c, ops = None, (i,)
        waiting.setdefault((word[j], t), []).append((mi, j, s, bit, c, ops))
        for t2, b2, x in facts_at.get((word[j], t), ()):
            read(mi, j + 1, s, t2, bit or b2, c, ops + (x,))

    for mi in range(len(monos)):
        for s in range(pa.size):
            read(mi, 0, s, s, False, monos[mi][1], ())
    while work:
        v, s, t, bit = key = work.pop()
        x = ids[key]
        # a product that starts waiting here during the loop is joined by it
        for mi, j, s0, b0, c, ops in waiting.get((v, s), ()):
            read(mi, j + 1, s0, t, b0 or bit, c, ops + (x,))
        facts_at.setdefault((v, s), []).append((t, bit, x))

    value = solve_derivations(sys.instance, rules)
    out = {(v, s): {} for v in sys.variables for s in range(pa.size)}
    for (head, s, t, bit), i in ids.items():
        if isinstance(head, str):
            out[(head, s)][(t, bit)] = _scalar(sys.instance, value[i])
    return out


def reference_z_steps(sys, pa, sigma, start):
    """(j, s) -> {(j2, t, consumed-a-letter): weight} at the nodes that the
    start reaches: the z-coefficients evaluated on the derivation weights
    sigma of `reference_weighted_support_triples`, one monomial at a time
    over a frontier of (position, bit) sums."""
    variables = set(sys.x.variables)
    steps = {}
    todo = [start]
    while todo:
        j, s = node = todo.pop()
        if node in steps:
            continue
        out = {}
        for j2, p in sys.rho[j].items():
            for mono in p.monomials:
                frontier = {(s, False): mono.coeff}
                for sym in mono.word:
                    nxt = {}
                    for (t, b), c in frontier.items():
                        if sym in variables:
                            moves = [((t2, b or b2), c * c2) for (t2, b2), c2 in sigma[(sym, t)].items()]
                        elif pa.letter(t) == sym:
                            moves = [((pa.advance(t), True), c)]
                        else:
                            continue
                        for key, add in moves:
                            prev = nxt.get(key)
                            nxt[key] = add if prev is None else prev + add
                    frontier = nxt
                for (t, b), c in frontier.items():
                    prev = out.get((j2, t, b))
                    out[(j2, t, b)] = c if prev is None else prev + c
        steps[node] = out
        todo.extend((j2, t) for j2, t, _b in out)
    return steps
