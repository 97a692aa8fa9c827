"""Reference implementations of the automaton route's pop summaries.

`RunAnalysis` is the post* saturation that computed the automaton route
before it ran on the grammar route's derivation items, and
`pushdown_lasso_value` its read-off; `reference_omega_value` is the value
they give.  `reference_saturate` is the weighted saturation of
`RunAnalysis` before it was demand-driven: it builds the pop facts of every
(node, stack symbol) pair that a pop step starts, wanted or not.
`round_robin_summaries` is the Boolean analysis before the worklist.  Both
read the steps of every state at every position, straight from the matrix
blocks.  The tests compare the demand-driven saturation against both: at
the nodes it reached, its level edges must be the same, and its pop facts
must be theirs at the demanded pairs.
"""

from staromega._search import PositionAutomaton, lasso_value, solve_derivations
from staromega.pda import _pops, transpose
from staromega.semiring import _scalar


def solve_scalars(instance, rules):
    """`solve_derivations` of rules whose constants are scalars, as scalars."""
    raw = [[(None if c is None else c.value, a, b) for c, a, b in terms] for terms in rules]
    return [_scalar(instance, v) for v in solve_derivations(instance, raw)]


def block_steps(ra, block):
    """Steps (p, q, c) of one block per position, for every state p."""
    pa = ra.pa
    out = {s: [] for s in range(pa.size)}
    for s in range(pa.size):
        letter = pa.letter(s)
        for p, row in sorted(block.items()):
            out[s] += [(p, q, row[q][letter]) for q in sorted(row) if letter in row[q]]
    return out


def neutral_steps(ra):
    """Neutral steps (p, q, c) per position, for every state."""
    return block_steps(ra, ra.m.m_eps_eps)


def symbol_steps(ra, blocks):
    """Steps (p, sym, q, c) of blocks by stack symbol per position, for every
    state."""
    out = {s: [] for s in range(ra.pa.size)}
    for sym, block in sorted(blocks.items()):
        for s, steps in block_steps(ra, block).items():
            out[s] += [(p, sym, q, c) for p, q, c in steps]
    return out


def push_steps(ra):
    """Push steps (p, sym, q, c) per position, for every state."""
    return symbol_steps(ra, ra.m.m_eps_push)


def pop_steps(ra):
    """Pop steps (p, sym, q, c) per position, for every state: those at nodes
    the starts do not reach only derive facts that no level edge of a
    reached node joins."""
    return symbol_steps(ra, {sym: transpose(cols) for sym, cols in ra.m.pop_columns.items()})


def reference_saturate(ra):
    """Level edges and every pop fact with their derivations, then their
    weights.  Returns level_w, pop_sum, level1 and raw_push as
    `RunAnalysis` computed them before pop facts were built on demand."""
    pa, hit = ra.pa, ra._hit
    neutral, push, pop = neutral_steps(ra), push_steps(ra), pop_steps(ra)
    pop_sum, level1, raw_push = {}, {}, {}
    facts_at, edges_into, pushes_into = {}, {}, {}
    ids, rules, work = {}, [], []

    def derive(node, sym, target, term):
        key = (node, sym, target)
        i = ids.get(key)
        if i is not None:
            rules[i].append(term)
            return
        ids[key] = len(rules)
        rules.append([term])
        work.append(key)
        if sym is None:
            level1.setdefault(node, set()).add(target)
        else:
            pop_sum.setdefault((node[0], sym, node[1]), set()).add(target)

    for s in range(pa.size):
        s2 = pa.advance(s)
        for (p, q, c) in neutral[s]:
            derive((p, s), None, (q, s2, hit(q)), (c, None, None))
        for (p, sym, q, c) in pop[s]:
            derive((p, s), sym, (q, s2, hit(q)), (c, None, None))
        for (p, delta, q, c) in push[s]:
            pushes_into.setdefault((q, delta, s2), []).append(((p, s), c))
            raw_push.setdefault((p, s), set()).add((q, s2, hit(q)))
    while work:
        key = work.pop()
        i = ids[key]
        node, sym, (q, t, bit) = key
        if sym is None:
            for sym2, (r, t2, h), f in facts_at.get((q, t), ()):
                derive(node, sym2, (r, t2, bit or h), (None, i, f))
            edges_into.setdefault((q, t), []).append((node, bit, i))
            continue
        p, s = node
        for src, c in pushes_into.get((p, sym, s), ()):
            derive(src, None, (q, t, bit or hit(p)), (c, i, None))
        for src, h, e in edges_into.get(node, ()):
            derive(src, sym, (q, t, h or bit), (None, e, i))
        facts_at.setdefault(node, []).append((sym, (q, t, bit), i))

    value = solve_scalars(ra.a.instance, rules)
    level_w = {}
    for (node, sym, (q, t, bit)), i in ids.items():
        if sym is None:
            level_w.setdefault(node, []).append((q, t, value[i], bit))
    return level_w, pop_sum, level1, raw_push


def round_robin_summaries(ra):
    """Reference: pop summaries and level edges by round-robin fixpoint.

    The analysis as it was before the worklist: every round reapplies the
    pop, neutral and push rules at every position and stack symbol until no
    set grows; level1 is then read off the finished summaries.
    """
    pa, hit = ra.pa, ra._hit
    neutral, push, pop = neutral_steps(ra), push_steps(ra), pop_steps(ra)
    pop_sum = {}

    def get(key):
        return pop_sum.setdefault(key, set())

    changed = True
    while changed:
        changed = False
        for s in range(pa.size):
            s2 = pa.advance(s)
            for (p, sym, q, _c) in pop[s]:
                fact = (q, s2, hit(q))
                tgt = get((p, sym, s))
                if fact not in tgt:
                    tgt.add(fact)
                    changed = True
            for (p, q, _c) in neutral[s]:
                for sym in ra.m.stack_alphabet:
                    tgt = get((p, sym, s))
                    before = len(tgt)
                    tgt |= {(r, t, h or hit(q)) for (r, t, h) in pop_sum.get((q, sym, s2), ())}
                    if len(tgt) != before:
                        changed = True
            for (p, delta, q, _c) in push[s]:
                inner = tuple(pop_sum.get((q, delta, s2), ()))
                if not inner:
                    continue
                for sym in ra.m.stack_alphabet:
                    tgt = get((p, sym, s))
                    before = len(tgt)
                    for (r, t1, h1) in inner:
                        for (r2, t2, h2) in tuple(pop_sum.get((r, sym, t1), ())):
                            tgt.add((r2, t2, h1 or h2 or hit(q)))
                    if len(tgt) != before:
                        changed = True
    level1, raw_push = {}, {}
    for s in range(pa.size):
        s2 = pa.advance(s)
        for (p, q, _c) in neutral[s]:
            level1.setdefault((p, s), set()).add((q, s2, hit(q)))
        for (p, delta, q, _c) in push[s]:
            raw_push.setdefault((p, s), set()).add((q, s2, hit(q)))
            for (r, t, h) in pop_sum.get((q, delta, s2), ()):
                level1.setdefault((p, s), set()).add((r, t, h or hit(q)))
    return {k: v for k, v in pop_sum.items() if v}, level1, raw_push


def reached_closure(ra, starts, level1, raw_push):
    """(state, position) nodes that a run from the (state, stack) starts
    enters: the start nodes closed under the reference's level edges and
    pushes, and under the pops of the start stacks' symbols."""
    pa = ra.pa
    syms = {sym for _q, stack in starts for sym in stack}
    pops = {}
    for s, steps in pop_steps(ra).items():
        for (p, sym, q, _c) in steps:
            if sym in syms:
                pops.setdefault((p, s), set()).add((q, pa.advance(s)))
    seen = {(q, pa.state_of(0)) for q, _stack in starts}
    todo = list(seen)
    while todo:
        node = todo.pop()
        outs = {(q, t) for (q, t, _h) in level1.get(node, ())}
        outs |= {(q, t) for (q, t, _h) in raw_push.get(node, ())}
        for nxt in (outs | pops.get(node, set())) - seen:
            seen.add(nxt)
            todo.append(nxt)
    return seen


def demanded_pairs(ra, level1):
    """(state, sym, position) of every push target of a reached node, closed
    under level edges."""
    pa = ra.pa
    seen = set()
    todo = []
    for s, steps in push_steps(ra).items():
        for (p, delta, q, _c) in steps:
            if (p, s) in ra.reached:
                todo.append((q, delta, pa.advance(s)))
    while todo:
        pair = todo.pop()
        if pair in seen:
            continue
        seen.add(pair)
        q, sym, t = pair
        todo.extend((r, sym, t2) for (r, t2, _h) in level1.get((q, t), ()))
    return seen


def at_reached(ra, by_node):
    """The entries of a map keyed by (state, position) at the reached nodes."""
    return {node: v for node, v in by_node.items() if node in ra.reached}


def level1_of(ra):
    """The Boolean projection of the level edges: (state, position) ->
    {(q, t, bit)}."""
    return {node: {(q, t, bit) for q, t, _c, bit in outs} for node, outs in ra.level_w.items()}


def raw_push_of(ra):
    """The Boolean projection of the push steps at the reached nodes, popped
    or not: (state, position) -> {(q, t, hit)}."""
    return {node: {(q, t, hit) for q, t, _c, hit in outs} for node, outs in ra.push_w.items()}


def pop_sum_of(ra):
    """The Boolean projection of the pop facts: (state, sym, position) ->
    {(r, t, bit)}."""
    out = {}
    for (p, s), sym, target in ra.item_ids:
        if sym is not None:
            out.setdefault((p, sym, s), set()).add(target)
    return out


def assert_summaries_match(ra, reference):
    """level1 and raw_push equal the reference's at the reached nodes, and
    pop_sum equals its pop facts at the demanded pairs."""
    pop_sum, level1, raw_push = reference
    assert level1_of(ra) == at_reached(ra, level1)
    assert raw_push_of(ra) == at_reached(ra, raw_push)
    wanted = demanded_pairs(ra, level1)
    assert pop_sum_of(ra) == {k: v for k, v in pop_sum.items() if k in wanted}


def sorted_level_w(level_w):
    """level_w with each node's out-edges in one order, to compare as multisets."""
    return {
        node: sorted(outs, key=lambda e: (e[0], e[1], e[3], str(e[2].value)))
        for node, outs in level_w.items()
    }


def reference_omega_value(a, w, starts):
    """The automaton route's value from weighted (state, stack) starts, by
    `RunAnalysis` and `pushdown_lasso_value`."""
    ra = RunAnalysis(a, w, starts)
    return pushdown_lasso_value(a.instance, ra.pa, ra.level_w, ra.push_w, ra.pop_w, starts)


def pushdown_lasso_value(instance, pa, level, push, pop, starts):
    """Omega value of a pushdown automaton's runs over the quotient `pa`.

    level, push and pop map a (state, position) node to its solved level
    edges, its pushes and (by stack symbol) its pops, each an out-edge
    (state, position, weight, hit) whose hit bit covers its target.  Every
    infinite run splits at the points where the stack never again gets
    lower into level edges and pushes that are never popped, after popping
    some of its start stack's cells one at a time.  So its runs are the
    paths of one graph over (state, position, remaining start-stack cells),
    started at the weighted (state, stack) starts; a push leaves the start
    stack behind for good.
    """
    s0 = pa.state_of(0)
    sources = {(q, s0, tuple(stack)): c.value for (q, stack), c in starts.items()}
    edges = {}
    todo = list(sources)
    while todo:
        node = todo.pop()
        if node in edges:
            continue
        p, s, rest = node
        outs = [((q, t, rest), c.value, h, True) for q, t, c, h in level.get((p, s), ())]
        outs += [((q, t, ()), c.value, h, True) for q, t, c, h in push.get((p, s), ())]
        if rest:
            exposed = pop.get((p, s), {}).get(rest[0], ())
            outs += [((q, t, rest[1:]), c.value, h, True) for q, t, c, h in exposed]
        edges[node] = outs
        todo.extend(e[0] for e in outs if e[0] not in edges)
    return _scalar(instance, lasso_value(instance, edges, sources))


class RunAnalysis:
    """Weighted summaries over (state, period-quotient position).

    A pop fact (p, sym, s) -> (r, t, bit) says that from state p at position
    s with sym on top, sym is eventually popped, landing in r at t; a level
    edge (p, s) -> (q, t, bit) is one neutral step or one push-excursion
    returning to the same stack level.  The bit records whether a repeated
    state was entered after the start, the target included.  reached holds
    the (state, position) nodes that some run from the (state, stack) starts
    enters; only their steps are read.  item_ids numbers every level edge
    (node, None, (q, t, bit)) and every pop fact (node, sym, (r, t, bit))
    that the saturation built; pop facts exist only at the demanded (node,
    symbol) pairs, the push targets closed under level edges.  level_w,
    push_w and pop_w are the weighted out-edges (state, position, weight,
    hit) of each reached node that `pushdown_lasso_value` reads;
    pop_w holds the pop steps of the start stacks' symbols only.  Both
    induced automata come from the one construction `_induced_matrix`, so
    on its x-states an omega automaton has the neutral steps and pushes of
    its x-part's finite automaton.
    """

    def __init__(self, a, w, starts):
        self.a = a
        self.m = a.matrix
        self.pa = PositionAutomaton.of(w)
        self.l = a.buchi_count or 0
        self._saturate(starts)

    def _hit(self, state: int) -> bool:
        return state < self.l

    def _saturate(self, starts):
        """Reached nodes, their level edges and the pop facts the pushes can
        use, then the weights.

        This is the post* saturation of weighted pushdown systems (Reps,
        Schwoon, Jha and Melski 2005), on the period quotient.  A node is
        reached when it is a start node, or the target of a level edge, a
        push, a start-stack pop or a pop fact; its neutral steps, pushes and
        start-stack pops are read once, when it is first reached.  An item
        is a level edge (node, None, (q, t, bit)) or a pop fact (node, sym,
        (r, t, bit)).  Its derivations are: a neutral step c (edge) or a pop
        step c (fact); an edge followed by a fact from its target (fact); a
        push c followed by a fact of the pushed symbol (edge).  Pop facts
        are built on demand: a push demands its pushed symbol at its target,
        and a demanded (node, sym) pair demands sym at the target of every
        level edge from node.  A pop fact is created only at a demanded
        pair, from a pop step read from the symbol's block row or from an
        edge and a fact.  Worklists of reached nodes, demands and items are
        drained together, and every join is made by the last of its events,
        so each pair is joined once.  An edge and a fact are joined when the
        edge is taken, the fact is taken, or the edge's source becomes
        demanded for the fact's symbol; a push and a fact when the push is
        read or the fact is taken.  `solve_derivations` then weighs every
        item.  Steps at a node no run enters, and facts at an undemanded
        pair, are in no derivation of a reached node's level edge, so every
        level edge weighs what it would with every step read and every pop
        fact built.
        """
        pa, hit, m, moves = self.pa, self._hit, self.m, self.m.moves
        start_syms = {sym for _q, stack in starts for sym in stack}
        reached: set[tuple[int, int]] = set()
        facts_at: dict[tuple[tuple[int, int], str], list] = {}
        edges_into: dict[tuple[int, int], list] = {}
        edges_from: dict[tuple[int, int], list] = {}
        pushes_into: dict[tuple[tuple[int, int], str], list] = {}
        demanded: set[tuple[tuple[int, int], str]] = set()
        syms_at: dict[tuple[int, int], list] = {}
        self.push_w: dict[tuple[int, int], list] = {}
        self.pop_w: dict[tuple[int, int], dict] = {}
        ids: dict[tuple, int] = {}
        rules: list[list] = []
        work: list = []
        want: list = []
        fresh: list = []

        def reach(node):
            if node not in reached:
                reached.add(node)
                fresh.append(node)

        def derive(node, sym, target, term):
            key = (node, sym, target)
            i = ids.get(key)
            if i is not None:
                rules[i].append(term)
                return
            ids[key] = len(rules)
            rules.append([term])
            work.append(key)

        for q, _stack in starts:
            reach((q, pa.state_of(0)))
        while fresh or want or work:
            if fresh:
                node = fresh.pop()
                p, s = node
                letter, s2 = pa.letter(s), pa.advance(s)
                neu, pu = moves.get(letter, {}).get(p, ((), ()))
                for q, c in neu:
                    derive(node, None, (q, s2, hit(q)), (c, None, None))
                for delta, q, c in pu:
                    target = (q, s2)
                    reach(target)
                    self.push_w.setdefault(node, []).append((q, s2, c, hit(q)))
                    pushes_into.setdefault((target, delta), []).append((node, c))
                    want.append((target, delta))
                    for (r, t, h), f in facts_at.get((target, delta), ()):
                        derive(node, None, (r, t, h or hit(q)), (c, f, None))
                for sym in start_syms:
                    outs = _pops(m, sym, p, letter)
                    if outs:
                        self.pop_w.setdefault(node, {})[sym] = [
                            (q, s2, c, hit(q)) for q, c in outs
                        ]
                        for q, _c in outs:
                            reach((q, s2))
                continue
            if want:
                demand = want.pop()
                if demand in demanded:
                    continue
                demanded.add(demand)
                node, sym = demand
                syms_at.setdefault(node, []).append(sym)
                p, s = node
                s2 = pa.advance(s)
                for q, c in _pops(m, sym, p, pa.letter(s)):
                    derive(node, sym, (q, s2, hit(q)), (c, None, None))
                for target, bit, e in edges_from.get(node, ()):
                    want.append((target, sym))
                    for (r, t2, h), f in facts_at.get((target, sym), ()):
                        derive(node, sym, (r, t2, bit or h), (None, e, f))
                continue
            key = work.pop()
            i = ids[key]
            node, sym, (q, t, bit) = key
            target = (q, t)
            reach(target)
            if sym is None:
                for sym2 in syms_at.get(node, ()):
                    want.append((target, sym2))
                    for (r, t2, h), f in facts_at.get((target, sym2), ()):
                        derive(node, sym2, (r, t2, bit or h), (None, i, f))
                edges_into.setdefault(target, []).append((node, bit, i))
                edges_from.setdefault(node, []).append((target, bit, i))
                continue
            for src, c in pushes_into.get((node, sym), ()):
                derive(src, None, (q, t, bit or hit(node[0])), (c, i, None))
            for src, h, e in edges_into.get(node, ()):
                if (src, sym) in demanded:
                    derive(src, sym, (q, t, h or bit), (None, e, i))
            facts_at.setdefault((node, sym), []).append(((q, t, bit), i))
        self.reached = reached
        self.item_ids = ids

        value = solve_scalars(self.a.instance, rules)
        self.level_w: dict[tuple[int, int], list] = {}
        for (node, sym, (q, t, bit)), i in ids.items():
            if sym is None:
                self.level_w.setdefault(node, []).append((q, t, value[i], bit))

