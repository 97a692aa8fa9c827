"""Reference implementations of the automaton route's pop summaries.

`reference_saturate` is the weighted saturation of `_RunAnalysis` before it
was demand-driven: it builds the pop facts of every (node, stack symbol)
pair that a pop step starts, wanted or not.  `round_robin_summaries` is the
Boolean analysis before the worklist.  The tests compare the demand-driven
saturation against both: its level edges must be the same, and its pop
facts must be theirs at the demanded pairs.
"""

from staromega._search import solve_derivations


def pop_steps(ra):
    """Pop steps (p, sym, q, c) per position, read from `ResetPDMatrix.moves`
    for every state: those at nodes the starts do not reach only derive
    facts that no level edge of a reached node joins."""
    pa, moves = ra.pa, ra.m.moves
    out = {s: [] for s in range(pa.size)}
    for s in range(pa.size):
        for p, (_neu, _pu, po) in sorted(moves.get(pa.letter(s), {}).items()):
            out[s] += [(p, sym, q, c) for sym, outs in po.items() for q, c in outs]
    return out


def reference_saturate(ra):
    """Level edges and every pop fact with their derivations, then their
    weights.  Returns level_w, pop_sum, level1 and raw_push as
    `_RunAnalysis` computed them before pop facts were built on demand."""
    pa, hit = ra.pa, ra._hit
    pop = pop_steps(ra)
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
        for (p, q, c) in ra.neutral[s]:
            derive((p, s), None, (q, s2, hit(q)), (c, None, None))
        for (p, sym, q, c) in pop[s]:
            derive((p, s), sym, (q, s2, hit(q)), (c, None, None))
        for (p, delta, q, c) in ra.push[s]:
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

    value = solve_derivations(ra.a.instance, rules)
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
    pop = pop_steps(ra)
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
            for (p, q, _c) in ra.neutral[s]:
                for sym in ra.m.stack_alphabet:
                    tgt = get((p, sym, s))
                    before = len(tgt)
                    tgt |= {(r, t, h or hit(q)) for (r, t, h) in pop_sum.get((q, sym, s2), ())}
                    if len(tgt) != before:
                        changed = True
            for (p, delta, q, _c) in ra.push[s]:
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
        for (p, q, _c) in ra.neutral[s]:
            level1.setdefault((p, s), set()).add((q, s2, hit(q)))
        for (p, delta, q, _c) in ra.push[s]:
            raw_push.setdefault((p, s), set()).add((q, s2, hit(q)))
            for (r, t, h) in pop_sum.get((q, delta, s2), ()):
                level1.setdefault((p, s), set()).add((r, t, h or hit(q)))
    return {k: v for k, v in pop_sum.items() if v}, level1, raw_push


def demanded_pairs(ra, level1):
    """(state, sym, position) of every push target, closed under level edges."""
    pa = ra.pa
    seen = set()
    todo = []
    for s in range(pa.size):
        for (_p, delta, q, _c) in ra.push[s]:
            todo.append((q, delta, pa.advance(s)))
    while todo:
        pair = todo.pop()
        if pair in seen:
            continue
        seen.add(pair)
        q, sym, t = pair
        todo.extend((r, sym, t2) for (r, t2, _h) in level1.get((q, t), ()))
    return seen


def assert_summaries_match(ra, reference):
    """level1 and raw_push equal the reference's, and pop_sum equals its pop
    facts at the demanded pairs."""
    pop_sum, level1, raw_push = reference
    assert ra.level1 == level1
    assert ra.raw_push == raw_push
    wanted = demanded_pairs(ra, level1)
    assert ra.pop_sum == {k: v for k, v in pop_sum.items() if k in wanted}


def sorted_level_w(level_w):
    """level_w with each node's out-edges in one order, to compare as multisets."""
    return {
        node: sorted(outs, key=lambda e: (e[0], e[1], e[3], str(e[2].value)))
        for node, outs in level_w.items()
    }
