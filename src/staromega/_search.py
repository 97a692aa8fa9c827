"""Shared machinery for word and lasso-word evaluation.

Runs over an ultimately periodic word u v^omega are analysed on a finite
quotient: one node per prefix position plus one node per period offset.
A finite word w is the quotient without a period: its |w| + 1 positions,
the last one reading no letter.

Both routes are exact on all four instances, counting included, and share
one saturation, one solver and one read-off, all on raw values.
`derivation_items` is the weighted product of a grammar with positions,
built on demand: the grammar's derivation weights between quotient
positions, or the automaton's, read as a lazy triple grammar over (state,
position) pairs (`pda._value_graph`).  Its items and their keys stay
inside it: it returns the weights by node, the x-facts {(variable, s):
{(t, bit): weight}} and the z-steps {(row, s): {(row2, t, bit): weight}}
of the pairs that the demand reaches.  `solve_derivations` computes the
least solution of its summary system, each item a sum over derivations;
on the finite quotient, the grammar's x-facts are the word's segment
coefficients.  The z-steps are the edges of a value graph, each carrying a
hit bit and a letter bit: every automaton move reads a letter, and a
grammar's z-step may read none.  `lasso_value` reads the value off that
graph on both routes.  It is zero at once when `accepting_cycle_exists`,
one component labelling of the reachable part, finds no cycle through a
letter edge and a hit edge.  Otherwise nodes are split into three copies
by what the edge entering them leaves pending, `path_sums` weighs the
paths into each strongly connected component, letter-free ones included,
and `matrix._omega_t` of the component's own block weighs the infinite
paths inside it.  Only the public results are wrapped as scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from .matrix import _omega_t, _star
from .semiring import INF, Ext, SemiringInstance
from .series import LassoWord, Word

Node = Hashable


@dataclass(frozen=True)
class PositionAutomaton:
    """Quotient of positions of u v^omega: prefix positions, then one per offset.

    Without a period it is the finite word u itself (`finite`): positions
    0..|u|, the end position reading no letter and never advanced from.
    """

    prefix_len: int
    period: Word
    prefix: Word

    @staticmethod
    def of(w: LassoWord) -> "PositionAutomaton":
        return PositionAutomaton(len(w.prefix), w.period, w.prefix)

    @staticmethod
    def finite(w: Word) -> "PositionAutomaton":
        return PositionAutomaton(len(w), (), tuple(w))

    @property
    def size(self) -> int:
        return self.prefix_len + (len(self.period) or 1)

    def letter(self, s: int) -> str | None:
        if s < self.prefix_len:
            return self.prefix[s]
        return self.period[s - self.prefix_len] if self.period else None

    def advance(self, s: int) -> int:
        s += 1
        if s >= self.size:
            return self.prefix_len
        return s

    def state_of(self, pos: int) -> int:
        if pos < self.prefix_len:
            return pos
        return self.prefix_len + (pos - self.prefix_len) % len(self.period)


def _sccs(nodes: Iterable[Node], edges: dict[Node, list[tuple]]) -> list[list[Node]]:
    """Tarjan strongly connected components, iterative, sinks first.

    Every edge is a tuple whose first field is its target.
    """
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    out: list[list[Node]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for e in it:
                succ = e[0]
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    m = stack.pop()
                    on_stack.discard(m)
                    comp.append(m)
                    if m == node:
                        break
                out.append(comp)
    return out


def accepting_cycle_exists(edges: dict[Node, list[tuple]], sources: Iterable[Node]) -> bool:
    """Is there an infinite path from the sources with infinitely many letter
    edges and infinitely many hit edges?

    Edges are (target, weight, hit, letter) tuples.  Such a path ends inside
    one strongly connected component, and a component with an internal
    letter edge and an internal hit edge carries such a path, so one
    component labelling of the reachable part decides it.
    """
    comps = _sccs(sources, edges)
    comp_of = {n: ci for ci, comp in enumerate(comps) for n in comp}
    letter, hit = set(), set()
    for n, ci in comp_of.items():
        for target, _w, is_hit, is_letter in edges.get(n, ()):
            if comp_of[target] == ci:
                if is_letter:
                    letter.add(ci)
                if is_hit:
                    hit.add(ci)
    return not letter.isdisjoint(hit)


Term = tuple["Ext | None", "int | None", "int | None"]


def solve_derivations(instance: SemiringInstance, rules: list[list[Term]]) -> list[Ext]:
    """Least solution of item_i = sum of c * item_a * item_b over rules[i],
    on raw values.

    A term (c, a, b) leaves out c (the unit) or an operand as None.  Every
    item must have a derivation and every constant must be nonzero; the
    summary systems of `derivation_items` are, and they serve both lasso
    routes, finite words and the empty word, whose weights are the
    empty-word coefficients that the finite solution and the normal form
    start from.  Components of the dependency graph are solved sinks
    first.  A cyclic component C has, for every n, a tree that goes round
    one of its cycles n times, and every item of C has
    a nonzero derivation through every other.  Trees whose root-to-leaf
    paths repeat no item of C have height at most |C|, so in-place Kleene
    rounds settle after |C| rounds unless some tree that repeats an item
    adds weight:
    - Boolean and tropical never get there: cutting the repetition out
      gives a tree that weighs as much or less, numerically;
    - arctic gets there when the repetition gains weight.  Pumping it gives
      weights without bound, so a component still changing after |C| + 1
      rounds is inf at every item;
    - counting always gets there.  Its unit's star is inf and every nonzero
      weight is at least the unit, so the infinitely many trees of a cyclic
      component sum to inf at every item (Esparza, Kiefer and Luttenberger
      2007).  Such a component is set to inf at once: the rounds would find
      that only after squaring numbers up to |C| times.
    """
    n = len(rules)
    add, mul = instance.add_raw, instance.mul_raw
    one, zero = instance.one_raw(), instance.zero_raw()
    raw = [[(one if c is None else c, c is None, a, b) for c, a, b in terms] for terms in rules]
    deps: dict[int, list[tuple[int]]] = {}
    users: list[list[int]] = [[] for _ in range(n)]
    for i, terms in enumerate(rules):
        deps[i] = [(x,) for _c, a, b in terms for x in (a, b) if x is not None]
        for (x,) in deps[i]:
            users[x].append(i)
    value = [zero] * n
    # the unit's star is not the unit only in counting, where cycles are inf
    cycles_are_top = instance.star_raw(one) != one

    def evaluate(i: int) -> bool:
        acc = zero
        for c, bare, a, b in raw[i]:
            if a is None:
                v = c
            else:
                v = value[a] if bare else mul(c, value[a])
                if b is not None:
                    v = mul(v, value[b])
            acc = add(acc, v)
        changed = acc != value[i]
        value[i] = acc
        return changed

    for comp in _sccs(range(n), deps):
        if len(comp) == 1 and (comp[0],) not in deps[comp[0]]:
            evaluate(comp[0])
            continue
        if cycles_are_top:
            for i in comp:
                value[i] = INF
            continue
        # in-place rounds that skip the items none of whose operands moved:
        # they would evaluate to what they hold, so the rounds are unchanged
        members = set(comp)
        dirty = set(comp)
        for _ in range(len(comp) + 1):
            changed = False
            for i in comp:
                if i in dirty:
                    dirty.discard(i)
                    if evaluate(i):
                        changed = True
                        dirty.update(x for x in users[i] if x in members)
            if not changed:
                break
        else:
            for i in comp:
                value[i] = INF
    return value


def derivation_items(instance: SemiringInstance, variables, monomials_at, step, demand):
    """Weights of the derivations that the demanded pairs can use: the one
    saturation behind both lasso routes.

    A left-hand side is a variable or a z-row.  `monomials_at(lhs, s)`
    lists the monomials (head, raw coefficient or None, word) that lhs reads
    at position s.  A head in `variables` is an x-head; any other head is a
    z-pair (j, j2) of the row j that reads it.  A symbol of a word is a
    variable when it is in `variables` and a terminal otherwise, and
    `step(s, terminal)` is the (next position, bit) that reading it leads s
    to, or None.

    An item is an x-fact (head, s, t, bit): the variable derives a word
    leading position s to t, with bit the or of its terminals' bits; a
    z-step ((j, j2), s, t, bit): a monomial of row j leads s to t; or, for
    monomials with more than two variable occurrences, a prefix (head,
    word, length, s, t, bit) whose product already holds two operands, so
    every derivation term is (coefficient, item, item).  A monomial is read
    left to right from s: terminals move the position, and at a variable
    the partial product waits for that variable's facts at the current
    position.  Work is demand-driven, as in IFDS tabulation (Reps, Horwitz
    and Sagiv 1995): a demanded (lhs, s) pair reads lhs's monomials at s, a
    product that starts waiting demands what it waits for, and a z-step
    demands its target (j2, t).  Demands are a worklist, drained with the
    worklist of x-facts; a fact taken from the latter extends the products
    waiting for it, and a product that starts waiting joins the facts
    already taken, so every pair is joined once.  `solve_derivations` then
    weighs every item.

    Returns the x-facts {(head, s): {(t, bit): raw}} and the z-steps
    {(j, s): {(j2, t, bit): raw}} of every demanded pair, each weight
    nonzero: no instance has zero divisors.
    """
    ids: dict[tuple, int] = {}
    rules: list[list] = []
    work: list = []
    want: list = list(demand)
    # the demanded pairs, each with the weights of its facts or steps
    demanded: dict[tuple, dict] = {}
    facts_at: dict[tuple, list] = {}
    waiting: dict[tuple, list] = {}

    def item(key, term) -> tuple[int, bool]:
        """The id of an item given one more derivation, and whether it is new."""
        i = ids.get(key)
        if i is not None:
            rules[i].append(term)
            return i, False
        ids[key] = i = len(rules)
        rules.append([term])
        return i, True

    def read(mono, j, s, t, bit, c, ops):
        """Read mono on from symbol j at position t; the symbols before j
        lead s to t with product c (None: the unit) times the items in ops,
        at most two."""
        head, _c, word = mono
        while j < len(word) and word[j] not in variables:
            nxt = step(t, word[j])
            if nxt is None:
                return
            t, hit = nxt
            bit, j = bit or hit, j + 1
        if j == len(word):
            key = (head, s, t, bit)
            if item(key, (c,) + ops + (None,) * (2 - len(ops)))[1]:
                if head in variables:
                    work.append(key)
                else:
                    want.append((head[1], t))
            return
        if len(ops) == 2:
            i, fresh = item((head, word, j, s, t, bit), (c,) + ops)
            if not fresh:
                return
            c, ops = None, (i,)
        wait = (word[j], t)
        if wait not in demanded:
            want.append(wait)
        waiting.setdefault(wait, []).append((mono, j, s, bit, c, ops))
        for t2, b2, x in facts_at.get(wait, ()):
            read(mono, j + 1, s, t2, bit or b2, c, ops + (x,))

    while work or want:
        if want:
            node = want.pop()
            if node in demanded:
                continue
            demanded[node] = {}
            lhs, s = node
            for mono in monomials_at(lhs, s):
                read(mono, 0, s, s, False, mono[1], ())
            continue
        v, s, t, bit = key = work.pop()
        x = ids[key]
        # a product that starts waiting here during the loop is joined by it
        for mono, j, s0, b0, c, ops in waiting.get((v, s), ()):
            read(mono, j + 1, s0, t, b0 or bit, c, ops + (x,))
        facts_at.setdefault((v, s), []).append((t, bit, x))

    value = solve_derivations(instance, rules)
    for key, i in ids.items():
        if len(key) == 4:
            head, s, t, bit = key
            if head in variables:
                demanded[(head, s)][(t, bit)] = value[i]
            else:
                demanded[(head[0], s)][(head[1], t, bit)] = value[i]
    x_facts, z_steps = {}, {}
    for node, weights in demanded.items():
        (x_facts if node[0] in variables else z_steps)[node] = weights
    return x_facts, z_steps


def path_sums(
    instance: SemiringInstance, edges: dict[Node, list[tuple]], sources: dict[Node, object]
) -> list[tuple[list[Node], list[list], list, list]]:
    """Weights of the finite paths from the sources, one strongly connected
    component at a time, on raw values.

    Edges are (target, raw weight) tuples and sources map a node to its raw
    weight.  The components of the reachable part are swept sources first.
    A component's entry weights are its nodes' source weights plus the
    weights of the paths that enter it from the components before it, by
    their last edge; its path sums are its entry weights times the star of
    its own block, exact on every instance.  Returns (nodes, block, entry
    weights, path sums) per component, in sweep order.
    """
    add, mul, zero = instance.add_raw, instance.mul_raw, instance.zero_raw()
    comps = _sccs(sources, edges)
    comp_of = {n: ci for ci, comp in enumerate(comps) for n in comp}
    inflow = dict(sources)
    out = []
    # Tarjan emits sinks first, so descending index order is sources first
    for ci in range(len(comps) - 1, -1, -1):
        nodes = comps[ci]
        entry = [inflow.pop(n, zero) for n in nodes]
        if len(nodes) == 1:
            loop = zero
            for m, w in edges.get(nodes[0], ()):
                if m == nodes[0]:
                    loop = add(loop, w)
            block = [[loop]]
            sums = entry if loop == zero else [mul(entry[0], instance.star_raw(loop))]
        else:
            at = {n: i for i, n in enumerate(nodes)}
            block = [[zero] * len(nodes) for _ in nodes]
            for n, row in zip(nodes, block):
                for m, w in edges.get(n, ()):
                    j = at.get(m)
                    if j is not None:
                        row[j] = add(row[j], w)
            sums = [zero] * len(nodes)
            for e, row in zip(entry, _star(instance, block)):
                if e != zero:
                    sums = [add(x, mul(e, y)) for x, y in zip(sums, row)]
        for n, v in zip(nodes, sums):
            if v == zero:
                continue
            for m, w in edges.get(n, ()):
                if comp_of[m] != ci:
                    vw = mul(v, w)
                    inflow[m] = add(inflow[m], vw) if m in inflow else vw
        out.append((nodes, block, entry, sums))
    return out


def lasso_value(
    instance: SemiringInstance, edges: dict[Node, list[tuple]], sources: dict[Node, Ext]
) -> Ext:
    """Sum of the weights of the infinite paths from the weighted sources
    that take infinitely many letter edges and infinitely many hit edges,
    on raw values.

    Edges are (target, weight, hit, letter) tuples, and every edge and
    source weight is nonzero.  The value is zero at once when
    `accepting_cycle_exists` finds no such path.  Otherwise each node is
    split into three copies by what the edge entering it leaves pending:
    copy 0 nothing, as at a source; copy 1, entered by a letter-free edge, a
    hit since the last letter edge; copy 2, the Buchi copy, entered by a
    letter edge with a hit on it or since the letter edge before.  Copy 1
    exists only at targets of letter-free edges.  The paths above are those
    that visit the Buchi copies infinitely often, and each ends inside one
    strongly connected component C of the split graph, which it enters
    once.  So the value is the sum, over the components C that hold a Buchi
    copy, of the weights entering C (`path_sums`) times omega_t of C's own
    block, with C's t Buchi copies numbered first: the paper's omega_k on a
    block-triangular matrix (Esik and Kuich 2005).  `path_sums` and
    `matrix._omega_t` count every path once, letter-free ones included, so
    the value is exact on every instance, counting included.
    """
    add, mul, zero = instance.add_raw, instance.mul_raw, instance.zero_raw()
    if not accepting_cycle_exists(edges, sources):
        return zero
    split: dict[tuple, list] = {}
    pending_at = set()
    for n, es in edges.items():
        # copies 0 and 2 have nothing pending and share their out-edges
        split[(n, 0)] = split[(n, 2)] = [
            ((m, (2 if letter else 1) if hit else 0), w) for m, w, hit, letter in es
        ]
        pending_at.update(m for m, _w, _hit, letter in es if not letter)
    for n in pending_at:
        split[(n, 1)] = [((m, 2 if letter else 1), w) for m, w, _hit, letter in edges.get(n, ())]
    total = zero
    for nodes, block, entry, _sums in path_sums(
        instance, split, {(n, 0): w for n, w in sources.items()}
    ):
        buchi = [i for i, (_n, copy) in enumerate(nodes) if copy == 2]
        if not buchi:
            continue
        if len(nodes) == 1:
            omega = [instance.omega_raw(block[0][0])]
        else:
            order = buchi + [i for i, (_n, copy) in enumerate(nodes) if copy != 2]
            entry = [entry[i] for i in order]
            omega = _omega_t(instance, [[block[i][j] for j in order] for i in order], len(buchi))
        for e, v in zip(entry, omega):
            if e != zero:
                total = add(total, mul(e, v))
    return total
