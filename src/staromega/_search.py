"""Shared machinery for lasso-word evaluation.

Runs over an ultimately periodic word u v^omega are analysed on a finite
quotient: one node per prefix position plus one node per period offset.
`accepting_cycle_exists` decides whether any accepting run exists at all,
one component labelling of a Boolean graph that the grammar route builds;
`path_sums` aggregates weights of all finite paths (idempotent instances
only); `lasso_value` combines prefix sums with omega-applied cycle sums over
every periodic anchor.

Both routes are exact and share one solver.  `solve_derivations` computes
the least solution of a weighted summary system, each item a sum over
derivations: the grammar's derivation weights between quotient positions,
or the automaton's level edges and pop facts.  Both routes build their
system on demand: the grammar only at the pairs its start reaches, the
automaton only the pop facts that some push can use.  The grammar route
reads the value off its z-graph with `lasso_value`; `pushdown_lasso_value`
reads it off one graph over (state, position, remaining start-stack cells)
whose edges are the solved level edges, the pushes that are never popped
and the pops of the start stack's cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from .semiring import INF, SemiringError, SemiringInstance, SemiringValue
from .series import LassoWord, Word

Node = Hashable


@dataclass(frozen=True)
class PositionAutomaton:
    """Quotient of positions of u v^omega: prefix positions, then one per offset."""

    prefix_len: int
    period: Word
    prefix: Word

    @staticmethod
    def of(w: LassoWord) -> "PositionAutomaton":
        return PositionAutomaton(len(w.prefix), w.period, w.prefix)

    @property
    def size(self) -> int:
        return self.prefix_len + len(self.period)

    def letter(self, s: int) -> str:
        if s < self.prefix_len:
            return self.prefix[s]
        return self.period[s - self.prefix_len]

    def advance(self, s: int) -> int:
        s += 1
        if s >= self.size:
            return self.prefix_len
        return s

    def state_of(self, pos: int) -> int:
        if pos < self.prefix_len:
            return pos
        return self.prefix_len + (pos - self.prefix_len) % len(self.period)

    def is_periodic(self, s: int) -> bool:
        return s >= self.prefix_len


Edge = tuple[Node, SemiringValue]


def _reachable(edges: dict[Node, list[tuple]], sources: Iterable[Node]) -> dict[Node, None]:
    """Nodes reachable from the sources, in discovery order.

    Every edge is a tuple whose first field is its target.
    """
    seen = dict.fromkeys(sources)
    stack = list(seen)
    while stack:
        n = stack.pop()
        for e in edges.get(n, ()):
            m = e[0]
            if m not in seen:
                seen[m] = None
                stack.append(m)
    return seen


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


def _component_index(nodes: Iterable[Node], edges: dict[Node, list[tuple]]) -> dict[Node, int]:
    """Component number of every node reached from `nodes`; sinks come first."""
    return {n: ci for ci, comp in enumerate(_sccs(nodes, edges)) for n in comp}


def accepting_cycle_exists(
    edges: dict[Node, list[tuple[Node, bool, bool]]], sources: Iterable[Node]
) -> bool:
    """Is there an infinite path from the sources with infinitely many letter
    edges and infinitely many hit edges?

    Edges are (target, letter, hit).  Such a path ends inside one strongly
    connected component, and a component with an internal letter edge and an
    internal hit edge carries such a path, so one component labelling of
    the reachable part decides it.
    """
    reach = _reachable(edges, sources)
    comp_of = _component_index(reach, edges)
    letter, hit = set(), set()
    for n in reach:
        ci = comp_of[n]
        for target, is_letter, is_hit in edges.get(n, ()):
            if comp_of[target] == ci:
                if is_letter:
                    letter.add(ci)
                if is_hit:
                    hit.add(ci)
    return not letter.isdisjoint(hit)


Term = tuple["SemiringValue | None", "int | None", "int | None"]


def solve_derivations(
    instance: SemiringInstance, rules: list[list[Term]]
) -> tuple[list[SemiringValue], list[bool]]:
    """Least solution of item_i = sum of c * item_a * item_b over rules[i].

    A term (c, a, b) leaves out c (the unit) or an operand as None.  Every
    item must have a derivation, and the constants must be Boolean, or
    naturals and inf multiplied by + (tropical, arctic); the summary systems
    of both lasso routes are.  Then cutting a repeated item out of a
    derivation tree never raises its numeric weight.  Components of the
    dependency graph are solved sinks first, by in-place Kleene rounds.
    Trees whose root-to-leaf paths repeat no item of their component have
    height at most |C|, so
    after |C| rounds a component has settled unless some repetition gains
    weight; repeating it pumps every item of the component to inf, the top
    element.  Only arctic can get there: a component still changing after
    |C| + 1 rounds is set to inf.

    Also returns, per item, whether some derivation uses only unit weights.
    """
    n = len(rules)
    add, mul = instance.add_raw, instance.mul_raw
    one, zero = instance.one_raw(), instance.zero_raw()
    raw = [
        [(one if c is None else c.value, c is None, a, b) for c, a, b in terms]
        for terms in rules
    ]
    deps: dict[int, list[tuple[int]]] = {}
    users: list[list[int]] = [[] for _ in range(n)]
    for i, terms in enumerate(rules):
        deps[i] = [(x,) for _c, a, b in terms for x in (a, b) if x is not None]
        for (x,) in deps[i]:
            users[x].append(i)
    value = [zero] * n
    unit = [False] * n

    def evaluate(i: int) -> bool:
        acc, u = zero, False
        for c, bare, a, b in raw[i]:
            if a is None:
                v = c
            else:
                v = value[a] if bare else mul(c, value[a])
                if b is not None:
                    v = mul(v, value[b])
            acc = add(acc, v)
            if not u and c == one:
                u = (a is None or unit[a]) and (b is None or unit[b])
        changed = acc != value[i] or u != unit[i]
        value[i], unit[i] = acc, u
        return changed

    for comp in _sccs(range(n), deps):
        if len(comp) == 1 and (comp[0],) not in deps[comp[0]]:
            evaluate(comp[0])
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
    return [SemiringValue(instance, v) for v in value], unit


def pushdown_lasso_value(
    instance: SemiringInstance,
    pa: PositionAutomaton,
    level: dict[Node, list[tuple]],
    push: dict[Node, list[tuple]],
    pop: dict[Node, dict[str, list[tuple]]],
    starts: dict[tuple[int, tuple], SemiringValue],
) -> SemiringValue:
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
    sources = {(q, s0, tuple(stack)): c for (q, stack), c in starts.items()}
    edges: dict[Node, list[HitEdge]] = {}
    todo = list(sources)
    while todo:
        node = todo.pop()
        if node in edges:
            continue
        p, s, rest = node
        outs = [HitEdge((q, t, rest), c, h) for q, t, c, h in level.get((p, s), ())]
        outs += [HitEdge((q, t, ()), c, h) for q, t, c, h in push.get((p, s), ())]
        if rest:
            exposed = pop.get((p, s), {}).get(rest[0], ())
            outs += [HitEdge((q, t, rest[1:]), c, h) for q, t, c, h in exposed]
        edges[node] = outs
        todo.extend(e.target for e in outs if e.target not in edges)
    return lasso_value(
        instance,
        edges,
        sources,
        is_anchor=lambda node: pa.is_periodic(node[1]),
        is_buchi=lambda node: False,
    )


def path_sums(
    instance: SemiringInstance,
    edges: dict[Node, list[Edge]],
    sources: dict[Node, SemiringValue],
) -> dict[Node, SemiringValue]:
    """Sum of weights of all finite paths from the sources, per node.

    Requires an idempotent instance.  Zero-weight edges and sources are
    ignored.  Paths may repeat nodes; divergent families (arctic positive
    cycles or inf-weight edges on cycles) are resolved exactly to inf.
    """
    if not instance.idempotent:
        raise SemiringError("path aggregation needs an idempotent instance")
    sources = {n: w for n, w in sources.items() if not w.is_zero()}
    live_edges: dict[Node, list[Edge]] = {}
    for n, outs in edges.items():
        kept = [(m, w) for m, w in outs if not w.is_zero()]
        if kept:
            live_edges[n] = kept
    reach = _reachable(live_edges, sources)

    if instance.name == "boolean":
        one = instance.one
        return {n: one for n in reach}

    if instance.name == "tropical":
        return _dijkstra_min_plus(instance, live_edges, sources, reach)

    if instance.name == "arctic":
        return _longest_max_plus(instance, live_edges, sources, reach)

    raise SemiringError(f"path aggregation unsupported for {instance.name}")


def _dijkstra_min_plus(instance, edges, sources, reach):
    import heapq

    dist: dict[Node, SemiringValue] = {}
    counter = 0
    heap = []
    for n, w in sources.items():
        heap.append((w.value, counter, n, w))
        counter += 1
    heapq.heapify(heap)
    while heap:
        _, _, n, w = heapq.heappop(heap)
        if n in dist:
            continue
        dist[n] = w
        for m, ew in edges.get(n, ()):
            if m not in dist:
                nw = w * ew
                counter += 1
                heapq.heappush(heap, (nw.value, counter, m, nw))
    return dist


def _longest_max_plus(instance, edges, sources, reach):
    comp_of = _component_index(reach, edges)
    count = max(comp_of.values(), default=-1) + 1
    comp_val: list[SemiringValue] = [instance.zero] * count
    for n, w in sources.items():
        comp_val[comp_of[n]] = comp_val[comp_of[n]] + w
    gainful = [False] * count
    cross_in: list[list[tuple[int, SemiringValue]]] = [[] for _ in range(count)]
    for n in reach:
        for m, w in edges.get(n, ()):
            if comp_of[n] == comp_of[m]:
                if w.value is INF or (isinstance(w.value, int) and w.value > 0):
                    gainful[comp_of[n]] = True
            else:
                cross_in[comp_of[m]].append((comp_of[n], w))
    # Tarjan emits components in reverse topological order, so descending
    # index order visits predecessors before successors
    inf_val = instance.value(INF)
    for ci in range(count - 1, -1, -1):
        acc = comp_val[ci]
        for src_ci, w in cross_in[ci]:
            acc = acc + comp_val[src_ci] * w
        if not acc.is_zero() and gainful[ci]:
            acc = inf_val
        comp_val[ci] = acc
    out: dict[Node, SemiringValue] = {}
    for n in reach:
        v = comp_val[comp_of[n]]
        if not v.is_zero():
            out[n] = v
    return out


@dataclass(frozen=True)
class HitEdge:
    """Weighted edge whose interior (states strictly between nodes) may hit Buchi."""

    target: Node
    weight: SemiringValue
    interior_hit: bool


def lasso_value(
    instance: SemiringInstance,
    edges: dict[Node, list[HitEdge]],
    sources: dict[Node, SemiringValue],
    is_anchor: Callable[[Node], bool],
    is_buchi: Callable[[Node], bool],
) -> SemiringValue:
    """Sum over ultimately periodic runs: prefix weight times omega of the cycle sum.

    Anchors are the period-aligned nodes; a cycle counts a Buchi hit when its
    interior or any node it visits (including the anchor on return) is
    accepting.  Only two cycle classes matter under the omega operation:
    cycles whose weight is the multiplicative unit (their repetition costs
    nothing extra) and cycles carrying any other weight (whose repetition
    collapses to the omega of a non-unit element).  Both classes are read off
    strongly connected components, so no per-anchor search is needed.
    """
    plain: dict[Node, list[Edge]] = {
        n: [(e.target, e.weight) for e in outs] for n, outs in edges.items()
    }
    pre = path_sums(instance, plain, sources)

    def hit(e: HitEdge) -> bool:
        return e.interior_hit or is_buchi(e.target)

    # full graph: components with an accepting cycle, and whether such a
    # cycle can pick up a non-unit weight
    comp_of = _component_index(pre, plain)
    full_hit: dict[int, bool] = {}
    full_nonunit: dict[int, bool] = {}
    for n in pre:
        ci = comp_of[n]
        for e in edges.get(n, ()):
            if e.target in pre and comp_of[e.target] == ci:
                if hit(e):
                    full_hit[ci] = True
                if not e.weight.is_one():
                    full_nonunit[ci] = True

    # unit-weight subgraph: components with an accepting all-unit cycle
    unit_plain = {
        n: [(e.target, e.weight) for e in edges.get(n, ()) if e.weight.is_one()]
        for n in pre
    }
    unit_comp_of = _component_index(pre, unit_plain)
    unit_hit: dict[int, bool] = {}
    for n in pre:
        ci = unit_comp_of[n]
        for e in edges.get(n, ()):
            if (
                e.weight.is_one()
                and e.target in pre
                and unit_comp_of[e.target] == ci
                and hit(e)
            ):
                unit_hit[ci] = True

    omega_nonunit = _omega_of_nonunit(instance)
    total = instance.zero
    for anchor, pre_w in pre.items():
        if not is_anchor(anchor):
            continue
        ci = comp_of[anchor]
        if not full_hit.get(ci):
            continue
        if unit_hit.get(unit_comp_of[anchor]):
            total = total + pre_w
        if full_nonunit.get(ci) and omega_nonunit is not None:
            total = total + pre_w * omega_nonunit
    return total


def _omega_of_nonunit(instance: SemiringInstance):
    """Omega value of repeating any non-unit nonzero cycle weight.

    Every non-unit nonzero scalar of these carriers has the same omega: the
    additively absorbing top for tropical and arctic (which is the zero of
    the tropical instance, so those cycles contribute nothing there).  The
    Boolean instance has no such scalars.
    """
    if instance.name == "tropical":
        return instance.value(INF)
    if instance.name == "arctic":
        return instance.value(INF)
    return None
