"""Reference read-off of lasso values for the idempotent instances.

This is the SCC classifier that `_search.lasso_value` used before it read
every value off the per-component omega_t of one split graph.  Only two
cycle classes matter under omega in Boolean, tropical and arctic: cycles of
unit weight and cycles of any other weight, whose repetition gives the omega
of a non-unit element.  Both are read off strongly connected components of
the whole graph, with no per-component matrix, so the capped certificate
searches of the tests, whose graphs have components of hundreds of nodes,
read their values here.  Edges are `HitEdge`s; `is_anchor` picks the
period-aligned nodes and `is_buchi` the accepting ones.
"""

from dataclasses import dataclass
from typing import Callable, Hashable

from staromega._search import _sccs
from staromega.semiring import COUNTING, INF, SemiringError, SemiringInstance, SemiringValue

Node = Hashable
Edge = tuple[Node, SemiringValue]


def _reachable(edges: dict[Node, list[tuple]], sources) -> dict[Node, None]:
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


def _component_index(nodes, edges: dict[Node, list[tuple]]) -> dict[Node, int]:
    """Component number of every node reached from `nodes`; sinks come first."""
    return {n: ci for ci, comp in enumerate(_sccs(nodes, edges)) for n in comp}


def path_sums(
    instance: SemiringInstance,
    edges: dict[Node, list[Edge]],
    sources: dict[Node, SemiringValue],
) -> dict[Node, SemiringValue]:
    """Sum of weights of all finite paths from the sources, per node.

    Requires an idempotent instance, so not counting.  Zero-weight edges
    and sources are ignored.  Paths may repeat nodes; divergent families
    (arctic positive cycles or inf-weight edges on cycles) are resolved
    exactly to inf.
    """
    if instance is COUNTING:
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
