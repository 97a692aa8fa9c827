"""Simple reset pushdown matrices and automata, finite and omega behaviors.

A simple reset pushdown matrix is stored by its three generating block
families (ignore stack / push one symbol / pop one symbol); every entry of
the infinite transition matrix is recovered from them by suffix extension,
which `expand_entry` implements.  A block is a tuple of sparse rows, row i
mapping each column j with a nonzero letter polynomial to it, so a matrix
takes space in its number of transitions; `ResetPDMatrix.moves` indexes the
transitions by letter and source state once, for the run enumerations.

Behaviors are exact: the finite behavior enumerates runs (one letter per
step), the omega behavior combines a capped certificate search over the
period quotient with an exact emptiness analysis of the run structure, so
zero answers never depend on the caps.  That analysis saturates level edges
and pop summaries with one worklist, the summary saturation of pushdown
reachability (Bouajjani, Esparza and Maler 1997; Reps, Schwoon, Jha and
Melski 2005).  An infinite run returns to its lowest recurring stack height
forever or leaves every height for good, so an accepting run exists exactly
when the graph of level and push edges over (state, position) has an
accepting cycle: the head reachability of Bouajjani, Esparza and Maler,
decided by the component check `_search.accepting_cycle_exists` that the
grammar route runs on its z-graph too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from ._search import HitEdge, PositionAutomaton, _reachable, accepting_cycle_exists, lasso_value
from .semiring import (
    SemiringError,
    SemiringInstance,
    SemiringValue,
    instance_by_name,
    raw_from_json,
    raw_to_json,
)
from .series import LassoWord, Word
from .system import (
    INCONCLUSIVE,
    OK,
    AlgebraicSystem,
    IllFormedSystem,
    LassoResult,
    MixedSystem,
    NonIdempotentInstance,
    SemanticFailure,
    is_gnf_algebraic,
    is_gnf_mixed,
)

# A letter polynomial: one weight per input letter, support only on letters.
LetterPoly = dict[str, SemiringValue]
# Sparse rows: block[i] maps column j to a nonzero letter polynomial.
Block = tuple[dict[int, LetterPoly], ...]


class EpsilonCoefficient(SemanticFailure):
    """Raised when a construction needs an epsilon-free component."""

    def __init__(self, component: str, coeff: SemiringValue):
        super().__init__(
            f"component {component} has nonzero empty-word coefficient {coeff!r}"
        )
        self.component = component
        self.coeff = coeff


def _rows(n: int, cells: Mapping[tuple[int, int], LetterPoly]) -> Block:
    """Sparse rows of an n-state block; empty cells are left out."""
    rows = tuple({} for _ in range(n))
    for (i, j), lp in cells.items():
        if lp:
            rows[i][j] = lp
    return rows


@dataclass(frozen=True)
class ResetPDMatrix:
    """Finite block presentation of a simple reset pushdown matrix.

    Every block is a tuple of n_states sparse rows: block[i] maps a column
    j to its nonzero letter polynomial, and absent columns are zero.
    """

    instance: SemiringInstance
    n_states: int
    input_alphabet: tuple[str, ...]
    stack_alphabet: tuple[str, ...]
    m_eps_eps: Block
    m_eps_push: Mapping[str, Block]
    m_pop_eps: Mapping[str, Block]

    def __post_init__(self):
        blocks = [self.m_eps_eps]
        blocks.extend(self.m_eps_push.values())
        blocks.extend(self.m_pop_eps.values())
        for sym in list(self.m_eps_push) + list(self.m_pop_eps):
            if sym not in self.stack_alphabet:
                raise IllFormedSystem(f"unknown stack symbol {sym!r}")
        for b in blocks:
            if len(b) != self.n_states:
                raise IllFormedSystem("block has wrong dimension")
            for row in b:
                for j, lp in row.items():
                    if j not in range(self.n_states):
                        raise IllFormedSystem(f"block column {j!r} out of range")
                    if not lp:
                        raise IllFormedSystem("zero entries must be omitted")
                    for a, c in lp.items():
                        if a not in self.input_alphabet:
                            raise IllFormedSystem(f"unknown input letter {a!r}")
                        if c.instance is not self.instance:
                            raise SemiringError("block entry over a different instance")
                        if c.is_zero():
                            raise IllFormedSystem("zero weights must be omitted")

    def push_block(self, sym: str) -> Block:
        return self.m_eps_push.get(sym, ({},) * self.n_states)

    def pop_block(self, sym: str) -> Block:
        return self.m_pop_eps.get(sym, ({},) * self.n_states)

    @cached_property
    def moves(self) -> dict[str, dict[int, tuple[list, list, dict]]]:
        """Transitions by letter, then source state, indexed once.

        moves[letter][p] holds the neutral moves [(q, c)], the pushes
        [(sym, q, c)] and the pops {sym: [(q, c)]}, each block's targets in
        ascending order.
        """
        index: dict[str, dict[int, tuple[list, list, dict]]] = {}

        def cells(block):
            for p, row in enumerate(block):
                for q in sorted(row):
                    for letter, c in row[q].items():
                        by_state = index.setdefault(letter, {})
                        if p not in by_state:
                            by_state[p] = ([], [], {})
                        yield by_state[p], q, c

        for at, q, c in cells(self.m_eps_eps):
            at[0].append((q, c))
        for sym, block in self.m_eps_push.items():
            for at, q, c in cells(block):
                at[1].append((sym, q, c))
        for sym, block in self.m_pop_eps.items():
            for at, q, c in cells(block):
                at[2].setdefault(sym, []).append((q, c))
        return index


def expand_entry(m: ResetPDMatrix, pi: Word, pi2: Word) -> Block:
    """Entry of the full transition matrix at stack pair (pi, pi2).

    Pushdown suffix extension: a nonempty stack acts through its top symbol,
    keeping the rest untouched; the empty stack exposes the reset blocks.
    """
    if pi == ():
        if pi2 == ():
            return m.m_eps_eps
        if len(pi2) == 1:
            return m.push_block(pi2[0])
        return ({},) * m.n_states
    top, rest = pi[0], pi[1:]
    if pi2 == rest:
        return m.pop_block(top)
    if pi2 == pi:
        return m.m_eps_eps
    if len(pi2) == len(pi) + 1 and pi2[1:] == pi:
        return m.push_block(pi2[0])
    return ({},) * m.n_states


@dataclass(frozen=True)
class SimpleOmegaPDA:
    """Simple reset pushdown automaton, optionally with repeated states 1..l."""

    matrix: ResetPDMatrix
    initial: tuple[SemiringValue, ...]
    final: tuple[SemiringValue, ...]
    buchi_count: int | None
    state_names: tuple[str, ...]

    def __post_init__(self):
        n = self.matrix.n_states
        if len(self.initial) != n or len(self.final) != n or len(self.state_names) != n:
            raise IllFormedSystem("vector lengths must match the state count")
        if self.buchi_count is not None and not 0 <= self.buchi_count <= n:
            raise IllFormedSystem("repeated-state count out of range")

    @property
    def instance(self) -> SemiringInstance:
        return self.matrix.instance


# -- induced constructions ---------------------------------------------------


def _letter_sum(polys) -> LetterPoly:
    out: dict[str, SemiringValue] = {}
    for letter, coeff in polys:
        prev = out.get(letter)
        out[letter] = coeff if prev is None else prev + coeff
    return {a: c for a, c in out.items() if not c.is_zero()}


def _check_eps_free(sys: AlgebraicSystem, component: int) -> None:
    for idx, p in enumerate(sys.rhs):
        c = p.coeff_of(())
        if not c.is_zero():
            raise EpsilonCoefficient(sys.variables[idx], c)


def induced_finite_pda(sys: AlgebraicSystem, start: int) -> SimpleOmegaPDA:
    """Simple reset pushdown automaton reading off a Greibach-shaped system.

    One state per variable plus a sink; the second trailing variable of a
    monomial is pushed, the first becomes the next state.
    """
    if not is_gnf_algebraic(sys, allow_eps=True):
        raise IllFormedSystem("induced automaton needs a Greibach-shaped system")
    _check_eps_free(sys, start)
    inst = sys.instance
    n = len(sys.variables)
    f = n
    var_ix = {v: i for i, v in enumerate(sys.variables)}
    stack_syms = tuple(sys.variables)

    eps_eps: dict[tuple[int, int], list] = {}
    pushes: dict[str, dict[tuple[int, int], list]] = {v: {} for v in stack_syms}
    term: list[list] = [[] for _ in range(n)]
    for i, p in enumerate(sys.rhs):
        for mono in p.monomials:
            w = mono.word
            a = w[0]
            if len(w) == 1:
                term[i].append((a, mono.coeff))
            elif len(w) == 2:
                j = var_ix[w[1]]
                eps_eps.setdefault((i, j), []).append((a, mono.coeff))
            else:
                j, k = var_ix[w[1]], var_ix[w[2]]
                pushes[w[2]].setdefault((i, j), []).append((a, mono.coeff))

    finals = [(i, lp) for i, lp in enumerate(map(_letter_sum, term)) if lp]
    m_eps_eps = {k: _letter_sum(v) for k, v in eps_eps.items()}
    m_eps_eps.update(((i, f), lp) for i, lp in finals)
    m_push = {
        sym: _rows(n + 1, {k: _letter_sum(v) for k, v in d.items()})
        for sym, d in pushes.items()
        if d
    }
    m_pop = {
        sym: _rows(n + 1, {(i, k): lp for i, lp in finals})
        for k, sym in enumerate(stack_syms)
        if finals
    }

    matrix = ResetPDMatrix(
        inst,
        n + 1,
        tuple(sys.terminals),
        stack_syms,
        _rows(n + 1, m_eps_eps),
        m_push,
        m_pop,
    )
    initial = tuple(inst.one if q == start else inst.zero for q in range(n + 1))
    final = tuple(inst.one if q == f else inst.zero for q in range(n + 1))
    names = tuple(sys.variables) + ("f",)
    return SimpleOmegaPDA(matrix, initial, final, None, names)


def induced_omega_pda(sys: MixedSystem, start: int, buchi_count: int) -> SimpleOmegaPDA:
    """Simple omega-reset pushdown automaton of a Greibach-shaped mixed system.

    Requires equally many finite and omega variables.  States are the omega
    variables (repeated ones first), then the finite variables, then a sink;
    the stack distinguishes finite-return from omega-return symbols.
    """
    if len(sys.x_vars) != len(sys.z_vars):
        raise IllFormedSystem("construction needs equally many x- and z-variables")
    if not is_gnf_mixed(sys):
        raise IllFormedSystem("induced automaton needs Greibach shape")
    _check_eps_free(sys.x_part, start)
    if not 0 <= buchi_count <= len(sys.z_vars):
        raise IllFormedSystem("repeated-state count out of range")
    inst = sys.instance
    n = sys.n
    f = 2 * n
    var_ix = {v: i for i, v in enumerate(sys.x_vars)}
    xsym = tuple(f"X:{v}" for v in sys.x_vars)
    zsym = tuple(f"Z:{v}" for v in sys.z_vars)

    term: list[list] = [[] for _ in range(n)]
    eps_eps: dict[tuple[int, int], list] = {}
    pushes: dict[str, dict[tuple[int, int], list]] = {s: {} for s in xsym + zsym}
    for i, p in enumerate(sys.x_rhs):
        for mono in p.monomials:
            w = mono.word
            a = w[0]
            if len(w) == 1:
                term[i].append((a, mono.coeff))
            elif len(w) == 2:
                eps_eps.setdefault((n + i, n + var_ix[w[1]]), []).append((a, mono.coeff))
            else:
                j, k = var_ix[w[1]], var_ix[w[2]]
                pushes[xsym[k]].setdefault((n + i, n + j), []).append((a, mono.coeff))
    for i, row in enumerate(sys.rho):
        for k, p in row.items():
            for mono in p.monomials:
                w = mono.word
                a = w[0]
                if len(w) == 1:
                    eps_eps.setdefault((i, k), []).append((a, mono.coeff))
                else:
                    j = var_ix[w[1]]
                    pushes[zsym[k]].setdefault((i, n + j), []).append((a, mono.coeff))

    finals = [(n + i, lp) for i, lp in enumerate(map(_letter_sum, term)) if lp]
    m_eps_eps = {k: _letter_sum(v) for k, v in eps_eps.items()}
    m_eps_eps.update(((i, f), lp) for i, lp in finals)
    m_push = {
        sym: _rows(2 * n + 1, {k: _letter_sum(v) for k, v in d.items()})
        for sym, d in pushes.items()
        if d
    }
    m_pop = {}
    if finals:
        for k in range(n):
            m_pop[xsym[k]] = _rows(2 * n + 1, {(i, n + k): lp for i, lp in finals})
            m_pop[zsym[k]] = _rows(2 * n + 1, {(i, k): lp for i, lp in finals})

    matrix = ResetPDMatrix(
        inst,
        2 * n + 1,
        tuple(sys.terminals),
        xsym + zsym,
        _rows(2 * n + 1, m_eps_eps),
        m_push,
        m_pop,
    )
    initial = tuple(
        inst.one if q in (start, n + start) else inst.zero for q in range(2 * n + 1)
    )
    final = tuple(inst.one if q == f else inst.zero for q in range(2 * n + 1))
    names = tuple(f"z:{v}" for v in sys.z_vars) + tuple(f"x:{v}" for v in sys.x_vars) + ("f",)
    return SimpleOmegaPDA(matrix, initial, final, buchi_count, names)


# -- behaviors ----------------------------------------------------------------


def _successors(m: ResetPDMatrix, state: int, stack: Word, letter: str):
    moves = m.moves.get(letter, {}).get(state)
    if moves is None:
        return
    neutral, push, pop = moves
    for j, c in neutral:
        yield j, stack, c
    for sym, j, c in push:
        yield j, (sym,) + stack, c
    if stack:
        for j, c in pop.get(stack[0], ()):
            yield j, stack[1:], c


def behavior_finite(a: SimpleOmegaPDA, w: Word) -> SemiringValue:
    """Exact weight of w: sum over all empty-to-empty runs, one letter per step."""
    inst = a.instance
    m = a.matrix
    memo: dict[tuple[int, int, Word], SemiringValue] = {}

    def value(pos: int, state: int, stack: Word) -> SemiringValue:
        if pos == len(w):
            return a.final[state] if stack == () else inst.zero
        key = (pos, state, stack)
        got = memo.get(key)
        if got is not None:
            return got
        acc = inst.zero
        for j, stack2, c in _successors(m, state, stack, w[pos]):
            acc = acc + c * value(pos + 1, j, stack2)
        memo[key] = acc
        return acc

    total = inst.zero
    for q in range(m.n_states):
        if not a.initial[q].is_zero():
            total = total + a.initial[q] * value(0, q, ())
    return total


@dataclass(frozen=True)
class PdaLassoCaps:
    height: int
    max_nodes: int = 200000

    def __post_init__(self):
        if self.height < 0:
            raise IllFormedSystem("caps must be positive")


def default_pda_caps(a: SimpleOmegaPDA, w: LassoWord) -> PdaLassoCaps:
    periods = 2 * a.matrix.n_states * max(1, len(a.matrix.stack_alphabet)) * len(w.period) + 4
    return PdaLassoCaps(height=len(w.prefix) + len(w.period) * periods)


def behavior_omega_lasso(
    a: SimpleOmegaPDA, w: LassoWord, caps: PdaLassoCaps | None = None
) -> LassoResult:
    """Omega part of the behavior at u v^omega.

    Certificates (period-aligned configuration repetitions through a repeated
    state) are searched under the caps; whether any accepting run exists at
    all is decided exactly on the run structure, so a zero verdict is
    cap-independent.
    """
    starts = {(q, ()): c for q, c in enumerate(a.initial) if not c.is_zero()}
    return _omega_value(a, w, starts, caps)


def omega_value_from(
    a: SimpleOmegaPDA,
    w: LassoWord,
    state: int,
    stack: Word = (),
    caps: PdaLassoCaps | None = None,
) -> LassoResult:
    """Omega value started from one configuration instead of the initial vector."""
    return _omega_value(a, w, {(state, tuple(stack)): a.instance.one}, caps)


def _omega_value(a, w, starts, caps) -> LassoResult:
    """Omega value of the runs from weighted (state, stack) starts."""
    if a.buchi_count is None:
        raise IllFormedSystem("automaton has no repeated-state count")
    inst = a.instance
    if not inst.idempotent:
        raise NonIdempotentInstance(inst)
    if not _pda_run_exists(a, w, starts):
        return LassoResult(OK, inst.zero)
    if inst.name == "boolean":
        return LassoResult(OK, inst.one)
    if caps is None:
        caps = default_pda_caps(a, w)
    pa = PositionAutomaton.of(w)
    sources = {(q, stack, pa.state_of(0)): c for (q, stack), c in starts.items()}
    return _pda_certificate_search(a, w, sources, caps, pa)


def _pda_certificate_search(a, w, sources, caps, pa) -> LassoResult:
    """Certificate value over the configurations within the caps.

    Inconclusive when nothing was certified, or when a configuration was
    dropped because the graph already held caps.max_nodes nodes: the value
    of a truncated graph may miss runs.
    """
    inst = a.instance
    m = a.matrix
    edges: dict[tuple, list[HitEdge]] = {}
    frontier = list(sources)
    seen = set(frontier)
    truncated = False
    while frontier:
        node = frontier.pop()
        state, stack, s = node
        outs = []
        for j, stack2, c in _successors(m, state, stack, pa.letter(s)):
            if len(stack2) > caps.height:
                continue
            succ = (j, stack2, pa.advance(s))
            outs.append(HitEdge(succ, c, False))
            if succ not in seen:
                if len(seen) < caps.max_nodes:
                    seen.add(succ)
                    frontier.append(succ)
                else:
                    truncated = True
        edges[node] = outs
    l = a.buchi_count
    value = lasso_value(
        inst,
        edges,
        sources,
        is_anchor=lambda node: pa.is_periodic(node[2]),
        is_buchi=lambda node: node[0] < l,
    )
    if truncated or value.is_zero():
        return LassoResult(INCONCLUSIVE)
    return LassoResult(OK, value)


# -- exact emptiness of the accepting-run structure ---------------------------


class _RunAnalysis:
    """Support-level relations over (state, period-quotient position).

    pop_sum: facts "with this top symbol, the symbol is eventually popped,
    landing here"; level1: one neutral step or one push-excursion returning
    to the same stack level.  All carry a bit recording whether a repeated
    state was entered after the start.
    """

    def __init__(self, a: SimpleOmegaPDA, w: LassoWord):
        self.a = a
        self.m = a.matrix
        self.pa = PositionAutomaton.of(w)
        self.l = a.buchi_count or 0
        self._build_steps()
        self._saturate()

    def _hit(self, state: int) -> bool:
        return state < self.l

    def _build_steps(self):
        moves, pa = self.m.moves, self.pa
        self.neutral = {}
        self.push = {}
        self.pop = {}
        for s in range(pa.size):
            by_state = moves.get(pa.letter(s), {}).items()
            self.neutral[s] = [(p, q) for p, (neu, _, _) in by_state for q, _c in neu]
            self.push[s] = [(p, sym, q) for p, (_, pu, _) in by_state for sym, q, _c in pu]
            self.pop[s] = [
                (p, sym, q)
                for p, (_, _, po) in by_state
                for sym, outs in po.items()
                for q, _c in outs
            ]

    def _saturate(self):
        """Level edges and pop facts, saturated together by one worklist.

        A level edge (p,s)->(q,t,bit) is a neutral step, or a push followed
        by a pop fact of the pushed symbol; a pop fact (p,sym,s)->(r,t,bit)
        is a pop step, or a level edge followed by a pop fact.  An edge or
        fact is stored when found and joined when taken from the worklist:
        an edge with the facts stored at its target, a fact with the edges
        stored into its node and with the pushes of its symbol that lead
        there.  So every edge meets every fact it can be followed by.
        Worklist items are (node, sym, fact), sym None marking an edge.
        """
        pa, hit = self.pa, self._hit
        pop_sum: dict[tuple[int, str, int], set] = {}
        facts_at: dict[tuple[int, int], list] = {}
        level1: dict[tuple[int, int], set] = {}
        edges_into: dict[tuple[int, int], list] = {}
        pushes_into: dict[tuple[int, str, int], list] = {}
        raw_push: dict[tuple[int, int], set] = {}
        work: list = []

        def add_fact(p, sym, s, fact):
            got = pop_sum.setdefault((p, sym, s), set())
            if fact not in got:
                got.add(fact)
                facts_at.setdefault((p, s), []).append((sym, fact))
                work.append(((p, s), sym, fact))

        def add_edge(node, edge):
            got = level1.setdefault(node, set())
            if edge not in got:
                got.add(edge)
                edges_into.setdefault(edge[:2], []).append((node, edge[2]))
                work.append((node, None, edge))

        for s in range(pa.size):
            s2 = pa.advance(s)
            for (p, q) in self.neutral[s]:
                add_edge((p, s), (q, s2, hit(q)))
            for (p, sym, q) in self.pop[s]:
                add_fact(p, sym, s, (q, s2, hit(q)))
            for (p, delta, q) in self.push[s]:
                pushes_into.setdefault((q, delta, s2), []).append((p, s))
                raw_push.setdefault((p, s), set()).add((q, s2, hit(q)))
        while work:
            node, sym, (q, t, bit) = work.pop()
            if sym is None:
                for sym2, (r, t2, h) in facts_at.get((q, t), ()):
                    add_fact(node[0], sym2, node[1], (r, t2, bit or h))
                continue
            p, s = node
            for src in pushes_into.get((p, sym, s), ()):
                add_edge(src, (q, t, bit or hit(p)))
            for src, h in edges_into.get(node, ()):
                add_fact(src[0], sym, src[1], (q, t, h or bit))
        self.pop_sum = pop_sum
        self.level1 = level1
        self.raw_push = raw_push


def _pda_run_exists(a: SimpleOmegaPDA, w: LassoWord, starts) -> bool:
    """Exact: does any run from the (state, stack) starts repeat a repeated state?

    Take the lowest stack height that an infinite run keeps returning to.
    Either the run comes back to it forever, a cycle of level edges, or it
    leaves every height for good, a cycle of level and push edges: each
    segment between two points where the stack never again gets lower is a
    level edge or a push whose symbol is never popped.  So the run graph over
    (state, position) has the level and push edges, and its sources are the
    regions where each start stack's cells are exposed, found by popping the
    start stack one cell at a time.
    """
    ra = _RunAnalysis(a, w)
    pa = ra.pa

    level = {n: [((q, t), True, h) for q, t, h in outs] for n, outs in ra.level1.items()}
    edges = {
        n: level.get(n, []) + [((q, t), True, h) for q, t, h in ra.raw_push.get(n, ())]
        for n in level.keys() | ra.raw_push.keys()
    }

    sources: set[tuple[int, int]] = set()
    for (state, stack) in starts:
        layer = {(state, pa.state_of(0))}
        for sym in stack:
            region = _reachable(level, layer)
            sources |= region.keys()
            layer = {
                (q, pa.advance(s))
                for (p, s) in region
                for (pp, psym, q) in ra.pop[s]
                if pp == p and psym == sym
            }
        sources |= layer
    return accepting_cycle_exists(edges, sources)


# -- serialization ------------------------------------------------------------


def _block_to_sparse(block: Block, names):
    out = []
    for i, row in enumerate(block):
        for j in sorted(row):
            for a, c in sorted(row[j].items()):
                out.append([names[i], names[j], a, raw_to_json(c.value)])
    return out


def pda_to_json(a: SimpleOmegaPDA) -> str:
    m = a.matrix
    doc = {
        "semiring": m.instance.name,
        "states": list(a.state_names),
        "input_alphabet": list(m.input_alphabet),
        "stack_alphabet": list(m.stack_alphabet),
        "neutral": _block_to_sparse(m.m_eps_eps, a.state_names),
        "push": {
            sym: _block_to_sparse(block, a.state_names)
            for sym, block in sorted(m.m_eps_push.items())
        },
        "pop": {
            sym: _block_to_sparse(block, a.state_names)
            for sym, block in sorted(m.m_pop_eps.items())
        },
        "initial": [raw_to_json(v.value) for v in a.initial],
        "final": [raw_to_json(v.value) for v in a.final],
        "buchi_count": a.buchi_count,
    }
    return json.dumps(doc, indent=2)


_JSON_KEYS = (
    "semiring",
    "states",
    "input_alphabet",
    "stack_alphabet",
    "neutral",
    "push",
    "pop",
    "initial",
    "final",
)


def pda_from_json(text: str) -> SimpleOmegaPDA:
    """Read `pda_to_json` output; IllFormedSystem names a malformed part."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise IllFormedSystem("automaton JSON must be an object")
    for key in _JSON_KEYS:
        if key not in doc:
            raise IllFormedSystem(f"automaton JSON has no {key!r} key")
    try:
        inst = instance_by_name(doc["semiring"])
    except SemiringError as exc:
        raise IllFormedSystem(f"'semiring': {exc}") from None

    def names_of(key):
        got = doc[key]
        if not (isinstance(got, list) and all(isinstance(x, str) for x in got)):
            raise IllFormedSystem(f"{key!r} must be a list of names, got {got!r}")
        return tuple(got)

    def weight(where, raw):
        try:
            return inst.value(raw_from_json(raw))
        except SemiringError as exc:
            raise IllFormedSystem(f"{where} has a bad weight: {exc}") from None

    def vector(key):
        if not isinstance(doc[key], list):
            raise IllFormedSystem(f"{key!r} must be a list of weights")
        return tuple(weight(f"{key!r}", v) for v in doc[key])

    names = names_of("states")
    ix = {s: i for i, s in enumerate(names)}
    n = len(names)

    def rows_of(where, entries):
        if not isinstance(entries, list):
            raise IllFormedSystem(f"{where} must be a list of transitions")
        cells: dict[tuple[int, int], list] = {}
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 4 and isinstance(entry[2], str)):
                raise IllFormedSystem(
                    f"{where} entry {entry!r} is not [src, dst, letter, weight]"
                )
            src, dst, letter, raw = entry
            for state in (src, dst):
                if not isinstance(state, str) or state not in ix:
                    raise IllFormedSystem(f"{where} entry {entry!r} names unknown state {state!r}")
            val = weight(f"{where} entry {entry!r}", raw)
            cells.setdefault((ix[src], ix[dst]), []).append((letter, val))
        return _rows(n, {k: _letter_sum(v) for k, v in cells.items()})

    def blocks_of(key):
        if not isinstance(doc[key], dict):
            raise IllFormedSystem(f"{key!r} must map stack symbols to transitions")
        return {sym: rows_of(f"{key} {sym!r}", e) for sym, e in doc[key].items()}

    buchi = doc.get("buchi_count")
    if buchi is not None and (isinstance(buchi, bool) or not isinstance(buchi, int)):
        raise IllFormedSystem(f"'buchi_count' must be an integer or null, got {buchi!r}")
    matrix = ResetPDMatrix(
        inst,
        n,
        names_of("input_alphabet"),
        names_of("stack_alphabet"),
        rows_of("neutral", doc["neutral"]),
        blocks_of("push"),
        blocks_of("pop"),
    )
    return SimpleOmegaPDA(matrix, vector("initial"), vector("final"), buchi, names)


def pda_to_dot(a: SimpleOmegaPDA) -> str:
    """Graphviz export; push is rendered as a down arrow, pop as up, neutral as #."""
    m = a.matrix
    lines = ["digraph pda {", "  rankdir=LR;"]
    for i, name in enumerate(a.state_names):
        shape = "doublecircle" if a.buchi_count is not None and i < a.buchi_count else "circle"
        extras = []
        if not a.initial[i].is_zero():
            extras.append("initial")
        if not a.final[i].is_zero():
            extras.append("final")
        label = name if not extras else f"{name}\\n({','.join(extras)})"
        lines.append(f'  "{name}" [shape={shape}, label="{label}"];')

    def emit(block, fmt):
        for i, row in enumerate(block):
            for j in sorted(row):
                for letter, c in sorted(row[j].items()):
                    weight = "" if c.is_one() else f":{raw_to_json(c.value)}"
                    lines.append(
                        f'  "{a.state_names[i]}" -> "{a.state_names[j]}" '
                        f'[label="{fmt(letter)}{weight}"];'
                    )

    emit(m.m_eps_eps, lambda letter: f"{letter} #")
    for sym, block in sorted(m.m_eps_push.items()):
        emit(block, lambda letter, s=sym: f"{letter} v{s}")
    for sym, block in sorted(m.m_pop_eps.items()):
        emit(block, lambda letter, s=sym: f"{letter} ^{s}")
    lines.append("}")
    return "\n".join(lines)
