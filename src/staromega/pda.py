"""Simple reset pushdown matrices and automata, finite and omega behaviors.

A simple reset pushdown matrix is stored by its three generating block
families (ignore stack / push one symbol / pop one symbol); every entry of
the infinite transition matrix follows from them by suffix extension (a
nonempty stack acts through its top symbol only).  A neutral or push block
maps a state to its sparse row, row i mapping each column j with a nonzero
letter polynomial to it, and only nonempty rows are stored, so those blocks
take space in their number of transitions.  Pops are stored by target
instead: a symbol's pop columns map each target state q to its column, which
maps each source state to its letter polynomial.  A column object may be
shared by many symbols, and `__post_init__` checks each object once.  The
induced construction pops every symbol on the same final letters, each into
its own home state, so all its symbols share one column: it stores (final
rows + stack symbols) pop entries, not their product, and `pda_to_json`
writes each column once with the symbols that pop through it.
`ResetPDMatrix.moves` indexes the neutral and push transitions by letter and
source state once, for the run enumerations; a run pops only the symbol on
its stack's top, so `_pops` reads the pops of (symbol, state) from that
symbol's columns.

The automaton of a Greibach normal form comes from one construction,
`_induced_matrix`: `induced_omega_pda` reads a mixed system's x-rules and
z-rows, and `induced_finite_pda` is the same construction on an algebraic
system with no z-rows.

Behaviors are exact on all four instances, counting included.  The finite
behavior sums the runs one position at a time over weighted (state, stack)
configurations.  The omega behavior at u v^omega sums the runs from the
initial vector on the grammar route's engine, `_search.derivation_items`:
the automaton is read as a lazy triple grammar over (state,
period-quotient position) pairs, whose variables are the stack symbols
("popped eventually") and one level variable, and whose terminals are the
moves (the triple-pair construction of Droste, Esik and Kuich 2017; its
facts are the weighted pop summaries of Reps, Schwoon, Jha and Melski
2005).  Work is demand-driven, so a node's moves are read only once a run
reaches it, and pop summaries are built only where a push can use them.  A
run starts on the empty stack, and it returns to its lowest recurring
stack height forever or leaves every height for good, so its weight is
that of a path of level steps and never-popped pushes (the repeating heads
of Bouajjani, Esparza and Maler 1997): the raw z-steps of one z-row, every
one a letter edge, which `_search.lasso_value` sums over with the grammar
route's zero test and read-off, omega_t per strongly connected component.
No answer depends on a cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from . import _search
from .semiring import (
    SemiringError,
    SemiringInstance,
    SemiringValue,
    _scalar,
    instance_by_name,
    raw_from_json,
    raw_to_json,
)
from .series import LassoWord, Word
from .system import (
    OK,
    AlgebraicSystem,
    IllFormedSystem,
    LassoResult,
    MixedSystem,
    SemanticFailure,
    is_gnf_algebraic,
    is_gnf_mixed,
)

# A letter polynomial: one weight per input letter, support only on letters.
LetterPoly = dict[str, SemiringValue]
# Sparse rows: block[i] maps column j to a nonzero letter polynomial.  Only
# nonempty rows are stored; an absent row reads as empty.
Block = dict[int, dict[int, LetterPoly]]
# Pops of one symbol by target: columns[q] maps each source state p to the
# nonzero letter polynomial of popping from p into q.  A Block transposed;
# only nonempty columns are stored, and symbols may share a column object.
Columns = dict[int, dict[int, LetterPoly]]


class EpsilonCoefficient(SemanticFailure):
    """Raised when a construction needs an epsilon-free component."""

    def __init__(self, component: str, coeff: SemiringValue):
        super().__init__(
            f"component {component} has nonzero empty-word coefficient {coeff!r}"
        )
        self.component = component
        self.coeff = coeff


def _rows(cells: Mapping[tuple[int, int], LetterPoly]) -> Block:
    """Sparse block of the given cells; empty cells and rows are left out."""
    rows: Block = {}
    for (i, j), lp in cells.items():
        if lp:
            rows.setdefault(i, {})[j] = lp
    return rows


def transpose(block: Block) -> Block:
    """The block with rows and columns swapped: a row-major pop block's
    columns, or a symbol's pop columns as its row-major block."""
    out: Block = {}
    for i, row in block.items():
        for j, lp in row.items():
            out.setdefault(j, {})[i] = lp
    return out


_NO_COLUMNS: Columns = {}


@dataclass(frozen=True)
class ResetPDMatrix:
    """Finite block presentation of a simple reset pushdown matrix.

    The neutral block and every push block map a state i to its sparse row:
    block[i] maps a column j to its nonzero letter polynomial.  pop_columns
    maps a stack symbol to its pops by target (`Columns`); `transpose` turns
    a row-major pop block into them.  Only nonempty rows and columns are
    stored, and absent ones are zero.
    """

    instance: SemiringInstance
    n_states: int
    input_alphabet: tuple[str, ...]
    stack_alphabet: tuple[str, ...]
    m_eps_eps: Block
    m_eps_push: Mapping[str, Block]
    pop_columns: Mapping[str, Columns]

    def __post_init__(self):
        for sym in list(self.m_eps_push) + list(self.pop_columns):
            if sym not in self.stack_alphabet:
                raise IllFormedSystem(f"unknown stack symbol {sym!r}")
        states = range(self.n_states)
        blocks = (self.m_eps_eps, *self.m_eps_push.values())
        lines = [(i, row, "row") for b in blocks for i, row in b.items()]
        lines += [
            (q, column, "column")
            for columns in self.pop_columns.values()
            for q, column in columns.items()
        ]
        inst, letters, zero = self.instance, set(self.input_alphabet), self.instance.zero_raw()
        # a line object stored under several states or symbols is read once
        checked = set()
        for k, line, kind in lines:
            if k not in states:
                raise IllFormedSystem(f"block {kind} {k!r} out of range")
            if id(line) in checked:
                continue
            checked.add(id(line))
            if not line:
                raise IllFormedSystem(f"empty {kind}s must be omitted")
            for j, lp in line.items():
                if j not in states:
                    other = "column" if kind == "row" else "row"
                    raise IllFormedSystem(f"block {other} {j!r} out of range")
                if not lp:
                    raise IllFormedSystem("zero entries must be omitted")
                for a, c in lp.items():
                    if a not in letters:
                        raise IllFormedSystem(f"unknown input letter {a!r}")
                    if c.instance is not inst:
                        raise SemiringError("block entry over a different instance")
                    # the infinities have no __eq__, so == is identity on them
                    if c.value == zero:
                        src, dst = (k, j) if kind == "row" else (j, k)
                        raise IllFormedSystem(
                            f"zero weight from state {src} to {dst} on {a!r} must be omitted"
                        )

    @cached_property
    def moves(self) -> dict[str, dict[int, tuple[list, list]]]:
        """Neutral and push transitions by letter, then source state, indexed once.

        moves[letter][p] holds the neutral moves [(q, c)] and the pushes
        [(sym, q, c)], each block's targets in ascending order.  Pops are
        not indexed: a run pops only the symbol on its stack's top, so
        `_pops` reads them from that symbol's columns.
        """
        index: dict[str, dict[int, tuple[list, list]]] = {}

        def cells(block):
            for p, row in block.items():
                for q in sorted(row):
                    for letter, c in row[q].items():
                        by_state = index.setdefault(letter, {})
                        if p not in by_state:
                            by_state[p] = ([], [])
                        yield by_state[p], q, c

        for at, q, c in cells(self.m_eps_eps):
            at[0].append((q, c))
        for sym, block in self.m_eps_push.items():
            for at, q, c in cells(block):
                at[1].append((sym, q, c))
        return index


def _pops(m: ResetPDMatrix, sym: str, state: int, letter: str) -> list:
    """Pop steps (q, c) of sym from state on letter, read from sym's columns."""
    out = []
    for q, column in m.pop_columns.get(sym, _NO_COLUMNS).items():
        lp = column.get(state)
        if lp is not None and letter in lp:
            out.append((q, lp[letter]))
    return out


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
    """Sum of (letter, coefficient) monomials per letter, zero sums left out."""
    if len(polys) == 1:
        # a stored monomial is nonzero
        ((letter, coeff),) = polys
        return {letter: coeff}
    out: dict[str, SemiringValue] = {}
    for letter, coeff in polys:
        prev = out.get(letter)
        out[letter] = coeff if prev is None else prev + coeff
    return {a: c for a, c in out.items() if not c.is_zero()}


def _check_eps_free(sys: AlgebraicSystem) -> None:
    for idx, p in enumerate(sys.rhs):
        c = p.coeff_of(())
        if not c.is_zero():
            raise EpsilonCoefficient(sys.variables[idx], c)


def _induced_matrix(xs: AlgebraicSystem, rho, x_syms: tuple, z_syms: tuple) -> ResetPDMatrix:
    """The reset pushdown matrix read off the Greibach monomials of xs and rho.

    States are the z-variables, then the x-variables, then the sink; every
    variable also has a stack symbol.  A monomial is read as its letter and
    the variables after it, those of a rho entry in column k followed by
    z_k: no variable makes a final letter, one a neutral step to its state,
    two a push of the second's symbol into the first's state.  Every state
    with a final letter steps to the sink on it, and on it pops each stack
    symbol into that symbol's variable state: every symbol's one pop column
    is the same object, the final letters by state.
    """
    nz = len(z_syms)
    sink = nz + len(x_syms)
    var = {v: (nz + j, sym) for j, (v, sym) in enumerate(zip(xs.variables, x_syms))}
    rules = [(nz + i, p, ()) for i, p in enumerate(xs.rhs)]
    rules += [(i, p, ((k, z_syms[k]),)) for i, row in enumerate(rho) for k, p in row.items()]
    term: dict[int, list] = {}
    eps_eps: dict[tuple[int, int], list] = {}
    pushes: dict[str, dict[tuple[int, int], list]] = {sym: {} for sym in x_syms + z_syms}
    for src, p, after in rules:
        for mono in p.monomials:
            w = mono.word
            step = (w[0], mono.coeff)
            tail = tuple(var[v] for v in w[1:]) + after
            if not tail:
                term.setdefault(src, []).append(step)
            elif len(tail) == 1:
                eps_eps.setdefault((src, tail[0][0]), []).append(step)
            else:
                pushes[tail[1][1]].setdefault((src, tail[0][0]), []).append(step)

    finals = {i: lp for i, t in term.items() if (lp := _letter_sum(t))}
    m_eps_eps = {k: _letter_sum(v) for k, v in eps_eps.items()}
    m_eps_eps.update(((i, sink), lp) for i, lp in finals.items())
    m_push = {
        sym: _rows({k: _letter_sum(v) for k, v in d.items()})
        for sym, d in pushes.items()
        if d
    }
    homes = list(var.values()) + list(enumerate(z_syms))
    m_pop = {sym: {q: finals} for q, sym in homes if finals}
    return ResetPDMatrix(
        xs.instance,
        sink + 1,
        tuple(xs.terminals),
        x_syms + z_syms,
        _rows(m_eps_eps),
        m_push,
        m_pop,
    )


def induced_finite_pda(sys: AlgebraicSystem, start: int) -> SimpleOmegaPDA:
    """Simple reset pushdown automaton reading off a Greibach-shaped system.

    `_induced_matrix` with no z-variables: one state per variable plus a
    sink, the variable names as stack symbols; the second trailing variable
    of a monomial is pushed, the first becomes the next state.
    """
    if not is_gnf_algebraic(sys, allow_eps=True):
        raise IllFormedSystem("induced automaton needs a Greibach-shaped system")
    _check_eps_free(sys)
    one, zero = sys.instance.one, sys.instance.zero
    matrix = _induced_matrix(sys, (), tuple(sys.variables), ())
    n = matrix.n_states
    initial = tuple(one if q == start else zero for q in range(n))
    final = (zero,) * (n - 1) + (one,)
    # the sink is "f", primed until no variable has its name
    sink = "f"
    while sink in sys.variables:
        sink += "'"
    names = tuple(sys.variables) + (sink,)
    return SimpleOmegaPDA(matrix, initial, final, None, names)


def induced_omega_pda(
    sys: MixedSystem, start: int, buchi_count: int, finite: int | None = None
) -> SimpleOmegaPDA:
    """Simple omega-reset pushdown automaton of a Greibach-shaped mixed system.

    `_induced_matrix` with the z-rows: states are the omega variables
    (repeated ones first), then the finite variables, then a sink; the stack
    distinguishes finite-return (X:) from omega-return (Z:) symbols.  The
    initial weight is one on z-variable `start` and, if given, on x-variable
    `finite`, whose series is then the automaton's finite behavior.
    """
    if not is_gnf_mixed(sys):
        raise IllFormedSystem(
            "induced automaton needs a mixed system in Greibach form; run the normal form first"
        )
    _check_eps_free(sys.x)
    if not 0 <= buchi_count <= sys.m:
        raise IllFormedSystem("repeated-state count out of range")
    one, zero = sys.x.instance.one, sys.x.instance.zero
    xsym = tuple(f"X:{v}" for v in sys.x.variables)
    zsym = tuple(f"Z:{v}" for v in sys.z_vars)
    matrix = _induced_matrix(sys.x, sys.rho, xsym, zsym)
    n = matrix.n_states
    starts = {start} if finite is None else {start, sys.m + finite}
    initial = tuple(one if q in starts else zero for q in range(n))
    final = (zero,) * (n - 1) + (one,)
    names = tuple(f"z:{v}" for v in sys.z_vars) + tuple(f"x:{v}" for v in sys.x.variables) + ("f",)
    return SimpleOmegaPDA(matrix, initial, final, buchi_count, names)


# -- behaviors ----------------------------------------------------------------


def _successors(m: ResetPDMatrix, state: int, stack: Word, letter: str):
    neutral, push = m.moves.get(letter, {}).get(state, ((), ()))
    for j, c in neutral:
        yield j, stack, c
    for sym, j, c in push:
        yield j, (sym,) + stack, c
    if stack:
        for j, c in _pops(m, stack[0], state, letter):
            yield j, stack[1:], c


def behavior_finite(a: SimpleOmegaPDA, w: Word) -> SemiringValue:
    """Exact weight of w: sum over all empty-to-empty runs, one letter per step.

    One sweep by position over the weighted (state, stack) configurations
    that the runs reach.  Each step pops at most one symbol, so a stack
    taller than the letters left never empties and is dropped.
    """
    inst, m = a.instance, a.matrix
    add, mul = inst.add_raw, inst.mul_raw
    configs = {(q, ()): c.value for q, c in enumerate(a.initial) if not c.is_zero()}
    for pos, letter in enumerate(w):
        left = len(w) - pos - 1
        nxt: dict[tuple[int, Word], object] = {}
        for (state, stack), v in configs.items():
            for j, stack2, c in _successors(m, state, stack, letter):
                if len(stack2) <= left:
                    key, vc = (j, stack2), mul(v, c.value)
                    nxt[key] = add(nxt[key], vc) if key in nxt else vc
        configs = nxt
    total = inst.zero_raw()
    for (state, stack), v in configs.items():
        if not stack:
            total = add(total, mul(v, a.final[state].value))
    return _scalar(inst, total)


def behavior_omega_lasso(a: SimpleOmegaPDA, w: LassoWord) -> LassoResult:
    """Omega part of the behavior at u v^omega, exactly.

    The sum over the accepting runs from the initial vector, read off the
    value graph of `_value_graph`.
    """
    if a.buchi_count is None:
        raise IllFormedSystem("automaton has no repeated-state count")
    inst = a.instance
    return LassoResult(OK, _scalar(inst, _search.lasso_value(inst, *_value_graph(a, w))))


# the level variable L: never a stack symbol, hashed alike in every process
_LEVEL = ("level",)


def _value_graph(a: SimpleOmegaPDA, w: LassoWord):
    """The automaton's runs over u v^omega from its initial vector, as the
    z-steps of one z-row of a lazy triple grammar.

    Positions are (state, quotient position) pairs, and every move is a
    terminal: its target state q, read at (p, s) as the step to
    (q, s + 1) whose bit says that q is repeated.  A stack symbol A is the
    variable "A is eventually popped", A -> pop_A | L A, and the one level
    variable L covers a neutral step or a push-excursion, L -> neutral |
    push_B B (the triple-pair construction of Droste, Esik and Kuich 2017,
    with the states moved into the positions).  The z-row, 0, reads the
    level monomials itself and the pushes that are never popped.  A run
    starts on the empty stack, and every infinite run splits at the points
    where the stack never again gets lower into such steps, so its runs are
    the paths of the z-steps.  Returns the value graph {position: [(target,
    raw weight, hit, letter)]}, every edge a letter edge, and its raw
    sources, the initial vector's nonzero entries at quotient position 0.
    """
    m, pa, l = a.matrix, _search.PositionAutomaton.of(w), a.buchi_count
    s0 = pa.state_of(0)
    sources = {(q, s0): c.value for q, c in enumerate(a.initial) if not c.is_zero()}
    letters = [pa.letter(s) for s in range(pa.size)]
    advance = [pa.advance(s) for s in range(pa.size)]
    variables = {_LEVEL, *m.stack_alphabet}

    def step(node, q):
        return (q, advance[node[1]]), q < l

    def monomials_at(lhs, node):
        p, s = node
        letter = letters[s]
        if lhs is not _LEVEL and lhs in variables:
            out = [(lhs, c.value, (q,)) for q, c in _pops(m, lhs, p, letter)]
            out.append((lhs, None, (_LEVEL, lhs)))
            return out
        neutral, push = m.moves.get(letter, {}).get(p, ((), ()))
        level = _LEVEL if lhs is _LEVEL else (0, 0)
        out = [(level, c.value, (q,)) for q, c in neutral]
        out += [(level, c.value, (q, sym)) for sym, q, c in push]
        if lhs is not _LEVEL:
            out += [((0, 0), c.value, (q,)) for _sym, q, c in push]
        return out

    demand = [(0, node) for node in sources]
    _, steps = _search.derivation_items(a.instance, variables, monomials_at, step, demand)
    edges = {
        node: [(target, c, bit, True) for (_row, target, bit), c in outs.items()]
        for (_row, node), outs in steps.items()
    }
    return edges, sources


# -- serialization ------------------------------------------------------------


def _block_to_sparse(block: Block, names):
    out = []
    for i in sorted(block):
        row = block[i]
        for j in sorted(row):
            for a, c in sorted(row[j].items()):
                out.append([names[i], names[j], a, raw_to_json(c.value)])
    return out


def _pop_groups(m: ResetPDMatrix, names) -> list:
    """Pops as groups {"from": [[src, letter, weight], ...], "to": {symbol:
    target}}: one group per column object, with every symbol that pops
    through it, and one more where a symbol pops through it twice."""
    groups: list[tuple[dict, dict]] = []
    targets_of: dict[int, list] = {}
    for sym in sorted(m.pop_columns):
        columns = m.pop_columns[sym]
        for q in sorted(columns):
            maps = targets_of.setdefault(id(columns[q]), [])
            to = next((to for to in maps if sym not in to), None)
            if to is None:
                to = {}
                maps.append(to)
                groups.append((columns[q], to))
            to[sym] = names[q]
    return [
        {
            "from": [
                [names[p], a, raw_to_json(c.value)]
                for p in sorted(column)
                for a, c in sorted(column[p].items())
            ],
            "to": to,
        }
        for column, to in groups
    ]


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
        "pop": _pop_groups(m, a.state_names),
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
    """Read `pda_to_json` output, or the row-major pops of earlier files;
    IllFormedSystem names a malformed part."""
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
        if len(set(got)) != len(got):
            twice = next(x for i, x in enumerate(got) if x in got[:i])
            raise IllFormedSystem(f"{key!r} names {twice!r} twice")
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

    def cells_of(where, entries, fields):
        # fields name an entry's parts, its states first: (src, dst) for a
        # row-major block, (src) for a pop column.  Weights are summed per
        # cell and letter as read; zero weights are left for ResetPDMatrix
        # to reject, so each is tested once.
        if not isinstance(entries, list):
            raise IllFormedSystem(f"{where} must be a list of transitions")
        cells: dict = {}
        for entry in entries:
            if not (
                isinstance(entry, list) and len(entry) == len(fields) and isinstance(entry[-2], str)
            ):
                raise IllFormedSystem(f"{where} entry {entry!r} is not [{', '.join(fields)}]")
            *path, letter, raw = entry
            for state in path:
                if not isinstance(state, str) or state not in ix:
                    raise IllFormedSystem(f"{where} entry {entry!r} names unknown state {state!r}")
            val = weight(f"{where} entry {entry!r}", raw)
            cell = cells
            for state in path:
                cell = cell.setdefault(ix[state], {})
            cell[letter] = cell[letter] + val if letter in cell else val
        return cells

    def rows_of(where, entries):
        return cells_of(where, entries, ("src", "dst", "letter", "weight"))

    def blocks_of(key):
        if not isinstance(doc[key], dict):
            raise IllFormedSystem(f"{key!r} must map stack symbols to transitions")
        return {sym: rows_of(f"{key} {sym!r}", e) for sym, e in doc[key].items()}

    def pop_columns():
        pops = doc["pop"]
        columns: dict[str, Columns] = {}
        if isinstance(pops, dict):
            # the row-major form {symbol: [[src, dst, letter, weight], ...]}
            # of earlier files: equal columns become one object as they load
            shared: dict[tuple, dict] = {}
            for sym, block in blocks_of("pop").items():
                for q, column in transpose(block).items():
                    key = tuple((p, tuple(sorted(lp.items()))) for p, lp in sorted(column.items()))
                    columns.setdefault(sym, {})[q] = shared.setdefault(key, column)
            return columns
        if not isinstance(pops, list):
            raise IllFormedSystem("'pop' must be a list of pop groups")
        for k, group in enumerate(pops):
            where = f"pop group {k}"
            if not (
                isinstance(group, dict) and "from" in group and isinstance(group.get("to"), dict)
            ):
                raise IllFormedSystem(f"{where} must be an object with 'from' and 'to' keys")
            column = cells_of(where, group["from"], ("src", "letter", "weight"))
            for sym, dst in group["to"].items():
                if not isinstance(dst, str) or dst not in ix:
                    raise IllFormedSystem(f"{where} pops {sym!r} into unknown state {dst!r}")
                into = columns.setdefault(sym, {})
                if ix[dst] in into:
                    raise IllFormedSystem(f"{where} pops {sym!r} into {dst!r} a second time")
                into[ix[dst]] = column
        return columns

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
        pop_columns(),
    )
    return SimpleOmegaPDA(matrix, vector("initial"), vector("final"), buchi, names)


def pda_to_dot(a: SimpleOmegaPDA) -> str:
    """Graphviz export; push is rendered as a down arrow, pop as up, neutral as #.

    Pops are drawn by `_pop_groups`.  A group that pops into more than one
    (symbol, target) pair is drawn once, as a point: an edge from each
    source on its letter, and an edge ^symbol to each target, so the
    drawing stays linear in the stored pops.
    """
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
        for i in sorted(block):
            row = block[i]
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
    names, one = a.state_names, raw_to_json(m.instance.one_raw())
    # points are named by a prefix that no state name starts with
    prefix = "^"
    while any(name.startswith(prefix) for name in names):
        prefix += "^"
    for k, group in enumerate(_pop_groups(m, names)):
        sources = [(p, letter, "" if w == one else f":{w}") for p, letter, w in group["from"]]
        if len(group["to"]) == 1:
            ((sym, q),) = group["to"].items()
            lines += [f'  "{p}" -> "{q}" [label="{x} ^{sym}{w}"];' for p, x, w in sources]
            continue
        hub = f"{prefix}{k}"
        lines.append(f'  "{hub}" [shape=point, label=""];')
        lines += [f'  "{p}" -> "{hub}" [label="{x}{w}"];' for p, x, w in sources]
        lines += [f'  "{hub}" -> "{q}" [label="^{sym}"];' for sym, q in group["to"].items()]
    lines.append("}")
    return "\n".join(lines)
