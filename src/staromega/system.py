"""Equation systems over series and their canonical solutions.

An omega-algebraic system y = p(y) is written as an algebraic system is,
so one type, `AlgebraicSystem`, holds both; a grammar file's sort says
which one it is, and `induce_mixed` splits a y-system into its finite part
and its z-linear part.

Algebraic systems x = p(x) are solved for their finite parts one word
length at a time (`least_solution_finite`).  Omega-parts of mixed systems
are evaluated exactly at ultimately periodic words u v^omega on
`_search.derivation_items`, the engine that the automaton route runs on
too: the weighted Bar-Hillel product of the grammar with the period
quotient, built on demand from the start.  It returns raw weights by node:
the x-facts, the derivation weights of the (variable, position) pairs that
the start reaches, and the z-steps, the z-coefficients evaluated on them
at the (z-variable, position) nodes that the start reaches.  The z-steps
are the edges of the graph that `_search.lasso_value` reads the value off,
as it reads an automaton's: an edge may consume no letter, and the
read-off sums such edges itself, by the omega_t of each strongly connected
component, so the value is exact on all four instances, counting included.
A finite word is the quotient without a period, so the coefficients of its
segments (`SegmentTable`) are the x-facts of every pair, and the empty
word's are the empty-word coefficients that the finite solution reads
raw and the normal form reads wrapped (`eps_coefficients`).  Weights stay
raw until `support_triples` and `canonical_omega_lasso` return them.  No
answer depends on a cap.

The z-coefficient matrix rho of a mixed system z = rho(x) z is stored
sparsely: one row per z-variable, each a mapping from column index to a
nonzero polynomial.  Absent cells are zero, and every consumer walks the
stored entries only, so the block-diagonal sums built by the normal form
pipeline cost time in their nonzero entries, not in the square of their
z-variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Mapping, Sequence

from ._search import PositionAutomaton, derivation_items, lasso_value
from .matrix import _scalars, _star
from .semiring import Ext, SemiringError, SemiringInstance, SemiringValue, _scalar
from .series import (
    Alphabet,
    LassoWord,
    Polynomial,
    TruncatedSeries,
    Word,
    split_px,
)


class SemanticFailure(Exception):
    """A well-formed request that the system at hand cannot satisfy."""


class IllFormedSystem(SemanticFailure):
    pass


@dataclass(frozen=True)
class AlgebraicSystem:
    """x = p(x): one polynomial over terminals and variables per variable."""

    instance: SemiringInstance
    terminals: tuple[str, ...]
    variables: tuple[str, ...]
    rhs: tuple[Polynomial, ...]

    def __post_init__(self):
        Alphabet(self.terminals, self.variables)
        if len(self.rhs) != len(self.variables):
            raise IllFormedSystem("one equation per variable required")
        allowed = set(self.terminals).union(self.variables)
        inst = self.instance
        used: set[str] = set()
        for p in self.rhs:
            if p.instance is not inst:
                break
            for m in p.monomials:
                used.update(m.word)
        else:
            if used <= allowed:
                return
        # report the first faulty equation, as a per-equation check would
        for v, p in zip(self.variables, self.rhs):
            if p.instance is not inst:
                raise SemiringError("equation over a different instance")
            bad = p.symbols() - allowed
            if bad:
                raise IllFormedSystem(f"equation for {v} uses undeclared symbols {sorted(bad)}")

    @cached_property
    def greibach(self) -> bool | None:
        """`greibach_shape` of every word, scanned once per system."""
        words = (m.word for p in self.rhs for m in p.monomials)
        return greibach_shape(self.terminals, self.variables, words)

    def rename(self, mapping: Mapping[str, str]) -> "AlgebraicSystem":
        return AlgebraicSystem(
            self.instance,
            self.terminals,
            tuple(mapping.get(v, v) for v in self.variables),
            tuple(p.rename_symbols(mapping) for p in self.rhs),
        )


@dataclass(frozen=True)
class MixedSystem:
    """The algebraic system x = p(x), the finite part, plus the z-linear
    system z = rho(x) z.

    rho[i] maps the column index j of each nonzero entry rho(x)[i][j] to its
    polynomial; cells that are not stored are zero.  x is checked when it is
    built, so only the z-rows are checked here, and systems that share one
    finite part hold the same object.
    """

    x: AlgebraicSystem
    z_vars: tuple[str, ...]
    rho: tuple[Mapping[int, Polynomial], ...]

    def __post_init__(self):
        m = len(self.z_vars)
        if len(self.rho) != m:
            raise IllFormedSystem("z-coefficient matrix needs one row per z-variable")
        allowed = set(self.x.terminals) | set(self.x.variables)
        for row in self.rho:
            for j, p in row.items():
                if not (isinstance(j, int) and 0 <= j < m):
                    raise IllFormedSystem(f"z-entry column {j!r} out of range 0..{m - 1}")
                if p.is_zero():
                    raise IllFormedSystem("zero z-entries are not stored")
                if p.instance is not self.x.instance:
                    raise SemiringError("z-entry over a different instance")
                bad = p.symbols() - allowed
                if bad:
                    raise IllFormedSystem(f"z-entry uses undeclared symbols {sorted(bad)}")
        if not allowed.isdisjoint(self.z_vars):
            raise IllFormedSystem("z-variable names clash with the finite alphabet")

    @property
    def m(self) -> int:
        return len(self.z_vars)

    @cached_property
    def is_gnf(self) -> bool:
        """Mixed Greibach normal form, tested once per system: every x-word
        is empty or a terminal followed by at most two x-variables, and every
        z-coefficient word is a terminal, optionally followed by one
        x-variable."""
        if not is_gnf_algebraic(self.x, allow_eps=True):
            return False
        ts, vs = set(self.x.terminals), set(self.x.variables)
        for row in self.rho:
            for p in row.values():
                for m in p.monomials:
                    w = m.word
                    if len(w) == 1 and w[0] in ts:
                        continue
                    if len(w) == 2 and w[0] in ts and w[1] in vs:
                        continue
                    return False
        return True


@dataclass(frozen=True)
class CanonicalSelector:
    """Which canonical solution (Buchi count) and which component to read."""

    buchi_count: int
    component: int


def sparse_row(instance: SemiringInstance, terms: Mapping[int, list]) -> dict[int, Polynomial]:
    """One z-coefficient row from (coefficient, word) terms per column, zeros dropped."""
    row = {j: Polynomial.build(instance, terms[j]) for j in sorted(terms)}
    return {j: p for j, p in row.items() if not p.is_zero()}


def derived_names(y_vars: Sequence[str], taken: set[str], head: str) -> tuple[str, ...]:
    """Deterministic fresh names: y1 -> x1 style when free, else prefixed."""
    out = []
    for v in y_vars:
        cand = head + v[1:] if v[:1] == "y" else f"{head}_{v}"
        while cand in taken or cand in out:
            cand = cand + "_"
        out.append(cand)
    return tuple(out)


def induce_mixed(sys: AlgebraicSystem) -> MixedSystem:
    """Split a y-system y = p(y) into its finite part and the induced z-linear part."""
    taken = set(sys.terminals) | set(sys.variables)
    x_names = derived_names(sys.variables, taken, "x")
    z_names = derived_names(sys.variables, taken | set(x_names), "z")
    x_of = dict(zip(sys.variables, x_names))
    z_of = dict(zip(sys.variables, z_names))
    z_ix = {z: j for j, z in enumerate(z_names)}
    rows = []
    for p in sys.rhs:
        terms: dict[int, list] = {}
        for mono in split_px(p, sys.variables, x_of, z_of).monomials:
            if mono.word and mono.word[-1] in z_ix:
                terms.setdefault(z_ix[mono.word[-1]], []).append((mono.coeff, mono.word[:-1]))
        rows.append(sparse_row(sys.instance, terms))
    return MixedSystem(sys.rename(x_of), z_names, tuple(rows))


# -- Greibach normal form predicates ----------------------------------------


def greibach_shape(
    terminals: Sequence[str], variables: Sequence[str], words: Iterable[Word]
) -> bool | None:
    """None when some word is neither empty nor a terminal followed by at
    most two variables; else whether some word is empty."""
    ts, vs = set(terminals), set(variables)
    eps = False
    for w in words:
        if not w:
            eps = True
        elif w[0] not in ts or len(w) > 3 or not vs.issuperset(w[1:]):
            return None
    return eps


def is_gnf_algebraic(sys: AlgebraicSystem, allow_eps: bool = False) -> bool:
    """Every word is a terminal followed by at most two variables, or empty
    where allow_eps; answered once per system object."""
    shape = sys.greibach
    return shape is not None and (allow_eps or not shape)


def is_gnf_omega(sys: AlgebraicSystem) -> bool:
    return is_gnf_algebraic(sys, allow_eps=True)


def is_gnf_mixed(sys: MixedSystem) -> bool:
    return sys.is_gnf


# -- finite parts ------------------------------------------------------------


def eps_coefficients(sys: AlgebraicSystem) -> list[SemiringValue]:
    """Least solution of the empty-word part, one scalar per variable: the
    derivation weights of the empty word, `support_triples` on the quotient
    of the word () read at (variable, 0) -> (0, no letter).

    `_search.solve_derivations` weighs them exactly, as it weighs words and
    lassos: a counting cycle of nullable variables is inf, and so is an
    arctic cycle that gains weight.  No answer depends on a cap.
    """
    empty = support_triples(sys, PositionAutomaton.finite(()))
    zero = sys.instance.zero
    return [empty[(v, 0)].get((0, False), zero) for v in sys.variables]


def productive_components(sys: AlgebraicSystem) -> set[str]:
    """Variables whose least-solution component is not the zero series."""
    return productive_variables(
        sys.variables, ([m.word for m in p.monomials] for p in sys.rhs)
    )


def productive_variables(
    variables: Sequence[str], words: Iterable[Iterable[Word]]
) -> set[str]:
    """The productive variables of equations given by their words, one
    iterable of words per variable.

    A worklist: each word counts its distinct variables not yet known to
    be productive, and each variable lists the words that use it, so a
    word is touched once per variable and its owner turns productive when
    the count reaches zero.
    """
    owners: list[str] = []
    waiting: list[int] = []
    users: dict[str, list[int]] = {v: [] for v in variables}
    productive: set[str] = set()
    work: list[str] = []
    for v, row in zip(variables, words):
        for word in row:
            needs = users.keys() & set(word)
            if not needs:
                if v not in productive:
                    productive.add(v)
                    work.append(v)
                continue
            for x in needs:
                users[x].append(len(owners))
            owners.append(v)
            waiting.append(len(needs))
    while work:
        for i in users[work.pop()]:
            waiting[i] -= 1
            if waiting[i] == 0 and owners[i] not in productive:
                productive.add(owners[i])
                work.append(owners[i])
    return productive


def least_solution_finite(sys: AlgebraicSystem, max_len: int) -> list[TruncatedSeries]:
    """Coefficients of the least solution on all words up to max_len.

    Solved one word length at a time (Kuich and Salomaa 1986).  The
    empty-word coefficients e come first: the derivation weights of the
    empty word, read raw off `_derivation_items` on its quotient, exact on
    every instance, inf where a counting cycle of nullable variables or an
    arctic cycle that gains weight pumps them up.  A word of length L >= 1
    splits over a monomial in one of two ways.  Either one variable takes
    all of it and every other symbol, a variable, takes the empty word:
    that is the unit matrix U, where U[i][j] sums c * prod e over the other
    variables of x_i's monomials.  Or every symbol takes a shorter factor:
    that is r[L], read off the words shorter than L.  So the words of
    length L are U* r[L] in every component, with one matrix star of U for
    all lengths, exact on every instance: a chain loop that pumps its
    weight up gives inf, where Kleene rounds never settle.  Unproductive
    variables are dropped first, and a monomial is read only at the lengths
    between its shortest and its longest word.

    A stratum, the words of one length in one component, maps each word's
    code, the word read in base k (the number of terminals), to its raw
    coefficient, never zero, as no instance has zero divisors.  Appending a
    factor of length m to w gives w * k**m plus the factor's code, and the
    instance's `concat_raw` does it for every pair of words of two strata;
    a partial product keeps its words by length, so each group finds the
    lengths of its next factor once.  Codes are decoded once, at the end.
    """
    inst = sys.instance
    n = len(sys.variables)
    add, mul, concat = inst.add_raw, inst.mul_raw, inst.concat_raw
    zero, one = inst.zero_raw(), inst.one_raw()
    ix = {v: i for i, v in enumerate(sys.variables)}
    # every monomial with the indices of its variables; a variable is
    # productive once a monomial of it uses productive variables only
    monos = [(i, m.coeff.value, m.word, [ix[s] for s in m.word if s in ix])
             for i, p in enumerate(sys.rhs) for m in p.monomials]
    live, size = set(), -1
    while len(live) > size:
        size = len(live)
        live.update([i for i, _c, _w, uses in monos if live.issuperset(uses)])
    if not live:
        return [TruncatedSeries(inst, max_len, {})] * n
    # the productive monomials: a variable-free word goes straight into its
    # stratum, a terminal-free one (variable indices) feeds e and U, and one
    # with a variable that is not alone is read by length
    consts: dict[int, list[dict]] = {}
    free, products = [], []
    for i, c, w, uses in monos:
        if i not in live:
            continue
        if not uses:
            if w and len(w) <= max_len:
                consts.setdefault(len(w), [{} for _ in range(n)])[i][w] = c
            elif not w:
                free.append((i, c, uses))
        elif live.issuperset(uses):
            if len(uses) == len(w):
                free.append((i, c, uses))
            if len(w) > 1:
                products.append((i, c, w))
    eps = [zero] * n
    nullable = any(not uses for _i, _c, uses in free)
    if nullable:
        demand = [(sys.variables[i], 0) for i in live]
        x_facts, _ = _derivation_items(sys, PositionAutomaton.finite(()), (), demand)
        for i in live:
            eps[i] = x_facts[(sys.variables[i], 0)].get((0, False), zero)

    unit: dict[tuple[int, int], object] = {}
    for i, c, uses in free:
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

    # strata[i][L]: the words of length L in component i, by code.  Without
    # products no word is extended, so a word is its own code, () the empty
    # one, and U* scales a stratum by concat_raw(out, {(): u}, 1, stratum)
    empty = 0 if products else ()
    strata = [[{empty: e} if e != zero else {}] for e in eps]
    progs = []
    if products:
        # the shortest and longest words of each component, capped at
        # max_len + 1, which stands for every longer length too.  A longest
        # length that still grows after as many rounds as there are
        # variables has a pump x =>* u x v, |uv| > 0, under it: unbounded.
        # A monomial with an unproductive variable is never read
        cap = max_len + 1
        low, high = [cap] * n, [-1] * n
        shapes = [(i, len(w) - len(uses), uses) for i, _c, w, uses in monos]
        rounds, changed = 0, True
        while changed:
            rounds, changed = rounds + 1, False
            for i, shortest, uses in shapes:
                longest = shortest
                for j in uses:
                    if high[j] < 0:
                        break
                    shortest += low[j]
                    longest += high[j]
                else:
                    if shortest < low[i]:
                        low[i], changed = shortest, True
                    if longest > high[i] and high[i] < cap:
                        high[i], changed = cap if rounds > n else min(longest, cap), True
        letters, k = sys.terminals, len(sys.terminals) or 1
        digit = {t: d for d, t in enumerate(letters)}
        code = lambda word: reduce(lambda c, s: c * k + digit[s], word, 0)
        consts = {
            length: [{code(w): c for w, c in comp.items()} for comp in row]
            for length, row in consts.items()
        }
        # a leading run of terminals starts the partial product.  Each later
        # factor, a variable (short 1) or a run of r terminals (short 0, one
        # word of length r), is (short, strata, shortest and longest length,
        # the same for the symbols after it, and whether it is last)
        for i, c, w in products:
            steps, lo, hi, run = [], 0, 0, ()
            for s in reversed(w):
                if s not in ix:
                    run = (s,) + run
                    continue
                if run:
                    r = len(run)
                    steps.append((0, [{}] * r + [{code(run): one}], r, r, lo, hi, not steps))
                    lo, hi, run = lo + r, hi + r, ()
                j = ix[s]
                steps.append((1, strata[j], low[j], high[j], lo, hi, not steps))
                lo, hi = lo + low[j], hi + high[j]
            progs.append((i, c, lo + len(run), hi + len(run), len(run), code(run), steps[::-1]))
        powers = [k**m for m in range(max_len + 1)]

    for length in range(1, max_len + 1) if progs else sorted(consts):
        rest = consts.pop(length, None) or [{} for _ in range(n)]
        for i, c, shortest, longest, lead, start, steps in progs:
            if not shortest <= length <= longest:
                continue
            partial = {lead: {start: c}}
            for short, factor, lo_f, hi_f, lo, hi, last in steps:
                # a variable's factor of length L is a unit step, in U, so
                # it is short by 1; the last factor writes into r[L]
                nxt: dict[int, dict] = {length: rest[i]} if last else {}
                for lw, part in partial.items():
                    need = length - lw
                    top = min(hi_f, need - lo, length - short)
                    for m in range(max(lo_f, need - hi), top + 1):
                        right = factor[m]
                        if right:
                            out = nxt.get(lw + m)
                            if out is None:
                                out = nxt[lw + m] = {}
                            concat(out, part, powers[m], right)
                partial = nxt
                if not partial:
                    break
        if ustar is not None:
            solved: list[dict] = [{} for _ in range(n)]
            for acc, row in zip(solved, ustar):
                for j, u in row:
                    concat(acc, {empty: u}, 1, rest[j])
            rest = solved
        for comp, stratum in zip(strata, rest):
            comp.append(stratum)

    scalar = _scalars(inst, {v for comp in strata for stratum in comp for v in stratum.values()})
    if not progs:
        return [
            TruncatedSeries(inst, max_len, {
                w: scalar(v) for stratum in comp for w, v in stratum.items()
            })
            for comp in strata
        ]
    # each code decoded once, from its prefix's word plus its last letter:
    # up from w to its longest decoded prefix, then down, keeping each prefix
    words = [{0: ()}] + [{} for _ in range(max_len)]
    for length in range(1, max_len + 1):
        for comp in strata:
            for w in comp[length]:
                up, p = length, w
                while p not in words[up]:
                    up, p = up - 1, p // k
                for up in range(up + 1, length + 1):
                    p = w // powers[length - up]
                    words[up][p] = words[up - 1][p // k] + (letters[p % k],)
    return [
        TruncatedSeries(inst, max_len, {
            table[w]: scalar(v)
            for table, stratum in zip(words, comp) for w, v in stratum.items()
        })
        for comp in strata
    ]


def oracle_coeff_gnf(sys: AlgebraicSystem, component: int, w: Word) -> SemiringValue:
    """Coefficient of w by direct enumeration of leftmost derivations.

    Only valid for Greibach-shaped systems (every non-empty monomial emits a
    leading terminal).  There a monomial read at position i has its tail
    variables start after i, so the positions are solved from the end of w
    back to its start: spans[i][v] maps each end j to the weight of the
    derivations of w[i:j] from v, and reads only the spans of later starts.
    The spans hold raw values, added and multiplied by `add_raw` and
    `mul_raw`; only the coefficient returned is wrapped.
    """
    if not is_gnf_algebraic(sys, allow_eps=True):
        raise IllFormedSystem("derivation oracle requires a Greibach-shaped system")
    inst = sys.instance
    add, mul = inst.add_raw, inst.mul_raw
    # per variable: the empty word's coefficient or None, and the tails of
    # the other monomials by their leading letter
    rules = []
    for v, p in zip(sys.variables, sys.rhs):
        empty, lead = None, {}
        for m in p.monomials:
            if m.word:
                lead.setdefault(m.word[0], []).append((m.coeff.value, m.word[1:]))
            else:
                empty = m.coeff.value
        rules.append((v, empty, lead))
    n = len(w)
    spans: dict[int, dict[str, dict[int, Ext]]] = {}
    for i in range(n, -1, -1):
        here: dict[str, dict[int, Ext]] = {}
        letter = w[i] if i < n else None
        for v, empty, lead in rules:
            out: dict[int, Ext] = {} if empty is None else {i: empty}
            for coeff, tail in lead.get(letter, ()):
                ends = {i + 1: coeff}
                for x in tail:
                    nxt: dict[int, Ext] = {}
                    for j, c in ends.items():
                        for e, d in spans[j][x].items():
                            cd = mul(c, d)
                            nxt[e] = add(nxt[e], cd) if e in nxt else cd
                    ends = nxt
                for e, c in ends.items():
                    out[e] = add(out[e], c) if e in out else c
            here[v] = out
        spans[i] = here
    got = spans[0][sys.variables[component]].get(n)
    return inst.zero if got is None else _scalar(inst, got)


# -- coefficients on segments of a fixed word --------------------------------


class SegmentTable:
    """Least-solution coefficients restricted to the segments of one word.

    The word is the quotient without a period, so these are the derivation
    weights of `support_triples` on `PositionAutomaton.finite(word)`,
    exact on every instance: a derivation that pumps its weight up gives
    inf.  `table[(variable, s, t)]` holds the coefficient of word[s:t] when
    the variable derives it, never zero: no instance has zero divisors or
    nonzero sums to zero.  On a finite word a segment consumes a letter
    exactly when t > s, so the bit of the derivation weights is dropped.
    """

    def __init__(self, sys: AlgebraicSystem, word: Word):
        self.sys = sys
        self.word = word
        self.instance = sys.instance
        self.table: dict[tuple[str, int, int], SemiringValue] = {
            (v, s, t): val
            for (v, s), facts in support_triples(sys, PositionAutomaton.finite(word)).items()
            for (t, _bit), val in facts.items()
        }

    def coeff(self, var: str, lo: int, hi: int) -> SemiringValue:
        got = self.table.get((var, lo, hi))
        return self.instance.zero if got is None else got


# -- derivation weights over the period quotient ---------------------------


def support_triples(
    sys: AlgebraicSystem, pa: PositionAutomaton
) -> dict[tuple[str, int], dict[tuple[int, bool], SemiringValue]]:
    """(variable, s) -> {(t, consumed-a-letter): weight}, exactly.

    The weight is the sum over the derivations from the variable of words
    that lead position s of the quotient to t, split by whether the word is
    empty: the weighted product of the grammar with the quotient
    (Bar-Hillel, Perles and Shamir 1961; Goodman 1999).  It is
    `_derivation_items` with every (variable, position) pair demanded.  On
    the quotient of a finite word (`PositionAutomaton.finite`) these are
    the coefficients of its segments, the end position included.
    """
    demand = [(v, s) for v in sys.variables for s in range(pa.size)]
    x_facts, _ = _derivation_items(sys, pa, (), demand)
    return {
        node: {key: _scalar(sys.instance, v) for key, v in facts.items()}
        for node, facts in x_facts.items()
    }


def _derivation_items(sys: AlgebraicSystem, pa: PositionAutomaton, rho, demand):
    """`_search.derivation_items` of the grammar sys with the z-rows rho
    over the quotient pa.

    A variable reads its monomials and a z-row j the monomials of its
    entries rho[j][j2], headed (j, j2), at every position alike; a letter
    leads s to the next position when it is the letter at s, and its bit
    records that a letter was consumed.
    """
    by_lhs: dict = {}
    cells = [(v, v, p) for v, p in zip(sys.variables, sys.rhs)]
    cells += [(j, (j, j2), p) for j, row in enumerate(rho) for j2, p in row.items()]
    for lhs, head, p in cells:
        by_lhs.setdefault(lhs, []).extend((head, m.coeff.value, m.word) for m in p.monomials)
    letters = [pa.letter(s) for s in range(pa.size)]
    advance = [(pa.advance(s), True) for s in range(pa.size)]

    def step(s, letter):
        return advance[s] if letters[s] == letter else None

    return derivation_items(
        sys.instance, set(sys.variables), lambda lhs, _s: by_lhs.get(lhs, ()), step, demand
    )


# -- omega evaluation at lasso words -----------------------------------------


OK = "ok"


@dataclass(frozen=True)
class LassoResult:
    """An omega value; every route computes it exactly, so status is OK."""

    status: str
    value: SemiringValue | None = None

    @property
    def conclusive(self) -> bool:
        return self.status == OK


def canonical_omega_lasso(
    sys: MixedSystem, k: int, component: int, w: LassoWord
) -> LassoResult:
    """Value of one omega-component of the k-th canonical solution at u v^omega.

    The sum ranges over infinite runs through the z-coefficient matrix of the
    least finite solution, Buchi-restricted to the first k z-variables.  The
    runs are paths of the z-graph over (z-variable, position) whose edges are
    the z-steps of `_derivation_items` with the start demanded: the
    z-coefficients evaluated on the exact derivation weights of the
    x-variables, at the nodes that the start reaches.  An edge hits when its
    target is a Buchi z-variable, and consumes a letter or not.  A run takes
    infinitely many letter edges, so `lasso_value` sums the paths with
    infinitely many letter edges and infinitely many hit edges, letter-free
    ones between them included.  Each run is one path of the graph, so the
    value is exact on every instance, counting included.
    """
    m = sys.m
    if not 0 <= k <= m:
        raise IllFormedSystem(f"Buchi count {k} out of range 0..{m}")
    if not 0 <= component < m:
        raise IllFormedSystem(f"z-component {component} out of range")

    pa = PositionAutomaton.of(w)
    start = (component, pa.state_of(0))
    _, steps = _derivation_items(sys.x, pa, sys.rho, [start])
    edges = {
        node: [((j2, t), c, j2 < k, bit) for (j2, t, bit), c in outs.items()]
        for node, outs in steps.items()
    }
    inst = sys.x.instance
    return LassoResult(OK, _scalar(inst, lasso_value(inst, edges, {start: inst.one_raw()})))
