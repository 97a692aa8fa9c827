"""Greibach normal form pipeline for algebraic and mixed omega systems.

finite_gnf normalizes one algebraic system (empty-word split, chain removal,
binarization, then the matrix-equation transformation that forces a leading
terminal with at most two trailing variables).  Its stages pass rule rows
from one to the next, one list of (raw coefficient, word) terms per
variable, and add and multiply with the instance's add_raw and mul_raw, as
staromega.matrix's kernels do; only its result is wrapped into
Polynomials and one checked AlgebraicSystem.  A decomposition holds every
summand (s + e eps) t^omega, e being s's empty-word coefficient, and the
source's finite part.  Only normalize_decomposition merges systems (as
x0.v, x1.v, ... where a hand-built decomposition holds several): it returns
a NormalizedDecomposition, one epsilon-free system with the summands and
the finite part as indices into it, and the pipeline brings that one
system to Greibach form once.  Each pair system holds that one Greibach
x-part object as its x and writes its z-rows over it, the sum adds a
collector variable over the same x, the result is pruned to what the
collector and the finite part reach (keeping x itself where no x-variable
drops), and finally folded into a single y-system (an AlgebraicSystem
read as y = p(y)) whose last component carries the finite part and the
chosen pair of the canonical solution.  The mixed result keeps the finite
part under its own name; where a grammar file puts it is the CLI's
concern.

Mixed systems carry their z-coefficients as sparse rows (see
staromega.system).  Pair systems, their block-diagonal sum and the fold
build and read the stored entries only, so their cost follows the number of
nonzero entries rather than the square of the z-variables; the one dense
matrix left is decompose_canonical's handle matrix over the input's own
z-variables.

decompose_canonical runs the Lehmann sweep of staromega.matrix on that
matrix with series handles as its values: nodes of a DAG whose leaves are
polynomials over the input's finite part and whose other nodes each hold
one equation over their children.  The path decomposition that gives
mat_omega_t then reads off at most k pairs s t^omega, with O(m^3) handle
nodes in all.  Combining handles copies no system; one algebraic system is
written out for all the returned pairs: the input's x-variables and one
variable per distinct node.  Chain rules are removed through the star of
the unit matrix, taken one strongly connected component at a time on
sparse rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import json

from ._search import _sccs
from .matrix import _add_identity, _star
from .semiring import Ext, SemiringInstance, SemiringValue
from .series import EPSILON, Polynomial, Word, canonical_terms
from .system import (
    AlgebraicSystem,
    CanonicalSelector,
    IllFormedSystem,
    MixedSystem,
    eps_coefficients,
    greibach_shape,
    is_gnf_algebraic,
    is_gnf_mixed,
    productive_components,
    productive_variables,
)


# -- finite Greibach normal form on rule rows -----------------------------------
#
# rows[i] lists the (raw coefficient, word) terms of the equation of
# variables[i].  A row may hold a word twice until the one canonicalisation
# that needs merged terms (after the chain rules go) or the system
# finite_gnf returns.

Rows = list[list[tuple[Ext, Word]]]


def proper_form(sys: AlgebraicSystem) -> tuple[AlgebraicSystem, list[SemiringValue]]:
    """Same solutions off the empty word, but all empty-word coefficients zero.

    Without an empty-word monomial no derivation reaches the empty word, so
    every coefficient is zero and sys itself is returned.  A canonical
    polynomial holds its empty-word monomial first, if it has one.
    """
    inst = sys.instance
    if not any(p.monomials and not p.monomials[0].word for p in sys.rhs):
        return sys, [inst.zero] * len(sys.variables)
    eps = eps_coefficients(sys)
    rows = _proper_rows(inst, sys.variables, _rows_of(sys, range(len(sys.rhs))), eps)
    rhs = tuple(Polynomial.build_raw(inst, row) for row in rows)
    return AlgebraicSystem(inst, sys.terminals, sys.variables, rhs), eps


def _rows_of(sys: AlgebraicSystem, indices) -> Rows:
    return [[(m.coeff.value, m.word) for m in sys.rhs[i].monomials] for i in indices]


def _proper_rows(
    inst: SemiringInstance, variables: Sequence[str], rows: Rows, eps: list[SemiringValue]
) -> Rows:
    """Each variable v with a nonzero empty-word coefficient e_v replaced by
    e_v eps + v, and every empty word dropped."""
    mul = inst.mul_raw
    subst = {v: e.value for v, e in zip(variables, eps) if not e.is_zero()}
    out = []
    for row in rows:
        terms = []
        for c, w in row:
            partial = [(c, EPSILON)]
            for s in w:
                kept = [(d, u + (s,)) for d, u in partial]
                if s in subst:
                    e = subst[s]
                    kept += [(mul(d, e), u) for d, u in partial]
                partial = kept
            terms += [t for t in partial if t[1]]
        out.append(terms)
    return out


def _unit_elimination(inst: SemiringInstance, variables: Sequence[str], rows: Rows) -> Rows:
    """Fold single-variable monomials into the other rules: x_i = sum_j U*[i][j] rest_j.

    The unit matrix U is kept as sparse rows and its star taken one strongly
    connected component C at a time, sinks first.  A path from i in C stays
    in C up to its last state c there, then stops or leaves along an edge
    c -> d and continues from d, whose row is already known:

        row(i) = sum_{c in C} S[i][c] (e_c + sum_{c -> d leaving C} U[c][d] row(d)),

    with S the star of C's own block.  Every path is counted once, so the rows
    equal the dense star's in every instance, counting included.  The rows
    returned are canonical, as `_binarize` names its variables in their order.
    """
    add, mul, zero, one = inst.add_raw, inst.mul_raw, inst.zero_raw(), inst.one_raw()
    ix = {v: i for i, v in enumerate(variables)}
    unit: list[dict[int, Ext]] = []
    rest: Rows = []
    for row in rows:
        u: dict[int, Ext] = {}
        r = []
        for c, w in row:
            j = ix.get(w[0]) if len(w) == 1 else None
            if j is None:
                r.append((c, w))
            else:
                u[j] = add(u[j], c) if j in u else c
        unit.append(u)
        rest.append(r)
    nodes = list(range(len(unit)))
    closed: list[dict[int, Ext]] = [{} for _ in nodes]
    for comp in _sccs(nodes, {i: list(row.items()) for i, row in enumerate(unit)}):
        star = _star(inst, [[unit[c].get(d, zero) for d in comp] for c in comp])
        members = set(comp)
        exits = []
        for c in comp:
            out = {c: one}
            for d, u in unit[c].items():
                if d not in members:
                    for e, r in closed[d].items():
                        v = mul(u, r)
                        out[e] = add(out[e], v) if e in out else v
            exits.append(out)
        for a, i in enumerate(comp):
            acc = closed[i]
            for b, out in enumerate(exits):
                s = star[a][b]
                if s != zero:
                    for e, r in out.items():
                        v = mul(s, r)
                        acc[e] = add(acc[e], v) if e in acc else v
    return [
        canonical_terms(inst, [(mul(c, d), w) for j, c in row.items() for d, w in rest[j]])
        for row in closed
    ]


def _accumulate(row: dict, key, value: SemiringValue) -> None:
    prev = row.get(key)
    row[key] = value if prev is None else prev + value


class _Names:
    """Deterministic fresh-name supply avoiding a fixed set of taken tokens."""

    def __init__(self, taken):
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        cand = base
        while cand in self.taken:
            cand = cand + "'"
        self.taken.add(cand)
        return cand


def _binarize(
    inst: SemiringInstance, terminals: Sequence[str], variables: Sequence[str], rows: Rows
) -> tuple[list[str], Rows]:
    """Rewrite every rule to a single terminal or a pair of variables.

    The rows are proper and free of unit rules (`_unit_elimination`), so
    every word but a single terminal has at least two symbols.
    """
    one = inst.one_raw()
    ts = set(terminals)
    names = _Names(ts.union(variables))
    new_vars = list(variables)
    out: Rows = [[] for _ in variables]
    term_var: dict[str, str] = {}
    pair_var: dict[Word, str] = {}

    def var_for_terminal(a: str) -> str:
        if a not in term_var:
            v = names.fresh(f"t_{a}")
            term_var[a] = v
            new_vars.append(v)
            out.append([(one, (a,))])
        return term_var[a]

    def var_for_suffix(word: Word) -> str:
        if len(word) == 1:
            return word[0]
        if word not in pair_var:
            v = names.fresh(f"g{len(pair_var)}")
            pair_var[word] = v
            new_vars.append(v)
            row: list = []
            out.append(row)
            row.append((one, (word[0], var_for_suffix(word[1:]))))
        return pair_var[word]

    for i, row in enumerate(rows):
        for c, w in row:
            if len(w) == 1 and w[0] in ts:
                out[i].append((c, w))
                continue
            if len(w) == 0:
                raise IllFormedSystem("binarization expects a proper system")
            syms = tuple(var_for_terminal(s) if s in ts else s for s in w)
            out[i].append((c, (syms[0], var_for_suffix(syms[1:]))))
    return new_vars, out


def _leading_terminal_form(
    inst: SemiringInstance,
    terminals: Sequence[str],
    variables: Sequence[str],
    rows: Rows,
    keep: Sequence[str] | None = None,
) -> tuple[list[str], Rows]:
    """Matrix-equation step: from binary rules to leading-terminal rules.

    Writing the system as x = x A(x) + b with A collecting the coefficients
    of first variables, the least solution equals that of x = b + b Y,
    Y = A + A Y with one fresh variable per live matrix entry; substituting
    the x-equations into the leading position of the Y-equations leaves every
    monomial with a leading terminal and at most two trailing variables.
    A is kept as sparse rows, each sorted by column.

    Only the x-equations of `keep` (all variables by default) are written,
    and the Y-equations they reach: x_p reads column p of Y only, and an
    entry's x-equation is built the first time a written equation needs it.
    """
    mul = inst.mul_raw
    n = len(variables)
    ts = set(terminals)
    ix = {v: i for i, v in enumerate(variables)}
    b: Rows = [[] for _ in range(n)]
    # amat[q][p]: the (coefficient, tail) pairs of entry (q, p)
    amat: list[dict[int, list[tuple[Ext, str]]]] = [{} for _ in range(n)]
    for p_ix, row in enumerate(rows):
        for c, w in row:
            if len(w) == 1 and w[0] in ts:
                b[p_ix].append((c, w))
            elif len(w) == 2 and w[0] in ix and w[1] in ix:
                # x_p gains x_q * (c x_k): entry (q, p) holds c, tail k
                amat[ix[w[0]]].setdefault(p_ix, []).append((c, w[1]))
            else:
                raise IllFormedSystem(f"rule not binarized: {w}")
    amat = [dict(sorted(row.items())) for row in amat]
    # into[p]: the q with a stored entry (q, p)
    into: list[list[int]] = [[] for _ in range(n)]
    for q, row in enumerate(amat):
        for p_ix in row:
            into[p_ix].append(q)

    reaching: dict[int, set[int]] = {}

    def live(p: int) -> set[int]:
        """The q that reach p by a nonempty path in the coefficient graph
        (an edge q -> p for each stored entry (q, p)): Y's column p."""
        if p not in reaching:
            seen = set(into[p])
            stack = list(into[p])
            while stack:
                for q in into[stack.pop()]:
                    if q not in seen:
                        seen.add(q)
                        stack.append(q)
            reaching[p] = seen
        return reaching[p]

    names = _Names(ts.union(variables))
    yname: dict[tuple[int, int], str] = {}
    work: list[tuple[int, int]] = []

    def y(q: int, p: int) -> str:
        if (q, p) not in yname:
            yname[(q, p)] = names.fresh(f"r{q}_{p}")
            work.append((q, p))
        return yname[(q, p)]

    x_rhs: dict[int, list[tuple[Ext, Word]]] = {}

    def x_terms(p: int) -> list[tuple[Ext, Word]]:
        """x_p = b_p + sum_q b_q y(q, p)."""
        if p not in x_rhs:
            terms = list(b[p])
            for q in sorted(live(p)):
                if b[q]:
                    yn = y(q, p)
                    terms += [(c, w + (yn,)) for c, w in b[q]]
            x_rhs[p] = terms
        return x_rhs[p]

    kept = set(variables if keep is None else keep)
    x_vars = [v for v in variables if v in kept]
    for v in x_vars:
        x_terms(ix[v])

    # y(q, p) = A[q][p] + sum_r A[q][r] y(r, p), with the leading variable of
    # each A-entry replaced by its x-equation
    y_rhs: dict[tuple[int, int], list[tuple[Ext, Word]]] = {}
    while work:
        (q, p_ix) = work.pop()
        col = live(p_ix)
        terms: list[tuple[Ext, Word]] = []
        for c, tail in amat[q].get(p_ix, ()):
            for xc, xw in x_terms(ix[tail]):
                terms.append((mul(c, xc), xw))
        for r, entry in amat[q].items():
            if r not in col:
                continue
            yn = y(r, p_ix)
            for c, tail in entry:
                for xc, xw in x_terms(ix[tail]):
                    terms.append((mul(c, xc), xw + (yn,)))
        y_rhs[(q, p_ix)] = terms

    ys = sorted(yname)
    return (
        x_vars + [yname[k] for k in ys],
        [x_rhs[ix[v]] for v in x_vars] + [y_rhs[k] for k in ys],
    )


@dataclass(frozen=True)
class GnfResult:
    system: AlgebraicSystem
    component_of: dict[str, int]


def finite_gnf(sys: AlgebraicSystem, keep: Sequence[str] | None = None) -> GnfResult:
    """Greibach normal form with the same least solution off the empty word.

    Returns the transformed system and the index of each variable of `keep`
    in it (the output is epsilon-free, single leading terminal, at most two
    trailing variables).  `keep` names the variables whose components the
    caller reads, all of them by default; only what they reach is normalized
    and returned.

    The stages (prune, proper form, unproductive drop, chain rules,
    binarization, leading terminals, unproductive drop) pass rule rows of
    raw values from one to the next; the one system returned is built and
    checked at the end, or is sys itself when no stage changed a row.  The
    empty-word coefficients of what keep reaches are read off sys itself,
    as they depend on nothing else.
    """
    inst, ts = sys.instance, sys.terminals
    keep = list(sys.variables if keep is None else keep)
    reached = _reachable(sys.variables, lambda i: (m.word for m in sys.rhs[i].monomials), keep)
    variables = [sys.variables[i] for i in reached]
    rows = source = _rows_of(sys, reached)
    if any(row and not row[0][1] for row in rows):
        eps = eps_coefficients(sys)
        rows = _proper_rows(inst, variables, rows, [eps[i] for i in reached])
    variables, rows = _drop_unproductive(variables, rows, keep)
    if greibach_shape(ts, variables, (w for row in rows for _, w in row)) is None:
        rows = _unit_elimination(inst, variables, rows)
        variables, rows = _binarize(inst, ts, variables, rows)
        variables, rows = _leading_terminal_form(inst, ts, variables, rows, keep)
        variables, rows = _drop_unproductive(variables, rows, keep)
    if rows is source and len(rows) == len(sys.rhs):
        gnf = sys  # in normal form already, and nothing dropped
    else:
        rhs = tuple(Polynomial.build_raw(inst, row) for row in rows)
        gnf = AlgebraicSystem(inst, ts, tuple(variables), rhs)
    if not is_gnf_algebraic(gnf, allow_eps=False):
        raise IllFormedSystem("internal: normal form construction failed")
    at = {v: i for i, v in enumerate(gnf.variables)}
    return GnfResult(gnf, {v: at[v] for v in keep})


def _drop_unproductive(
    variables: Sequence[str], rows: Rows, keep: Sequence[str]
) -> tuple[Sequence[str], Rows]:
    """Erase monomials through variables that generate nothing, then prune.

    Variables in `keep` survive even with an empty equation, so component
    indices stay resolvable by name.
    """
    productive = productive_variables(variables, ([w for _, w in row] for row in rows))
    if len(productive) < len(variables):
        dead = set(variables) - productive
        rows = [[t for t in row if dead.isdisjoint(t[1])] for row in rows]
    reached = _reachable(variables, lambda i: (w for _, w in rows[i]), keep)
    if len(reached) == len(variables):
        return variables, rows
    return [variables[i] for i in reached], [rows[i] for i in reached]


def _prune_unreachable(sys: AlgebraicSystem, keep: list[str]) -> AlgebraicSystem:
    """The variables reachable from keep, in their order; sys itself when that is all."""
    reached = _reachable(sys.variables, lambda i: (m.word for m in sys.rhs[i].monomials), keep)
    if len(reached) == len(sys.variables):
        return sys
    return AlgebraicSystem(
        sys.instance,
        sys.terminals,
        tuple(sys.variables[i] for i in reached),
        tuple(sys.rhs[i] for i in reached),
    )


def _reachable(variables: Sequence[str], words_of, keep: Sequence[str]) -> list[int]:
    """The indices of the variables that keep reaches, in order, where
    words_of(i) gives the words of variable i's equation."""
    ix = {v: i for i, v in enumerate(variables)}
    seen = {ix[v] for v in keep}
    stack = list(seen)
    while stack:
        for w in words_of(stack.pop()):
            for s in w:
                j = ix.get(s)
                if j is not None and j not in seen:
                    seen.add(j)
                    stack.append(j)
    return sorted(seen)


# -- omega decompositions ------------------------------------------------------


@dataclass(frozen=True)
class DecompositionTerm:
    """One summand s t^omega: systems plus designated components."""

    t_sys: AlgebraicSystem
    t_component: int
    s_sys: AlgebraicSystem
    s_component: int


@dataclass(frozen=True)
class OmegaDecomposition:
    """Summands s t^omega and, if given, the component whose series, off
    the empty word, is the result's finite part."""

    instance: SemiringInstance
    terminals: tuple[str, ...]
    terms: tuple[DecompositionTerm, ...]
    finite: tuple[AlgebraicSystem, int] | None = None

    @property
    def width(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class NormalizedDecomposition:
    """A decomposition over one epsilon-free system.

    Each term (t, s, e) is the summand (x_s + e eps) x_t^omega: s is the
    index of a productive variable or None, e a nonzero coefficient or None,
    and at least one of them is given.  `finite` is the index of the
    variable whose series is the finite part, or None when it is zero.
    """

    system: AlgebraicSystem
    terms: tuple[tuple[int, int | None, SemiringValue | None], ...]
    finite: int | None


def normalize_decomposition(d: OmegaDecomposition) -> NormalizedDecomposition:
    """Absorb empty-word parts: t-series become epsilon-free, and each
    s-series keeps its epsilon-free part as s and its empty-word
    coefficient as e, one term per input term; dead terms drop.

    The distinct systems (by identity) of the terms and of the finite part
    are put side by side, under their own names if there is one, else as
    x0.v, x1.v, ..., and brought to proper form once: every output term and
    the finite part index that one system.  A t-series with a nonzero
    empty-word coefficient e becomes the alias e* t, appended to it.
    """
    inst = d.instance
    reads = [sys for term in d.terms for sys in (term.t_sys, term.s_sys)]
    reads += [] if d.finite is None else [d.finite[0]]
    systems = list({id(sys): sys for sys in reads}.values())
    taken = set(d.terminals)
    prefix = {
        id(sys): "" if len(systems) == 1 else _fresh_prefix(f"x{i}", sys.variables, taken)
        for i, sys in enumerate(systems)
    }
    if len(systems) > 1:
        systems = [_rename_prefixed(sys, prefix[id(sys)]) for sys in systems]
    merged = AlgebraicSystem(
        inst,
        d.terminals,
        tuple(v for sys in systems for v in sys.variables),
        tuple(p for sys in systems for p in sys.rhs),
    )
    x, eps = proper_form(merged)
    live = productive_components(x)
    ix = {v: i for i, v in enumerate(x.variables)}
    at = lambda sys, comp: ix[prefix[id(sys)] + sys.variables[comp]]
    fresh = _Names(set(x.variables) | set(x.terminals)).fresh
    x_vars, x_rhs = list(x.variables), list(x.rhs)
    aliases: dict[int, int] = {}
    kept = []
    for term in d.terms:
        t = at(term.t_sys, term.t_component)
        if x.variables[t] not in live:
            continue
        s = at(term.s_sys, term.s_component)
        e = eps[s]
        if x.variables[s] not in live:
            s = None
        if s is None and e.is_zero():
            continue
        if not eps[t].is_zero():
            if t not in aliases:
                aliases[t] = len(x_vars)
                x_rhs.append(Polynomial.build(inst, [(eps[t].star(), (x_vars[t],))]))
                x_vars.append(fresh("tsc"))
            t = aliases[t]
        kept.append((t, s, None if e.is_zero() else e))
    x = AlgebraicSystem(inst, x.terminals, tuple(x_vars), tuple(x_rhs))
    return NormalizedDecomposition(x, tuple(kept), None if d.finite is None else at(*d.finite))


def _fresh_prefix(head: str, names: Sequence[str], taken: set[str]) -> str:
    """head + '.', with primes added to head until no prefixed name is taken."""
    while True:
        pre = head + "."
        clash = {t[len(pre):] for t in taken if t.startswith(pre)}
        if not clash or clash.isdisjoint(names):
            return pre
        head += "'"


def _rename_prefixed(sys: AlgebraicSystem, prefix: str) -> AlgebraicSystem:
    return sys.rename({v: prefix + v for v in sys.variables})


# -- pair construction ---------------------------------------------------------


def _gnf_split(poly: Polynomial, ix: dict[str, int]):
    """Split one equation of a Greibach system into head and tail-by-last-variable.

    Returns (head, tails): head holds the monomials with at most one variable;
    tails[j] holds, for each variable index j in ix, the two-variable
    monomials ending in variable j with that last variable removed.
    """
    inst = poly.instance
    head_terms = []
    tails: dict[int, list] = {}
    for mono in poly.monomials:
        w = mono.word
        if len(w) <= 2:
            head_terms.append((mono.coeff, w))
        else:
            tails.setdefault(ix[w[2]], []).append((mono.coeff, w[:2]))
    head = Polynomial.build(inst, head_terms)
    tail_polys = {j: Polynomial.build(inst, terms) for j, terms in tails.items()}
    return head, tail_polys


def build_pair_system(
    x: AlgebraicSystem,
    t: int,
    s: int | None = None,
    eps_coeff: SemiringValue | None = None,
) -> tuple[MixedSystem, CanonicalSelector]:
    """Mixed system over the Greibach x-part x whose first canonical solution
    carries (x_s + eps_coeff eps) x_t^omega on the selected z-component.

    x_s and every x-variable i that t or s reaches through last variables
    get a z-row z.i: its head continues into the accepting z.acc, which
    replays t's row, so only genuine t-cycles are accepted, and each
    two-variable tail into the row of its last variable.  The selected
    z-variable is z.s, or with a coefficient a fresh z.eps (z.s may be the
    tail target of other rows): z.s's row plus eps_coeff times z.acc's.
    The head gains primes (z'.acc) where a name would be taken.
    """
    if not is_gnf_algebraic(x, allow_eps=False):
        raise IllFormedSystem("pair construction needs an epsilon-free Greibach x-part")
    if eps_coeff is not None and eps_coeff.is_zero():
        eps_coeff = None
    if s is None and eps_coeff is None:
        raise IllFormedSystem("pair construction needs an s-component or a nonzero coefficient")
    ix = {v: i for i, v in enumerate(x.variables)}
    split: dict[int, tuple] = {}
    stack = [t] if s is None else [t, s]
    while stack:
        i = stack.pop()
        if i not in split:
            split[i] = _gnf_split(x.rhs[i], ix)
            stack.extend(split[i][1])
    written = {j for _, tails in split.values() for j in tails}
    order = sorted(written if s is None else written | {s})
    zp = _fresh_prefix("z", ["acc", "eps", *map(str, order)], set(x.terminals) | set(x.variables))
    z_acc = zp + "acc"
    row = lambda i: {z_acc: split[i][0], **{f"{zp}{j}": p for j, p in split[i][1].items()}}
    rows = {f"{zp}{i}": row(i) for i in order}
    rows[z_acc] = row(t)
    designated = f"{zp}{s}"
    if eps_coeff is not None:
        designated = zp + "eps"
        rows[designated] = {} if s is None else row(s)
        for col, poly in rows[z_acc].items():
            _accumulate(rows[designated], col, poly.scale(eps_coeff))
    z_vars = (z_acc, designated) + tuple(z for z in rows if z not in (z_acc, designated))
    return MixedSystem(x, z_vars, _indexed_rows(rows, z_vars)), CanonicalSelector(1, 1)


def sum_systems(
    x: AlgebraicSystem, parts: Sequence[tuple[MixedSystem, CanonicalSelector]]
) -> tuple[MixedSystem, CanonicalSelector]:
    """The z-rows of pair systems over x side by side, and a collector that
    replays their selected rows: the l-th canonical solution adds the parts.

    Part p's z-variables are renamed u{p}.z and the collector is z.sum, each
    kept off the terminals and the x-variables; x is neither renamed nor
    copied: every part must hold x itself.
    """
    taken = set(x.terminals) | set(x.variables)
    buchi_vars: list[str] = []
    tail_vars: list[str] = []
    rows: dict[str, dict[str, Polynomial]] = {}
    collected: dict[str, Polynomial] = {}
    for pidx, (part, sel) in enumerate(parts):
        if sel != CanonicalSelector(1, 1) or part.x is not x:
            raise IllFormedSystem("summands must be pair systems over the shared x-part")
        pre = _fresh_prefix(f"u{pidx}", part.z_vars, taken)
        names = [pre + z for z in part.z_vars]
        for zi, row in zip(names, part.rho):
            rows[zi] = {names[j]: p for j, p in row.items()}
        collected.update(rows[names[1]])
        buchi_vars.append(names[0])
        tail_vars.extend(names[1:])
    collector = _Names(taken | set(rows)).fresh("z.sum")
    rows[collector] = collected
    z_vars = tuple(buchi_vars) + tuple(tail_vars) + (collector,)
    mixed = MixedSystem(x, z_vars, _indexed_rows(rows, z_vars))
    return mixed, CanonicalSelector(len(parts), len(z_vars) - 1)


def _indexed_rows(
    rows: dict[str, dict[str, Polynomial]], z_vars: tuple[str, ...]
) -> tuple[dict[int, Polynomial], ...]:
    """Name-keyed z-coefficient rows as MixedSystem's sparse rows over z_vars."""
    zix = {z: j for j, z in enumerate(z_vars)}
    return tuple(
        dict(sorted((zix[col], p) for col, p in rows[zi].items() if not p.is_zero()))
        for zi in z_vars
    )


def char_to_mixed(d: NormalizedDecomposition) -> tuple[MixedSystem, CanonicalSelector]:
    """Direct mixed system for a sum of pairs: one accepting loop variable per
    t-series and one collector fed by the s-series.

    The x-part is the decomposition's one system and, for a term j with a
    coefficient e, the alias c{j}.s = e eps | s that the collector reads
    (e eps alone without an s-series); the z-variables are z0, z1, ... and
    zout.  A fresh name that would be a terminal or a variable gains primes.
    """
    x = d.system
    inst = x.instance
    l = len(d.terms)
    fresh = _Names(set(x.terminals) | set(x.variables)).fresh
    x_vars, x_rhs = list(x.variables), list(x.rhs)
    s_polys: list[Polynomial] = []
    for j, (_, s, e) in enumerate(d.terms):
        s_poly = Polynomial.zero(inst) if s is None else Polynomial.of_word(inst, (x.variables[s],))
        if e is not None:
            x_vars.append(fresh(f"c{j}.s"))
            x_rhs.append(Polynomial.build(inst, [(e, EPSILON)]) + s_poly)
            s_poly = Polynomial.of_word(inst, (x_vars[-1],))
        s_polys.append(s_poly)
    z_vars = tuple(fresh(f"z{j}") for j in range(l)) + (fresh("zout"),)
    rho_rows = [
        {j: Polynomial.of_word(inst, (x.variables[t],))} for j, (t, _, _) in enumerate(d.terms)
    ]
    rho_rows.append(dict(enumerate(s_polys)))
    xs = AlgebraicSystem(inst, x.terminals, tuple(x_vars), tuple(x_rhs))
    return MixedSystem(xs, z_vars, tuple(rho_rows)), CanonicalSelector(l, l)


# -- folding a mixed system into one omega system ------------------------------


def unmix(
    sys: MixedSystem, k: int | None, l: int, t: int
) -> tuple[AlgebraicSystem, CanonicalSelector]:
    """One y-system whose last component pairs x-component k with
    z-component l at Buchi count t; the omega-loop equations come first so
    the canonical solution keeps accepting exactly the former z-variables.
    With k None, as for a decomposition that carries no finite part, the
    finite part of the last component is zero.  Only the variables that some
    rule reads are written (the last component copies x_k's and z_l's rows),
    and the Buchi count counts the accepting ones among them."""
    if not is_gnf_mixed(sys):
        raise IllFormedSystem("unmix needs a mixed system in Greibach form")
    if not 0 <= t <= sys.m:
        raise IllFormedSystem("Buchi count out of range")
    xs = sys.x
    inst = xs.instance
    # h.z, b.x and ydot differ in their first letter, so only a terminal can
    # take one of them; a head gains primes where it would
    taken = set(xs.terminals)
    hp = _fresh_prefix("h", sys.z_vars, taken)
    bp = _fresh_prefix("b", xs.variables, taken)
    hat = {zv: hp + zv for zv in sys.z_vars}
    bar = {xv: bp + xv for xv in xs.variables}
    hat_rhs = [
        Polynomial.build(
            inst,
            [
                (mono.coeff, mono.word + (hat[sys.z_vars[j]],))
                for j, p in row.items()
                for mono in p.rename_symbols(bar).monomials
            ],
        )
        for row in sys.rho
    ]
    bar_rhs = [p.rename_symbols(bar) for p in xs.rhs]
    dot_rhs = (Polynomial.zero(inst) if k is None else bar_rhs[k]) + hat_rhs[l]
    read = {s for p in hat_rhs + bar_rhs for mono in p.monomials for s in mono.word}
    zs = [j for j, z in enumerate(sys.z_vars) if hat[z] in read]
    kept = [i for i, x in enumerate(xs.variables) if bar[x] in read]
    variables = (
        tuple(hat[sys.z_vars[j]] for j in zs)
        + tuple(bar[xs.variables[i]] for i in kept)
        + (_Names(taken).fresh("ydot"),)
    )
    rhs = tuple(hat_rhs[j] for j in zs) + tuple(bar_rhs[i] for i in kept) + (dot_rhs,)
    out = AlgebraicSystem(inst, xs.terminals, variables, rhs)
    return out, CanonicalSelector(sum(1 for j in zs if j < t), len(variables) - 1)


# -- canonical decomposition of one omega component ----------------------------


class _Handle:
    """A series as a node of the handle DAG.

    A leaf is a polynomial over the terminals and the base system's
    productive variables.  Any other node is one equation with coefficients
    one: `words` spells its monomials over slots, 0 for the node itself and
    1, 2, ... for its children `kids`, which are all productive.  The series
    is zero exactly when that equation is empty.
    """

    __slots__ = ("leaf", "kids", "words", "productive")

    def __init__(self, leaf=None, kids=(), words=()):
        self.leaf, self.kids, self.words = leaf, kids, words
        self.productive = not leaf.is_zero() if leaf is not None else bool(words)


class _HandleAlgebra:
    """Rational combinators on series handles, as nodes of a DAG.

    It speaks the raw protocol of the generic `SemiringInstance.sweep_raw`
    and of `matrix._add_identity` (`add_raw`, `mul_raw`, `star_raw`,
    `zero_raw`, `one_raw`, `top_raw` and the row kernel `axpy_raw`), so it
    takes that Lehmann sweep over as its own and runs it on handle matrices
    unchanged; `top_raw` is None, so no row counts as saturated.
    `axpy_raw` is the generic y + l z comprehension: it builds the nodes
    cell by cell, in the order the normal form's output depends on.
    A leaf keeps the monomials of its polynomial that avoid the base's
    unproductive variables.  Every combinator makes at most one node over
    its operands and copies nothing; an unproductive operand is left out.
    `zero_raw` is one shared unproductive handle and `mul_raw` returns it,
    so the sweep's zero test skips empty rows.  A system is written out
    only by `emit`, once for all the handles a decomposition returns.
    """

    def __init__(self, base: AlgebraicSystem):
        self.base = base
        self.dead = set(base.variables) - productive_components(base)
        self.zero = _Handle()

    def of_poly(self, poly: Polynomial) -> _Handle:
        if self.dead:
            live = tuple(m for m in poly.monomials if self.dead.isdisjoint(m.word))
            poly = Polynomial(poly.instance, live)
        return _Handle(poly)

    def zero_raw(self) -> _Handle:
        return self.zero

    def one_raw(self) -> _Handle:
        return _Handle(words=((),))

    def add_raw(self, a: _Handle, b: _Handle) -> _Handle:
        if not a.productive:
            return b
        if not b.productive:
            return a
        return _Handle(kids=(a, b), words=((1,), (2,)))

    def mul_raw(self, a: _Handle, b: _Handle) -> _Handle:
        if not (a.productive and b.productive):
            return self.zero
        return _Handle(kids=(a, b), words=((1, 2),))

    def star_raw(self, a: _Handle) -> _Handle:
        if not a.productive:
            return self.one_raw()
        return _Handle(kids=(a,), words=((1, 0), ()))

    def top_raw(self) -> None:
        return None

    def axpy_raw(self, y: list, left: _Handle, z) -> list:
        return [self.add_raw(a, self.mul_raw(left, b)) for a, b in zip(y, z)]

    sweep_raw = SemiringInstance.sweep_raw

    def emit(self, roots: Sequence[_Handle]) -> tuple[AlgebraicSystem, list[int]]:
        """One system for all the roots and the index of each: the base's
        variables under their own names, then d0, d1, ... over the distinct
        nodes the roots reach, in preorder."""
        base = self.base
        inst = base.instance
        at: dict[_Handle, int] = {}
        stack = list(reversed(roots))
        while stack:
            node = stack.pop()
            if node not in at:
                at[node] = len(at)
                stack.extend(reversed(node.kids))
        fresh = _Names(set(base.variables) | set(base.terminals)).fresh
        names = [fresh(f"d{i}") for i in range(len(at))]
        rhs: list[Polynomial] = []
        for node, i in at.items():
            if node.leaf is not None:
                rhs.append(node.leaf)
                continue
            slots = [names[i]] + [names[at[kid]] for kid in node.kids]
            rhs.append(
                Polynomial.build(inst, [(inst.one, tuple(slots[s] for s in w)) for w in node.words])
            )
        n = len(base.variables)
        sys = AlgebraicSystem(
            inst, base.terminals, base.variables + tuple(names), base.rhs + tuple(rhs)
        )
        return sys, [n + at[r] for r in roots]


def decompose_canonical(
    sys: MixedSystem, k: int, component: int, finite: int | None = None
) -> OmegaDecomposition:
    """Express one omega component of the k-th canonical solution as a sum of
    pairs s t^omega of algebraic series, all over one emitted system, and
    with x-variable `finite`, if given, as the finite part.

    The Lehmann sweep `sweep_raw` runs on the z-coefficient matrix of
    series handles in the pivot order m-1..0, and the component is read off
    by the path decomposition of `matrix`'s docstring: omega_k[i] =
    sum_{j<k} A[i][j] L_j^omega with L_j = C_j[j], one pair (A[i][j], L_j)
    for each j where both are nonzero, so at most k pairs.  The emitted
    system keeps the x-variables' names and indices, so the finite part is
    the source's own series.
    """
    m = sys.m
    if not 0 <= k <= m:
        raise IllFormedSystem(f"Buchi count {k} out of range 0..{m}")
    if not 0 <= component < m:
        raise IllFormedSystem(f"z-component {component} out of range for {m} z-variables")
    alg = _HandleAlgebra(sys.x)
    a = [[alg.zero] * m for _ in range(m)]
    for i, row in enumerate(sys.rho):
        for j, p in row.items():
            a[i][j] = alg.of_poly(p)
    cols = alg.sweep_raw(a, range(m - 1, -1, -1))
    star = _add_identity(alg, a)[component]
    pairs = []
    for j in range(k):
        c = cols[j]
        if not c[j].productive:
            continue
        # A[i][j] = [i=j] + [i>j] C_j[i] + sum_{k'<j} S[i][k'] C_j[k'], i the component
        s = alg.one_raw() if component == j else c[component] if component > j else alg.zero
        for kk in range(j):
            s = alg.add_raw(s, alg.mul_raw(star[kk], c[kk]))
        if s.productive:
            pairs += [c[j], s]
    emitted, at = alg.emit(pairs)
    dterms = tuple(
        DecompositionTerm(emitted, at[i], emitted, at[i + 1]) for i in range(0, len(at), 2)
    )
    f = None if finite is None else (emitted, finite)
    return OmegaDecomposition(sys.x.instance, sys.x.terminals, dterms, finite=f)


# -- pipeline report -----------------------------------------------------------


@dataclass
class GnfPipelineReport:
    """Stage-by-stage record of one normal form run."""

    stages: list[dict] = field(default_factory=list)

    def add(self, name: str, **info):
        self.stages.append({"stage": name, **info})

    def to_json(self) -> str:
        return json.dumps({"stages": self.stages}, indent=2, default=str)


def pipeline_from_decomposition(
    d: OmegaDecomposition | NormalizedDecomposition, report: GnfPipelineReport | None = None
):
    """Normalize, bring the summands and the finite part to Greibach form in
    one call, build and sum the pair systems over it, and fold into one
    omega system.  Returns the stages and selectors.

    The mixed output keeps the finite part under its own name, the variable
    of norm.system that norm.finite indexes; without one that part is zero.
    """
    rep = report if report is not None else GnfPipelineReport()
    norm = d if isinstance(d, NormalizedDecomposition) else normalize_decomposition(d)
    rep.add("normalize", terms=len(norm.terms))
    src = norm.system
    reads = [t for t, _, _ in norm.terms] + [s for _, s, _ in norm.terms if s is not None]
    reads += [] if norm.finite is None else [norm.finite]
    x = AlgebraicSystem(src.instance, src.terminals, (), ())
    if reads:
        x = finite_gnf(src, list(dict.fromkeys(src.variables[i] for i in reads))).system
    ix = {v: i for i, v in enumerate(x.variables)}
    at = lambda i: None if i is None else ix[src.variables[i]]
    parts = [build_pair_system(x, at(t), at(s), e) for t, s, e in norm.terms]
    mixed, selector = sum_systems(x, parts)
    # the x-part's monomials by number of trailing variables, 0, 1 and 2
    trailing = [0, 0, 0]
    for poly in x.rhs:
        for mono in poly.monomials:
            trailing[len(mono.word) - 1] += 1
    rep.add("pairs", count=len(parts), kept=len(x.variables), trailing=trailing)
    rep.add(
        "sum",
        z_vars=len(mixed.z_vars),
        x_vars=len(mixed.x.variables),
        gnf=is_gnf_mixed(mixed),
        buchi=selector.buchi_count,
        component=selector.component,
    )
    f = None if norm.finite is None else src.variables[norm.finite]
    pruned, selector = _prune_sum(mixed, selector, f)
    rep.add(
        "prune",
        x_vars=[len(mixed.x.variables), len(pruned.x.variables)],
        z_vars=[len(mixed.z_vars), len(pruned.z_vars)],
        buchi=selector.buchi_count,
    )
    mixed = pruned
    k = None if f is None else mixed.x.variables.index(f)
    omega_sys, omega_sel = unmix(mixed, k, selector.component, selector.buchi_count)
    rep.add(
        "unmix",
        variables=len(omega_sys.variables),
        buchi=omega_sel.buchi_count,
        component=omega_sel.component,
    )
    return norm, mixed, selector, omega_sys, omega_sel, rep


def _prune_sum(
    sys: MixedSystem, sel: CanonicalSelector, finite: str | None
) -> tuple[MixedSystem, CanonicalSelector]:
    """The part of a summed system that the selected z-component reaches, and
    the x-variable `finite` if there is one, in the same order; sys itself
    when that is all.

    Nothing else enters the selected component of any canonical solution,
    or the finite part unmix copies from that x-variable.  The Buchi count
    becomes the number of accepting z-variables kept, which stay first.
    """
    reach = {sel.component}
    stack = [sel.component]
    xs = set(sys.x.variables)
    x_keep = [] if finite is None else [finite]
    while stack:
        for j, p in sys.rho[stack.pop()].items():
            if j not in reach:
                reach.add(j)
                stack.append(j)
            x_keep.extend(s for mono in p.monomials for s in mono.word if s in xs)
    x = _prune_unreachable(sys.x, x_keep)
    if len(reach) == sys.m and x is sys.x:
        return sys, sel
    kept = sorted(reach)
    new = {j: i for i, j in enumerate(kept)}
    rho = tuple({new[j]: p for j, p in sys.rho[i].items()} for i in kept)
    pruned = MixedSystem(x, tuple(sys.z_vars[i] for i in kept), rho)
    buchi = sum(1 for i in kept if i < sel.buchi_count)
    return pruned, CanonicalSelector(buchi, new[sel.component])
