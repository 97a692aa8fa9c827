"""Greibach normal form pipeline for algebraic and mixed omega systems.

finite_gnf normalizes one algebraic system (empty-word split, chain removal,
binarization, then the matrix-equation transformation that forces a leading
terminal with at most two trailing variables).  The omega constructions
assemble one pair system (s + e eps) t^omega per summand, e being s's
empty-word coefficient, each from the normal forms of what its designated
components reach, sum them behind a fresh collector variable, place the
normal form of the source's finite part first among the x-variables, prune
the sum to what the collector and that finite part reach, move the finite
part to the x-index the output selects, and finally
fold a mixed system back into a single quemiring system whose last
component carries the finite part and the chosen pair of the canonical
solution.

Mixed systems carry their z-coefficients as sparse rows (see
staromega.system).  Pair systems, their block-diagonal sum and the fold
build and read the stored entries only, so their cost follows the number of
nonzero entries rather than the square of the z-variables; the one dense
matrix left is decompose_canonical's handle matrix over the input's own
z-variables.

decompose_canonical runs the Lehmann sweep of staromega.matrix on that
matrix with series handles as its values: nodes of a DAG whose leaves are
restricted components of the input's finite part and whose other nodes
each hold one equation over their children.  The path decomposition that
gives mat_omega_t then reads off at most k pairs s t^omega, with O(m^3)
handle nodes in all.  Combining handles copies no system; an algebraic
system is written out only for the handles of the returned pairs, one
variable per distinct node.  Chain rules are removed through the star of
the unit matrix, taken one strongly connected component at a time on
sparse rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import json

from ._search import _sccs
from .matrix import _add_identity, _star
from .semiring import SemiringInstance, SemiringValue, _scalar
from .series import EPSILON, Polynomial, Word
from .system import (
    AlgebraicSystem,
    CanonicalSelector,
    IllFormedSystem,
    MixedSystem,
    OmegaSystem,
    eps_coefficients,
    is_gnf_algebraic,
    is_gnf_mixed,
    productive_components,
)


# -- proper form --------------------------------------------------------------


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
    mapping = {}
    for v, e in zip(sys.variables, eps):
        if not e.is_zero():
            mapping[v] = Polynomial.build(inst, [(e, EPSILON), (inst.one, (v,))])
    new_rhs = []
    for p in sys.rhs:
        q = p.substitute_symbols(mapping) if mapping else p
        if q.monomials and not q.monomials[0].word:
            q = Polynomial(inst, q.monomials[1:])
        new_rhs.append(q)
    return (
        AlgebraicSystem(inst, sys.terminals, sys.variables, tuple(new_rhs)),
        eps,
    )


def _unit_elimination(sys: AlgebraicSystem) -> AlgebraicSystem:
    """Fold single-variable monomials into the other rules: x_i = sum_j U*[i][j] rest_j.

    The unit matrix U is kept as sparse rows and its star taken one strongly
    connected component C at a time, sinks first.  A path from i in C stays
    in C up to its last state c there, then stops or leaves along an edge
    c -> d and continues from d, whose row is already known:

        row(i) = sum_{c in C} S[i][c] (e_c + sum_{c -> d leaving C} U[c][d] row(d)),

    with S the star of C's own block.  Every path is counted once, so the rows
    equal the dense star's in every instance, counting included.
    """
    inst = sys.instance
    zero = inst.zero_raw()
    ix = {v: i for i, v in enumerate(sys.variables)}
    unit: list[dict[int, SemiringValue]] = []
    rest: list[list] = []
    for p in sys.rhs:
        unit.append({})
        rest.append([])
        for mono in p.monomials:
            if len(mono.word) == 1 and mono.word[0] in ix:
                unit[-1][ix[mono.word[0]]] = mono.coeff
            else:
                rest[-1].append(mono)
    nodes = list(range(len(unit)))
    rows: list[dict[int, SemiringValue]] = [{} for _ in nodes]
    for comp in _sccs(nodes, {i: list(row.items()) for i, row in enumerate(unit)}):
        block = [[unit[c][d].value if d in unit[c] else zero for d in comp] for c in comp]
        star = _star(inst, block)
        members = set(comp)
        exits = []
        for c in comp:
            out = {c: inst.one}
            for d, u in unit[c].items():
                if d not in members:
                    for e, r in rows[d].items():
                        _accumulate(out, e, u * r)
            exits.append(out)
        for a, i in enumerate(comp):
            for b, out in enumerate(exits):
                if star[a][b] != zero:
                    s = _scalar(inst, star[a][b])
                    for e, r in out.items():
                        _accumulate(rows[i], e, s * r)
    new_rhs = tuple(
        Polynomial.build(
            inst, [(c * mono.coeff, mono.word) for j, c in row.items() for mono in rest[j]]
        )
        for row in rows
    )
    return AlgebraicSystem(inst, sys.terminals, sys.variables, new_rhs)


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


def _binarize(sys: AlgebraicSystem) -> AlgebraicSystem:
    """Rewrite every rule to a single terminal or a pair of variables."""
    inst = sys.instance
    names = _Names(set(sys.variables) | set(sys.terminals))
    new_vars = list(sys.variables)
    new_rhs: dict[str, list[tuple[SemiringValue, Word]]] = {v: [] for v in sys.variables}
    term_var: dict[str, str] = {}
    pair_var: dict[Word, str] = {}

    def var_for_terminal(a: str) -> str:
        if a not in term_var:
            v = names.fresh(f"t_{a}")
            term_var[a] = v
            new_vars.append(v)
            new_rhs[v] = [(inst.one, (a,))]
        return term_var[a]

    def var_for_suffix(word: Word) -> str:
        if len(word) == 1:
            return word[0]
        if word not in pair_var:
            v = names.fresh(f"g{len(pair_var)}")
            pair_var[word] = v
            new_vars.append(v)
            new_rhs[v] = [(inst.one, (word[0], var_for_suffix(word[1:])))]
        return pair_var[word]

    for v, p in zip(sys.variables, sys.rhs):
        for mono in p.monomials:
            w = mono.word
            if len(w) == 1 and w[0] in sys.terminals:
                new_rhs[v].append((mono.coeff, w))
                continue
            if len(w) == 0:
                raise IllFormedSystem("binarization expects a proper system")
            syms = tuple(
                var_for_terminal(s) if s in sys.terminals else s for s in w
            )
            if len(syms) == 1:
                new_rhs[v].append((mono.coeff, syms))
            else:
                new_rhs[v].append((mono.coeff, (syms[0], var_for_suffix(syms[1:]))))

    return AlgebraicSystem(
        inst,
        sys.terminals,
        tuple(new_vars),
        tuple(Polynomial.build(inst, new_rhs[v]) for v in new_vars),
    )


def _leading_terminal_form(
    sys: AlgebraicSystem, keep: Sequence[str] | None = None
) -> AlgebraicSystem:
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
    inst = sys.instance
    n = len(sys.variables)
    ix = {v: i for i, v in enumerate(sys.variables)}
    b: list[list[tuple[SemiringValue, Word]]] = [[] for _ in range(n)]
    # amat[q][p]: the (coefficient, tail) pairs of entry (q, p)
    amat: list[dict[int, list[tuple[SemiringValue, str]]]] = [{} for _ in range(n)]
    for p_ix, p in enumerate(sys.rhs):
        for mono in p.monomials:
            w = mono.word
            if len(w) == 1 and w[0] in sys.terminals:
                b[p_ix].append((mono.coeff, w))
            elif len(w) == 2 and w[0] in ix and w[1] in ix:
                # x_p gains x_q * (coeff x_k): entry (q, p) holds coeff, tail k
                amat[ix[w[0]]].setdefault(p_ix, []).append((mono.coeff, w[1]))
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

    names = _Names(set(sys.variables) | set(sys.terminals))
    yname: dict[tuple[int, int], str] = {}
    work: list[tuple[int, int]] = []

    def y(q: int, p: int) -> str:
        if (q, p) not in yname:
            yname[(q, p)] = names.fresh(f"r{q}_{p}")
            work.append((q, p))
        return yname[(q, p)]

    x_rhs: dict[int, list[tuple[SemiringValue, Word]]] = {}

    def x_terms(p: int) -> list[tuple[SemiringValue, Word]]:
        """x_p = b_p + sum_q b_q y(q, p)."""
        if p not in x_rhs:
            terms = list(b[p])
            for q in sorted(live(p)):
                if b[q]:
                    yn = y(q, p)
                    terms += [(c, w + (yn,)) for c, w in b[q]]
            x_rhs[p] = terms
        return x_rhs[p]

    kept = set(sys.variables if keep is None else keep)
    x_vars = tuple(v for v in sys.variables if v in kept)
    for v in x_vars:
        x_terms(ix[v])

    # y(q, p) = A[q][p] + sum_r A[q][r] y(r, p), with the leading variable of
    # each A-entry replaced by its x-equation
    y_rhs: dict[tuple[int, int], list[tuple[SemiringValue, Word]]] = {}
    while work:
        (q, p_ix) = work.pop()
        col = live(p_ix)
        terms: list[tuple[SemiringValue, Word]] = []
        for c, tail in amat[q].get(p_ix, ()):
            for xc, xw in x_terms(ix[tail]):
                terms.append((c * xc, xw))
        for r, entry in amat[q].items():
            if r not in col:
                continue
            yn = y(r, p_ix)
            for c, tail in entry:
                for xc, xw in x_terms(ix[tail]):
                    terms.append((c * xc, xw + (yn,)))
        y_rhs[(q, p_ix)] = terms

    ys = sorted(yname)
    rhs = [Polynomial.build(inst, x_rhs[ix[v]]) for v in x_vars]
    rhs += [Polynomial.build(inst, y_rhs[k]) for k in ys]
    return AlgebraicSystem(inst, sys.terminals, x_vars + tuple(yname[k] for k in ys), tuple(rhs))


@dataclass(frozen=True)
class GnfResult:
    system: AlgebraicSystem
    component_of: dict[str, int]
    eps: dict[str, SemiringValue]


def finite_gnf(sys: AlgebraicSystem, keep: Sequence[str] | None = None) -> GnfResult:
    """Greibach normal form with the same least solution off the empty word.

    Returns the transformed system, the index of each variable of `keep` in
    it, and the original empty-word coefficients (the output itself is
    epsilon-free, single leading terminal, at most two trailing variables).
    `keep` names the variables whose components the caller reads, all of
    them by default; only what they reach is normalized and returned, and
    the empty-word coefficients cover the variables they reach.
    """
    keep = list(sys.variables if keep is None else keep)
    sys = _prune_unreachable(sys, keep)
    proper, eps = proper_form(sys)
    eps_map = dict(zip(sys.variables, eps))
    gnf = _drop_unproductive(proper, keep=keep)
    if not is_gnf_algebraic(gnf, allow_eps=False):
        binary = _binarize(_unit_elimination(gnf))
        gnf = _drop_unproductive(_leading_terminal_form(binary, keep), keep=keep)
        if not is_gnf_algebraic(gnf, allow_eps=False):
            raise IllFormedSystem("internal: normal form construction failed")
    return GnfResult(gnf, {v: gnf.variables.index(v) for v in keep}, eps_map)


def _drop_unproductive(sys: AlgebraicSystem, keep: list[str]) -> AlgebraicSystem:
    """Erase monomials through variables that generate nothing, then prune.

    Variables in `keep` survive even with an empty equation, so component
    indices stay resolvable by name.
    """
    productive = productive_components(sys)
    dead = set(sys.variables) - productive
    new_rhs = []
    for p in sys.rhs:
        kept = tuple(m for m in p.monomials if dead.isdisjoint(m.word)) if dead else p.monomials
        new_rhs.append(p if len(kept) == len(p.monomials) else Polynomial(p.instance, kept))
    if any(q is not p for q, p in zip(new_rhs, sys.rhs)):
        sys = AlgebraicSystem(sys.instance, sys.terminals, sys.variables, tuple(new_rhs))
    return _prune_unreachable(sys, keep)


def _prune_unreachable(sys: AlgebraicSystem, keep: list[str]) -> AlgebraicSystem:
    """The variables reachable from keep, in their order; sys itself when that is all."""
    ix = {v: i for i, v in enumerate(sys.variables)}
    reach = set(keep)
    stack = list(keep)
    while stack:
        v = stack.pop()
        for mono in sys.rhs[ix[v]].monomials:
            for s in mono.word:
                if s in ix and s not in reach:
                    reach.add(s)
                    stack.append(s)
    if len(reach) == len(ix):
        return sys
    vars2 = tuple(v for v in sys.variables if v in reach)
    rhs2 = tuple(sys.rhs[ix[v]] for v in vars2)
    return AlgebraicSystem(sys.instance, sys.terminals, vars2, rhs2)


# -- omega decompositions ------------------------------------------------------


@dataclass(frozen=True)
class DecompositionTerm:
    """One summand (s + eps_coeff eps) t^omega: systems plus designated components.

    A missing s_sys or eps_coeff stands for zero.  In a normalized term both
    systems are epsilon-free, s_sys is present only where its component is
    productive, and eps_coeff only where it is nonzero, so at least one is.
    """

    t_sys: AlgebraicSystem
    t_component: int
    s_sys: AlgebraicSystem | None = None
    s_component: int = 0
    eps_coeff: SemiringValue | None = None


@dataclass(frozen=True)
class OmegaDecomposition:
    instance: SemiringInstance
    terminals: tuple[str, ...]
    terms: tuple[DecompositionTerm, ...]
    normalized: bool = False

    @property
    def width(self) -> int:
        return len(self.terms)


def normalize_decomposition(d: OmegaDecomposition) -> OmegaDecomposition:
    """Absorb empty-word parts: t-series become epsilon-free, and each
    s-series keeps its epsilon-free part as s_sys and its empty-word
    coefficient as eps_coeff, one term per input term; dead terms drop.
    """
    inst = d.instance
    out: list[DecompositionTerm] = []
    for term in d.terms:
        t_proper, t_eps = proper_form(term.t_sys)
        t_comp = term.t_component
        tname = t_proper.variables[t_comp]
        if tname not in productive_components(t_proper):
            continue
        e_t = t_eps[t_comp]
        if not e_t.is_zero():
            scale = e_t.star()
            alias = _fresh_var(t_proper, "tsc")
            t_proper = AlgebraicSystem(
                inst,
                t_proper.terminals,
                t_proper.variables + (alias,),
                t_proper.rhs
                + (Polynomial.build(inst, [(scale, (tname,))]),),
            )
            t_comp = len(t_proper.variables) - 1
        eps = inst.zero if term.eps_coeff is None else term.eps_coeff
        s_sys = None
        if term.s_sys is not None:
            s_proper, s_eps = proper_form(term.s_sys)
            eps = eps + s_eps[term.s_component]
            if s_proper.variables[term.s_component] in productive_components(s_proper):
                s_sys = s_proper
        if s_sys is not None or not eps.is_zero():
            out.append(
                DecompositionTerm(
                    t_proper, t_comp, s_sys, term.s_component, None if eps.is_zero() else eps
                )
            )
    return OmegaDecomposition(inst, d.terminals, tuple(out), normalized=True)


def _fresh_var(sys: AlgebraicSystem, base: str) -> str:
    names = _Names(set(sys.variables) | set(sys.terminals))
    return names.fresh(base)


def _fresh_prefix(head: str, names: Sequence[str], taken: set[str]) -> str:
    """head + '.', with primes added to head until no prefixed name is taken."""
    while True:
        pre = head + "."
        clash = {t[len(pre):] for t in taken if t.startswith(pre)}
        if not clash or clash.isdisjoint(names):
            return pre
        head += "'"


# -- pair construction ---------------------------------------------------------


def _rename_prefixed(sys: AlgebraicSystem, prefix: str) -> AlgebraicSystem:
    return sys.rename({v: prefix + v for v in sys.variables})


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
    t_sys: AlgebraicSystem,
    t_component: int,
    s_sys: AlgebraicSystem | None = None,
    s_component: int = 0,
    eps_coeff: SemiringValue | None = None,
) -> tuple[MixedSystem, CanonicalSelector]:
    """Mixed system in Greibach form whose first canonical solution carries
    (s + eps_coeff eps) t^omega on the selected z-component.

    Every equation of t and of s gets a z-row: its head continues into a
    fresh accepting variable z.acc, which replays the t-equation of the
    component, so only genuine t-cycles are accepted, and each two-variable
    tail into the row of its last variable.  Without a coefficient the
    selected z-variable is s's designated z.s<c>; with one it is a fresh
    z.eps, whose row is that row, if there is an s, plus eps_coeff times
    z.acc's.  z.s<c> may be the tail target of other s-rows, so it cannot
    take the coefficient itself.  The x-variables are renamed t.v and s.v,
    the z-variables z.acc, z.t0, ..., z.s0, ... and z.eps; a head gains
    primes (t'.v) where a name would be a terminal.
    """
    inst = t_sys.instance
    systems = (t_sys,) if s_sys is None else (s_sys, t_sys)
    if not all(is_gnf_algebraic(sys, allow_eps=False) for sys in systems):
        raise IllFormedSystem("pair construction needs epsilon-free Greibach systems")
    if eps_coeff is not None and eps_coeff.is_zero():
        eps_coeff = None
    if s_sys is None and eps_coeff is None:
        raise IllFormedSystem("pair construction needs an s-system or a nonzero coefficient")
    terminals = tuple(sorted(set().union(*(sys.terminals for sys in systems))))
    taken = set(terminals)
    rename = lambda sys, head: _rename_prefixed(sys, _fresh_prefix(head, sys.variables, taken))
    t = rename(t_sys, "t")
    s = None if s_sys is None else rename(s_sys, "s")
    z_local = ["acc"] + [f"t{i}" for i in range(len(t.variables))]
    z_local += [] if s is None else [f"s{i}" for i in range(len(s.variables))]
    z_local += [] if eps_coeff is None else ["eps"]
    zp = _fresh_prefix("z", z_local, taken)
    z_acc = zp + "acc"
    rows: dict[str, dict[str, Polynomial]] = {}

    def add_rows(sys: AlgebraicSystem, head: str) -> tuple[str, ...]:
        zs = tuple(f"{zp}{head}{i}" for i in range(len(sys.variables)))
        ix = {v: i for i, v in enumerate(sys.variables)}
        for zi, poly in zip(zs, sys.rhs):
            hd, tails = _gnf_split(poly, ix)
            rows[zi] = {z_acc: hd, **{zs[j]: p for j, p in tails.items()}}
        return zs

    zt = add_rows(t, "t")
    rows[z_acc] = rows[zt[t_component]]
    zs = () if s is None else add_rows(s, "s")
    if eps_coeff is None:
        designated = zs[s_component]
    else:
        designated = zp + "eps"
        rows[designated] = {} if s is None else dict(rows[zs[s_component]])
        for col, poly in rows[z_acc].items():
            _accumulate(rows[designated], col, poly.scale(eps_coeff))
    z_vars = (z_acc, designated) + tuple(v for v in zt + zs if v != designated)
    x = (t,) if s is None else (s, t)
    x_vars = tuple(v for sys in x for v in sys.variables)
    x_rhs = tuple(p for sys in x for p in sys.rhs)
    mixed = MixedSystem(inst, terminals, x_vars, x_rhs, z_vars, _indexed_rows(rows, z_vars))
    if not is_gnf_mixed(mixed):
        raise IllFormedSystem("internal: pair construction left Greibach form")
    return mixed, CanonicalSelector(1, 1)


def sum_systems(
    instance: SemiringInstance,
    terminals: Sequence[str],
    parts: Sequence[tuple[MixedSystem, CanonicalSelector]],
) -> tuple[MixedSystem, CanonicalSelector]:
    """Block-diagonal union with a fresh collector variable.

    Every part must designate a non-accepting z-component of its first
    canonical solution; the collector replays those components' rows and the
    l-th canonical solution of the union sums the parts.  Part p's variables
    are renamed u{p}.v and the collector is z.sum, each kept off the
    terminals as in build_pair_system.
    """
    inst = instance
    l = len(parts)
    taken = set(terminals)
    # the part variables all start with u, so only a terminal can be z.sum
    collector = _Names(taken).fresh("z.sum")
    x_vars: list[str] = []
    x_rhs: list[Polynomial] = []
    buchi_vars: list[str] = []
    tail_vars: list[str] = []
    rows: dict[str, dict[str, Polynomial]] = {collector: {}}
    for pidx, (part, sel) in enumerate(parts):
        if sel.buchi_count != 1 or sel.component == 0:
            raise IllFormedSystem(
                "summands must designate a non-accepting component at count 1"
            )
        pre = _fresh_prefix(f"u{pidx}", part.x_vars + part.z_vars, taken)
        ren_x = {v: pre + v for v in part.x_vars}
        x_vars.extend(pre + v for v in part.x_vars)
        x_rhs.extend(p.rename_symbols(ren_x) for p in part.x_rhs)
        local_order = [part.z_vars[sel.component]] + [
            v for i, v in enumerate(part.z_vars) if i != sel.component and i != 0
        ]
        buchi_vars.append(pre + part.z_vars[0])
        tail_vars.extend(pre + v for v in local_order)
        for zv, row in zip(part.z_vars, part.rho):
            rows[pre + zv] = {
                pre + part.z_vars[j]: p.rename_symbols(ren_x) for j, p in row.items()
            }
        rows[collector].update(rows[pre + part.z_vars[sel.component]])
    z_vars = tuple(buchi_vars) + tuple(tail_vars) + (collector,)
    mixed = MixedSystem(
        inst, tuple(terminals), tuple(x_vars), tuple(x_rhs), z_vars, _indexed_rows(rows, z_vars)
    )
    return mixed, CanonicalSelector(l, len(z_vars) - 1)


def _indexed_rows(
    rows: dict[str, dict[str, Polynomial]], z_vars: tuple[str, ...]
) -> tuple[dict[int, Polynomial], ...]:
    """Name-keyed z-coefficient rows as MixedSystem's sparse rows over z_vars."""
    zix = {z: j for j, z in enumerate(z_vars)}
    return tuple(
        dict(sorted((zix[col], p) for col, p in rows[zi].items() if not p.is_zero()))
        for zi in z_vars
    )


def char_to_mixed(d: OmegaDecomposition) -> tuple[MixedSystem, CanonicalSelector]:
    """Direct mixed system for a sum of pairs: one accepting loop variable per
    t-series and one collector fed by the s-series.

    Term j's x-variables are c{j}.t.v and c{j}.s.v, and with a coefficient
    e the alias c{j}.s = e eps | c{j}.s.v that the collector reads (e eps
    alone without an s-series); the z-variables are z0, z1, ... and zout.  A
    name that would be a terminal gains primes, as in build_pair_system.
    """
    if not d.normalized:
        raise IllFormedSystem("characteristic system needs a normalized decomposition")
    inst = d.instance
    l = d.width
    taken = set(d.terminals)
    x_vars: list[str] = []
    x_rhs: list[Polynomial] = []
    s_polys: list[Polynomial] = []
    t_alias: list[str] = []
    for j, term in enumerate(d.terms):
        local = ["t." + v for v in term.t_sys.variables]
        local += [] if term.s_sys is None else ["s." + v for v in term.s_sys.variables]
        local += [] if term.eps_coeff is None else ["s"]
        pre = _fresh_prefix(f"c{j}", local, taken)
        t = _rename_prefixed(term.t_sys, pre + "t.")
        x_vars.extend(t.variables)
        x_rhs.extend(t.rhs)
        t_alias.append(t.variables[term.t_component])
        s_poly = Polynomial.zero(inst)
        if term.s_sys is not None:
            s = _rename_prefixed(term.s_sys, pre + "s.")
            x_vars.extend(s.variables)
            x_rhs.extend(s.rhs)
            s_poly = Polynomial.of_word(inst, (s.variables[term.s_component],))
        if term.eps_coeff is not None:
            x_vars.append(pre + "s")
            x_rhs.append(Polynomial.build(inst, [(term.eps_coeff, EPSILON)]) + s_poly)
            s_poly = Polynomial.of_word(inst, (pre + "s",))
        s_polys.append(s_poly)
    # the x-variables all hold a dot, so only a terminal can take a z-name
    fresh = _Names(taken).fresh
    z_vars = tuple(fresh(f"z{j}") for j in range(l)) + (fresh("zout"),)
    rho_rows = [{j: Polynomial.of_word(inst, (t_alias[j],))} for j in range(l)]
    rho_rows.append(dict(enumerate(s_polys)))
    mixed = MixedSystem(
        inst, d.terminals, tuple(x_vars), tuple(x_rhs), z_vars, tuple(rho_rows)
    )
    return mixed, CanonicalSelector(l, l)


# -- folding a mixed system into one omega system ------------------------------


def unmix(
    sys: MixedSystem, k: int | None, l: int, t: int
) -> tuple[OmegaSystem, CanonicalSelector]:
    """One quemiring system whose last component pairs x-component k with
    z-component l at Buchi count t; the omega-loop equations come first so
    the canonical solution keeps accepting exactly the former z-variables.
    With k None, as for a decomposition that carries no finite part, the
    finite part of the last component is zero."""
    if not is_gnf_mixed(sys):
        raise IllFormedSystem("unmix needs a mixed system in Greibach form")
    if not 0 <= t <= sys.m:
        raise IllFormedSystem("Buchi count out of range")
    inst = sys.instance
    # h.z, b.x and ydot differ in their first letter, so only a terminal can
    # take one of them; a head gains primes where it would
    taken = set(sys.terminals)
    hp = _fresh_prefix("h", sys.z_vars, taken)
    bp = _fresh_prefix("b", sys.x_vars, taken)
    hat = {zv: hp + zv for zv in sys.z_vars}
    bar = {xv: bp + xv for xv in sys.x_vars}
    hat_rhs = []
    for row in sys.rho:
        terms = []
        for j, p in row.items():
            for mono in p.rename_symbols(bar).monomials:
                terms.append((mono.coeff, mono.word + (hat[sys.z_vars[j]],)))
        hat_rhs.append(Polynomial.build(inst, terms))
    bar_rhs = [p.rename_symbols(bar) for p in sys.x_rhs]
    finite = Polynomial.zero(inst) if k is None else bar_rhs[k]
    dot_rhs = finite + hat_rhs[l]
    variables = (
        tuple(hat[z] for z in sys.z_vars)
        + tuple(bar[x] for x in sys.x_vars)
        + (_Names(taken).fresh("ydot"),)
    )
    rhs = tuple(hat_rhs) + tuple(bar_rhs) + (dot_rhs,)
    out = OmegaSystem(inst, sys.terminals, variables, rhs)
    return out, CanonicalSelector(t, len(variables) - 1)


# -- canonical decomposition of one omega component ----------------------------


class _Handle:
    """A series as a node of the handle DAG.

    A leaf holds a restricted algebraic system whose first variable is the
    series.  Any other node is one equation with coefficients one: `words`
    spells its monomials over slots, 0 for the node itself and 1, 2, ... for
    its children `kids`, which are all productive.  The series is zero
    exactly when that equation (a leaf's first) is empty.
    """

    __slots__ = ("leaf", "kids", "words", "productive")

    def __init__(self, leaf=None, kids=(), words=()):
        self.leaf, self.kids, self.words = leaf, kids, words
        self.productive = not leaf.rhs[0].is_zero() if leaf is not None else bool(words)


class _HandleAlgebra:
    """Rational combinators on series handles, as nodes of a DAG.

    It speaks the raw protocol of the generic `SemiringInstance.sweep_raw`
    and of `matrix._add_identity` (`add_raw`, `mul_raw`, `star_raw`,
    `zero_raw`, `one_raw`, `top_raw` and the row kernel `axpy_raw`), so it
    takes that Lehmann sweep over as its own and runs it on handle matrices
    unchanged; `top_raw` is None, so no row counts as saturated.
    `axpy_raw` is the generic y + l z comprehension: it builds the nodes
    cell by cell, in the order the normal form's output depends on.
    Leaves are components of the base system restricted to its productive,
    reachable variables.  Every combinator makes at most one node over its
    operands and copies nothing; an unproductive operand is left out, where
    restricting a glued system would erase it.  `zero_raw`
    is one shared unproductive handle and `mul_raw` returns it, so the
    sweep's zero test skips empty rows.  A system is written out only by
    `emit`, for the handles a decomposition returns: one variable per
    distinct node, however often it is shared.
    """

    def __init__(self, base: AlgebraicSystem):
        self.base = base
        self.top = _Names(set(base.variables) | set(base.terminals)).fresh("v")
        self.zero = _Handle()

    def of_poly(self, poly: Polynomial) -> _Handle:
        b = self.base
        glued = AlgebraicSystem(
            b.instance, b.terminals, b.variables + (self.top,), b.rhs + (poly,)
        )
        return _Handle(_restrict(glued, len(b.variables)))

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

    def emit(self, h: _Handle) -> AlgebraicSystem:
        """The system of h, variables d0, d1, ... over the distinct nodes in
        preorder, h's series first; a leaf takes one variable per variable of
        its system."""
        inst, terminals = self.base.instance, self.base.terminals
        at: dict[_Handle, int] = {}
        stack, n = [h], 0
        while stack:
            node = stack.pop()
            if node in at:
                continue
            at[node] = n
            if node.leaf is not None:
                n += len(node.leaf.variables)
            else:
                n += 1
                stack.extend(reversed(node.kids))
        fresh = _Names(set(terminals)).fresh
        names = [fresh(f"d{i}") for i in range(n)]
        rhs: list[Polynomial] = []
        for node, i in at.items():
            if node.leaf is not None:
                ren = dict(zip(node.leaf.variables, names[i:]))
                rhs.extend(p.rename_symbols(ren) for p in node.leaf.rhs)
                continue
            slots = [names[i]] + [names[at[kid]] for kid in node.kids]
            rhs.append(
                Polynomial.build(inst, [(inst.one, tuple(slots[s] for s in w)) for w in node.words])
            )
        return AlgebraicSystem(inst, terminals, tuple(names), tuple(rhs))


def _restrict(sys: AlgebraicSystem, comp: int) -> AlgebraicSystem:
    name = sys.variables[comp]
    return _first(_drop_unproductive(sys, [name]), name)


def _first(sys: AlgebraicSystem, name: str) -> AlgebraicSystem:
    """sys with variable `name` moved to the front."""
    order = (name,) + tuple(v for v in sys.variables if v != name)
    ix = {v: i for i, v in enumerate(sys.variables)}
    return AlgebraicSystem(
        sys.instance, sys.terminals, order, tuple(sys.rhs[ix[v]] for v in order)
    )


def decompose_canonical(
    sys: MixedSystem, k: int, component: int
) -> OmegaDecomposition:
    """Express one omega component of the k-th canonical solution as a sum of
    pairs s t^omega of algebraic series.

    The Lehmann sweep `sweep_raw` runs on the z-coefficient matrix of
    series handles in the pivot order m-1..0, and the component is read off
    by the path decomposition of `matrix`'s docstring: omega_k[i] =
    sum_{j<k} A[i][j] L_j^omega with L_j = C_j[j], one pair (A[i][j], L_j)
    for each j where both are nonzero, so at most k pairs.
    """
    m = sys.m
    if not 0 <= k <= m:
        raise IllFormedSystem(f"Buchi count {k} out of range 0..{m}")
    if not 0 <= component < m:
        raise IllFormedSystem(f"z-component {component} out of range for {m} z-variables")
    alg = _HandleAlgebra(sys.x_part)
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
            pairs.append((s, c[j]))
    dterms = tuple(
        DecompositionTerm(t_sys=alg.emit(t), t_component=0, s_sys=alg.emit(s), s_component=0)
        for (s, t) in pairs
    )
    return OmegaDecomposition(sys.instance, tuple(sys.terminals), dterms)


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
    d: OmegaDecomposition,
    report: GnfPipelineReport | None = None,
    finite: tuple[AlgebraicSystem, int] | None = None,
):
    """Normalize, bring every summand to Greibach form, build and sum the pair
    systems, and fold into one omega system.  Returns the stages and selectors.

    `finite` is the source's algebraic system and the component whose
    series, off the empty word, becomes the finite part of the result: its
    normal form, renamed f.v, comes first among the summed x-variables, and
    its first variable ends at the x-index the mixed output selects, 0 or,
    with as many x- as z-variables, the start's.  Without it the finite
    part is zero.
    """
    rep = report if report is not None else GnfPipelineReport()
    norm = d if d.normalized else normalize_decomposition(d)
    rep.add("normalize", terms=len(norm.terms))
    # summands can share a system, and equal systems give equal normal forms
    normal_forms: dict[tuple[AlgebraicSystem, int], AlgebraicSystem] = {}

    def gnf_of(sys: AlgebraicSystem, comp: int) -> AlgebraicSystem:
        """The normal form of what component comp reaches, that component first."""
        if (sys, comp) not in normal_forms:
            name = sys.variables[comp]
            normal_forms[sys, comp] = _first(finite_gnf(sys, keep=[name]).system, name)
        return normal_forms[sys, comp]

    parts = []
    for term in norm.terms:
        t_nf = gnf_of(term.t_sys, term.t_component)
        s_nf = None if term.s_sys is None else gnf_of(term.s_sys, term.s_component)
        parts.append(build_pair_system(t_nf, 0, s_nf, 0, term.eps_coeff))
    mixed, selector = sum_systems(norm.instance, norm.terminals, parts)
    if finite is not None:
        nf = gnf_of(*finite)
        f = _rename_prefixed(nf, _fresh_prefix("f", nf.variables, set(norm.terminals)))
        mixed = replace(mixed, x_vars=f.variables + mixed.x_vars, x_rhs=f.rhs + mixed.x_rhs)
    rep.add("pairs", count=len(parts), kept=[len(nf.variables) for nf in normal_forms.values()])
    rep.add(
        "sum",
        z_vars=len(mixed.z_vars),
        x_vars=len(mixed.x_vars),
        gnf=is_gnf_mixed(mixed),
        buchi=selector.buchi_count,
        component=selector.component,
    )
    pruned, selector = _prune_sum(mixed, selector, finite is not None)
    rep.add(
        "prune",
        x_vars=[len(mixed.x_vars), len(pruned.x_vars)],
        z_vars=[len(mixed.z_vars), len(pruned.z_vars)],
        buchi=selector.buchi_count,
    )
    mixed = pruned
    k = None
    if finite is not None:
        # a file with as many x- as z-variables reads the x-variable at its
        # start's index (cli._selection), so the finite part moves there
        k = selector.component if len(mixed.x_vars) == mixed.m else 0
        xs, rhs = mixed.x_vars, mixed.x_rhs
        mixed = replace(
            mixed,
            x_vars=xs[1 : k + 1] + xs[:1] + xs[k + 1 :],
            x_rhs=rhs[1 : k + 1] + rhs[:1] + rhs[k + 1 :],
        )
    omega_sys, omega_sel = unmix(mixed, k, selector.component, selector.buchi_count)
    rep.add(
        "unmix",
        variables=len(omega_sys.variables),
        buchi=omega_sel.buchi_count,
        component=omega_sel.component,
    )
    return norm, mixed, selector, omega_sys, omega_sel, rep


def _prune_sum(
    sys: MixedSystem, sel: CanonicalSelector, finite: bool
) -> tuple[MixedSystem, CanonicalSelector]:
    """The part of a summed system that the selected z-component reaches, and
    x-variable 0 if it holds a `finite` part, in the same order; sys itself
    when that is all.

    Nothing else enters the selected component of any canonical solution,
    or the finite part unmix copies from x-variable 0.  The Buchi count
    becomes the number of accepting z-variables kept, which stay first.
    """
    reach = {sel.component}
    stack = [sel.component]
    xs = set(sys.x_vars)
    x_keep = list(sys.x_vars[:1]) if finite else []
    while stack:
        for j, p in sys.rho[stack.pop()].items():
            if j not in reach:
                reach.add(j)
                stack.append(j)
            x_keep.extend(s for mono in p.monomials for s in mono.word if s in xs)
    x_part = _prune_unreachable(sys.x_part, x_keep)
    if len(reach) == sys.m and x_part is sys.x_part:
        return sys, sel
    kept = sorted(reach)
    new = {j: i for i, j in enumerate(kept)}
    rho = tuple({new[j]: p for j, p in sys.rho[i].items()} for i in kept)
    pruned = MixedSystem(
        sys.instance,
        sys.terminals,
        x_part.variables,
        x_part.rhs,
        tuple(sys.z_vars[i] for i in kept),
        rho,
    )
    buchi = sum(1 for i in kept if i < sel.buchi_count)
    return pruned, CanonicalSelector(buchi, new[sel.component])
