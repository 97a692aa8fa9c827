"""Reference for the finite normal form and the derivation oracle on lifted values.

Before their kernels passed raw rule rows, `finite_gnf` rebuilt and
revalidated an `AlgebraicSystem` after every stage, and both it and
`oracle_coeff_gnf` added and multiplied `SemiringValue`s and built
`Polynomial`s in their inner loops.  The functions below are those stages
and that oracle, unchanged but for `substitute_symbols`, a method of
`Polynomial` that only the lifted proper form called: tests/test_gnf.py
checks the raw kernels against them.
"""

from typing import Mapping, Sequence

from staromega._search import _sccs
from staromega.gnf import GnfResult, _accumulate, _Names
from staromega.matrix import _star
from staromega.semiring import SemiringValue, _scalar
from staromega.series import EPSILON, Polynomial, Word
from staromega.system import (
    AlgebraicSystem,
    IllFormedSystem,
    eps_coefficients,
    is_gnf_algebraic,
    productive_components,
)


def substitute_symbols(p: Polynomial, mapping: Mapping[str, Polynomial]) -> Polynomial:
    """Replace symbols by polynomials, expanding products; absent symbols stay."""
    inst = p.instance
    terms: list[tuple[SemiringValue, Word]] = []
    for m in p.monomials:
        partial: list[tuple[SemiringValue, Word]] = [(m.coeff, EPSILON)]
        for sym in m.word:
            rep = mapping.get(sym)
            if rep is None:
                partial = [(c, w + (sym,)) for c, w in partial]
            else:
                partial = [
                    (c * r.coeff, w + r.word)
                    for c, w in partial
                    for r in rep.monomials
                ]
            if not partial:
                break
        terms.extend(partial)
    return Polynomial.build(inst, terms)


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
        q = substitute_symbols(p, mapping) if mapping else p
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

def finite_gnf(sys: AlgebraicSystem, keep: Sequence[str] | None = None) -> GnfResult:
    """Greibach normal form with the same least solution off the empty word.

    Returns the transformed system and the index of each variable of `keep`
    in it (the output is epsilon-free, single leading terminal, at most two
    trailing variables).  `keep` names the variables whose components the
    caller reads, all of them by default; only what they reach is normalized
    and returned.
    """
    keep = list(sys.variables if keep is None else keep)
    proper, _ = proper_form(_prune_unreachable(sys, keep))
    gnf = _drop_unproductive(proper, keep=keep)
    if not is_gnf_algebraic(gnf, allow_eps=False):
        binary = _binarize(_unit_elimination(gnf))
        gnf = _drop_unproductive(_leading_terminal_form(binary, keep), keep=keep)
        if not is_gnf_algebraic(gnf, allow_eps=False):
            raise IllFormedSystem("internal: normal form construction failed")
    return GnfResult(gnf, {v: gnf.variables.index(v) for v in keep})


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

def oracle_coeff_gnf(sys: AlgebraicSystem, component: int, w: Word) -> SemiringValue:
    """Coefficient of w by direct enumeration of leftmost derivations.

    Only valid for Greibach-shaped systems (every non-empty monomial emits a
    leading terminal).  There a monomial read at position i has its tail
    variables start after i, so the positions are solved from the end of w
    back to its start: spans[i][v] maps each end j to the weight of the
    derivations of w[i:j] from v, and reads only the spans of later starts.
    """
    if not is_gnf_algebraic(sys, allow_eps=True):
        raise IllFormedSystem("derivation oracle requires a Greibach-shaped system")
    inst = sys.instance
    n = len(w)
    spans: dict[int, dict[str, dict[int, SemiringValue]]] = {}
    for i in range(n, -1, -1):
        here: dict[str, dict[int, SemiringValue]] = {}
        for v, p in zip(sys.variables, sys.rhs):
            out: dict[int, SemiringValue] = {}
            for mono in p.monomials:
                if not mono.word:
                    ends = {i: mono.coeff}
                elif i < n and mono.word[0] == w[i]:
                    ends = {i + 1: mono.coeff}
                    for x in mono.word[1:]:
                        nxt: dict[int, SemiringValue] = {}
                        for j, c in ends.items():
                            for e, d in spans[j][x].items():
                                nxt[e] = nxt[e] + c * d if e in nxt else c * d
                        ends = nxt
                else:
                    continue
                for e, c in ends.items():
                    out[e] = out[e] + c if e in out else c
            here[v] = out
        spans[i] = here
    return spans[0][sys.variables[component]].get(n, inst.zero)
