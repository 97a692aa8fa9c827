"""Reference for the pair construction: one normal form per summand.

Before the summands shared one normal form, every summand (s + e eps) t^omega
took its own: the normal forms of what s's and t's designated components
reach, renamed t.v and s.v by `build_pair_system`, and renamed again u<p>.t.v
by `sum_systems`, which copied every part's x-variables into the sum.  The
normal form of the source's finite part came first, renamed f.v.  The
normalization brought each term's systems to proper form on their own.  The
three functions below are that construction, unchanged; `reference_pipeline`
assembles them as the pipeline did, up to the sum.
"""

from typing import NamedTuple, Sequence

from staromega.gnf import (
    _Names,
    _accumulate,
    _fresh_prefix,
    _gnf_split,
    _indexed_rows,
    OmegaDecomposition,
    finite_gnf,
    productive_components,
    proper_form,
)
from staromega.semiring import SemiringInstance, SemiringValue
from staromega.series import Polynomial
from staromega.system import (
    AlgebraicSystem,
    CanonicalSelector,
    IllFormedSystem,
    MixedSystem,
    is_gnf_algebraic,
    is_gnf_mixed,
)


def _rename_prefixed(sys: AlgebraicSystem, prefix: str) -> AlgebraicSystem:
    return sys.rename({v: prefix + v for v in sys.variables})


def _first(sys: AlgebraicSystem, name: str) -> AlgebraicSystem:
    """sys with variable `name` moved to the front."""
    order = (name,) + tuple(v for v in sys.variables if v != name)
    ix = {v: i for i, v in enumerate(sys.variables)}
    return AlgebraicSystem(
        sys.instance, sys.terminals, order, tuple(sys.rhs[ix[v]] for v in order)
    )


class NormalTerm(NamedTuple):
    """A normalized summand (s + eps_coeff eps) t^omega; a missing s_sys or
    eps_coeff stands for zero."""

    t_sys: AlgebraicSystem
    t_component: int
    s_sys: AlgebraicSystem | None
    s_component: int
    eps_coeff: SemiringValue | None


def normalize_decomposition(d: OmegaDecomposition) -> tuple[NormalTerm, ...]:
    """Absorb empty-word parts: t-series become epsilon-free, and each
    s-series keeps its epsilon-free part as s_sys and its empty-word
    coefficient as eps_coeff, one term per input term; dead terms drop.
    Each term keeps systems of its own, so the terms are returned as they
    are.
    """
    inst = d.instance
    out: list[NormalTerm] = []
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
        s_sys = None
        s_proper, s_eps = proper_form(term.s_sys)
        eps = s_eps[term.s_component]
        if s_proper.variables[term.s_component] in productive_components(s_proper):
            s_sys = s_proper
        if s_sys is not None or not eps.is_zero():
            out.append(
                NormalTerm(
                    t_proper, t_comp, s_sys, term.s_component, None if eps.is_zero() else eps
                )
            )
    return tuple(out)


def _fresh_var(sys: AlgebraicSystem, base: str) -> str:
    names = _Names(set(sys.variables) | set(sys.terminals))
    return names.fresh(base)


def reference_pipeline(d, finite=None):
    """The summed pair systems of d, the normal form of `finite` first among
    their x-variables, and the selector: one normal form per (system,
    component), each pair over its own copies."""
    terms = normalize_decomposition(d)
    normal_forms = {}

    def gnf_of(sys, comp):
        if (sys, comp) not in normal_forms:
            name = sys.variables[comp]
            normal_forms[sys, comp] = _first(finite_gnf(sys, keep=[name]).system, name)
        return normal_forms[sys, comp]

    parts = []
    for term in terms:
        t_nf = gnf_of(term.t_sys, term.t_component)
        s_nf = None if term.s_sys is None else gnf_of(term.s_sys, term.s_component)
        parts.append(build_pair_system(t_nf, 0, s_nf, 0, term.eps_coeff))
    mixed, selector = sum_systems(d.instance, d.terminals, parts)
    if finite is not None:
        nf = gnf_of(*finite)
        f = _rename_prefixed(nf, _fresh_prefix("f", nf.variables, set(d.terminals)))
        x = mixed.x
        x = AlgebraicSystem(x.instance, x.terminals, f.variables + x.variables, f.rhs + x.rhs)
        mixed = MixedSystem(x, mixed.z_vars, mixed.rho)
    return mixed, selector


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
    xs = AlgebraicSystem(inst, terminals, x_vars, x_rhs)
    mixed = MixedSystem(xs, z_vars, _indexed_rows(rows, z_vars))
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
        pre = _fresh_prefix(f"u{pidx}", part.x.variables + part.z_vars, taken)
        ren_x = {v: pre + v for v in part.x.variables}
        x_vars.extend(pre + v for v in part.x.variables)
        x_rhs.extend(p.rename_symbols(ren_x) for p in part.x.rhs)
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
    xs = AlgebraicSystem(inst, tuple(terminals), tuple(x_vars), tuple(x_rhs))
    mixed = MixedSystem(xs, z_vars, _indexed_rows(rows, z_vars))
    return mixed, CanonicalSelector(l, len(z_vars) - 1)
