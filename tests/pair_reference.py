"""Reference for the pair construction: one pair per empty-word case.

This is how a summand s t^omega was built before its empty-word coefficient
was folded into its pair.  A normalized summand with a nonzero empty-word
coefficient e became two: the "scalar" pair e t^omega and, where the
epsilon-free part s' of s is productive, the "zero" pair s' t^omega, summed
by `staromega.gnf.sum_systems`.  The function below is that construction,
unchanged.
"""

from staromega.gnf import _fresh_prefix, _gnf_split, _indexed_rows, _rename_prefixed
from staromega.semiring import SemiringValue
from staromega.series import Polynomial
from staromega.system import (
    AlgebraicSystem,
    CanonicalSelector,
    IllFormedSystem,
    MixedSystem,
    is_gnf_algebraic,
    is_gnf_mixed,
)


def build_pair_system(
    t_sys: AlgebraicSystem,
    t_component: int,
    s_sys: AlgebraicSystem | None = None,
    s_component: int = 0,
    eps_case: str = "zero",
    eps_coeff: SemiringValue | None = None,
) -> tuple[MixedSystem, CanonicalSelector]:
    """Mixed system in Greibach form whose first canonical solution carries
    s t^omega (or the scalar variant) on the selected z-component.

    The omega part loops through a fresh accepting variable that replays the
    t-equations, so only genuine t-cycles are accepted.  The x-variables
    are renamed t.v and s.v, the z-variables z.acc, z.t0, ..., z.s0, ... or
    z.eps; a head gains primes (t'.v) where a name would be a terminal.
    """
    inst = t_sys.instance
    if not is_gnf_algebraic(t_sys, allow_eps=False):
        raise IllFormedSystem("pair construction needs an epsilon-free Greibach t-system")
    m = len(t_sys.variables)
    t_comp = t_component

    if eps_case == "zero":
        if s_sys is None:
            raise IllFormedSystem("missing s-system for the epsilon-free case")
        if not is_gnf_algebraic(s_sys, allow_eps=False):
            raise IllFormedSystem("pair construction needs an epsilon-free Greibach s-system")
        terminals = tuple(sorted(set(s_sys.terminals) | set(t_sys.terminals)))
        taken = set(terminals)
        t = _rename_prefixed(t_sys, _fresh_prefix("t", t_sys.variables, taken))
        s = _rename_prefixed(s_sys, _fresh_prefix("s", s_sys.variables, taken))
        n = len(s.variables)
        x_vars = s.variables + t.variables
        x_rhs = s.rhs + t.rhs
    elif eps_case == "scalar":
        if eps_coeff is None or eps_coeff.is_zero():
            raise IllFormedSystem("scalar case needs a nonzero coefficient")
        terminals = tuple(t_sys.terminals)
        taken = set(terminals)
        t = _rename_prefixed(t_sys, _fresh_prefix("t", t_sys.variables, taken))
        s = None
        n = 0
        x_vars = t.variables
        x_rhs = t.rhs
    else:
        raise IllFormedSystem(f"unknown case {eps_case!r}")

    t_ix = {v: i for i, v in enumerate(t.variables)}
    t_head = {}
    t_tails = {}
    for i in range(m):
        t_head[i], t_tails[i] = _gnf_split(t.rhs[i], t_ix)

    z_local = ["acc"] + [f"t{i}" for i in range(m)]
    z_local += [f"s{i}" for i in range(n)] if s is not None else ["eps"]
    zp = _fresh_prefix("z", z_local, taken)
    z_acc = zp + "acc"
    zt = tuple(f"{zp}t{i}" for i in range(m))
    rows: dict[str, dict[str, Polynomial]] = {}

    def t_row(i: int) -> dict[str, Polynomial]:
        row = {z_acc: t_head[i]}
        for j, poly in t_tails[i].items():
            row[zt[j]] = poly
        return row

    rows[z_acc] = t_row(t_comp)
    for i in range(m):
        rows[zt[i]] = t_row(i)

    if eps_case == "zero":
        s_ix = {v: i for i, v in enumerate(s.variables)}
        zs = tuple(f"{zp}s{i}" for i in range(n))
        for i in range(n):
            hd, tl = _gnf_split(s.rhs[i], s_ix)
            row = {z_acc: hd}
            for j, poly in tl.items():
                row[zs[j]] = poly
            rows[zs[i]] = row
        designated = zs[s_component]
        z_vars = (z_acc, designated) + tuple(
            v for v in (zt + zs) if v != designated
        )
    else:
        designated = zp + "eps"
        rows[designated] = {
            col: poly.scale(eps_coeff) for col, poly in t_row(t_comp).items()
        }
        z_vars = (z_acc, designated) + zt

    mixed = MixedSystem(inst, terminals, x_vars, x_rhs, z_vars, _indexed_rows(rows, z_vars))
    if not is_gnf_mixed(mixed):
        raise IllFormedSystem("internal: pair construction left Greibach form")
    return mixed, CanonicalSelector(1, 1)
