import hashlib
import itertools
import json
import random
from pathlib import Path

import gnf_stage_reference
import pair_reference
import pytest
from hypothesis import given, settings, strategies as st

from staromega.cli import EXIT_OK, GrammarFile, _selection, format_grammar, main, parse_grammar
from staromega.fixtures import pair_example_systems
from staromega.gnf import (
    DecompositionTerm,
    NormalizedDecomposition,
    OmegaDecomposition,
    build_pair_system,
    char_to_mixed,
    _binarize,
    _drop_unproductive,
    _leading_terminal_form,
    _prune_sum,
    _prune_unreachable,
    _unit_elimination,
    decompose_canonical,
    eps_coefficients,
    finite_gnf,
    normalize_decomposition,
    pipeline_from_decomposition,
    productive_components,
    proper_form,
    sum_systems,
    unmix,
)
from staromega.pda import behavior_omega_lasso, induced_omega_pda
from staromega.matrix import mat_from_raw, mat_star
from staromega.semiring import ARCTIC, BOOLEAN, COUNTING, INF, TROPICAL
from staromega.series import LassoWord, Polynomial, parse_polynomial
from staromega.system import (
    AlgebraicSystem,
    CanonicalSelector,
    IllFormedSystem,
    MixedSystem,
    canonical_omega_lasso,
    induce_mixed,
    is_gnf_algebraic,
    is_gnf_mixed,
    is_gnf_omega,
    least_solution_finite,
    oracle_coeff_gnf,
    sparse_row,
)


def poly(inst, text):
    return parse_polynomial(text, inst)


def series_equal_up_to(sys_a, comp_a, sys_b, comp_b, max_len, eps_b=None):
    sol_a = least_solution_finite(sys_a, max_len)
    sol_b = least_solution_finite(sys_b, max_len)
    for length in range(0, max_len + 1):
        for w in itertools.product(sys_a.terminals, repeat=length):
            want = sol_a[comp_a].coeff(w)
            got = sol_b[comp_b].coeff(w)
            if w == () and eps_b is not None:
                got = got + eps_b
            assert want == got, (w, want, got)


# -- empty-word handling ---------------------------------------------------------


def test_eps_coefficients_boolean():
    b = BOOLEAN
    sys = AlgebraicSystem(
        b, ("a", "b"), ("x1", "x2"),
        (poly(b, "x2 x1 | eps"), poly(b, "a x2 b | eps")),
    )
    assert [v.value for v in eps_coefficients(sys)] == [1, 1]
    proper, eps = proper_form(sys)
    assert [v.value for v in eps] == [1, 1]
    for p in proper.rhs:
        assert p.coeff_of(()).is_zero()
    series_equal_up_to(sys, 0, proper, 0, 5, eps_b=b.one)


def test_eps_coefficients_tropical_weighted():
    t = TROPICAL
    sys = AlgebraicSystem(t, ("a",), ("x",), (poly(t, "(2) eps | (1) a x"),))
    assert eps_coefficients(sys)[0].value == 2


def test_productive_components():
    b = BOOLEAN
    sys = AlgebraicSystem(
        b, ("a",), ("x", "dead"), (poly(b, "a"), poly(b, "a dead")),
    )
    assert productive_components(sys) == {"x"}


# -- finite Greibach construction ---------------------------------------------------


def test_finite_gnf_already_normal():
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a", "b"), ("x1",), (poly(b, "a x1 x1 | b"),))
    res = finite_gnf(sys)
    assert res.system.variables == sys.variables
    assert res.system.rhs == sys.rhs


def test_finite_gnf_nested_blocks_system():
    b = BOOLEAN
    sys = AlgebraicSystem(
        b, ("a", "b"), ("x1", "x2"),
        (poly(b, "x2 x1 | eps"), poly(b, "a x2 b | eps")),
    )
    res = finite_gnf(sys)
    assert is_gnf_algebraic(res.system)
    assert eps_coefficients(sys)[0].value == 1
    series_equal_up_to(sys, 0, res.system, res.component_of["x1"], 6, eps_b=b.one)
    series_equal_up_to(sys, 1, res.system, res.component_of["x2"], 6, eps_b=b.one)


def test_finite_gnf_random_semantic_equality():
    rng = random.Random(77)
    for _ in range(30):
        inst = rng.choice([BOOLEAN, TROPICAL])
        n = rng.randint(1, 3)
        letters = ("a", "b")
        names = tuple(f"x{i}" for i in range(n))
        coeffs = [1] if inst is BOOLEAN else [1, 2]
        rhs = []
        for _i in range(n):
            terms = []
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(0, 3)
                word = tuple(
                    rng.choice(letters + names) for _ in range(length)
                )
                terms.append((inst.value(rng.choice(coeffs)), word))
            rhs.append(Polynomial.build(inst, terms))
        sys = AlgebraicSystem(inst, letters, names, tuple(rhs))
        res = finite_gnf(sys)
        assert is_gnf_algebraic(res.system)
        eps = eps_coefficients(sys)
        for i, v in enumerate(sys.variables):
            series_equal_up_to(sys, i, res.system, res.component_of[v], 4, eps_b=eps[i])


# -- decomposition normalization ------------------------------------------------------


def _single_var_system(inst, terminals, text):
    return AlgebraicSystem(inst, terminals, ("v",), (poly(inst, text),))


def test_normalize_strips_epsilon_from_t():
    b = BOOLEAN
    t_sys = _single_var_system(b, ("a",), "eps | a")
    d = OmegaDecomposition(
        b, ("a",),
        (DecompositionTerm(t_sys, 0, _single_var_system(b, ("a",), "a"), 0),),
    )
    norm = normalize_decomposition(d)
    (t, _, _), = norm.terms
    assert eps_coefficients(norm.system)[t].is_zero()
    sol = least_solution_finite(norm.system, 3)
    assert sol[t].coeff(("a",)).value == 1


def test_normalize_keeps_the_empty_word_coefficient_in_the_term():
    t = TROPICAL
    s_sys = _single_var_system(t, ("a", "c"), "(2) eps | a v")
    t_sys = _single_var_system(t, ("a", "c"), "c")
    d = OmegaDecomposition(t, ("a", "c"), (DecompositionTerm(t_sys, 0, s_sys, 0),))
    norm = normalize_decomposition(d)
    (_, s, e), = norm.terms
    assert e.value == 2
    assert eps_coefficients(norm.system)[s].is_zero()
    # the empty-word coefficient alone: (2) eps t^omega
    only_eps = _single_var_system(t, ("a", "c"), "(2) eps")
    d = OmegaDecomposition(t, ("a", "c"), (DecompositionTerm(t_sys, 0, only_eps, 0),))
    (_, s, e), = normalize_decomposition(d).terms
    assert s is None and e.value == 2


def test_normalize_keeps_clean_terms():
    b = BOOLEAN
    t_sys = _single_var_system(b, ("a",), "a")
    d = OmegaDecomposition(b, ("a",), (DecompositionTerm(t_sys, 0, t_sys, 0),))
    norm = normalize_decomposition(d)
    assert len(norm.terms) == 1 and norm.terms[0][2] is None
    assert norm.terms[0][1] is not None


def test_normalize_drops_unproductive_terms():
    b = BOOLEAN
    dead = _single_var_system(b, ("a",), "a v")
    live = _single_var_system(b, ("a",), "a")
    d = OmegaDecomposition(
        b, ("a",),
        (
            DecompositionTerm(dead, 0, live, 0),
            DecompositionTerm(live, 0, dead, 0),
        ),
    )
    norm = normalize_decomposition(d)
    assert len(norm.terms) == 0


def test_normalize_shares_the_proper_form_of_a_shared_system():
    # both terms read one system; the t-series e + t' of each becomes the
    # alias e* t', appended once per component to that one proper form
    t = TROPICAL
    sys = AlgebraicSystem(
        t, ("a", "b"), ("u", "v"), (poly(t, "(1) eps | a u"), poly(t, "(2) eps | b v | a u"))
    )
    d = OmegaDecomposition(
        t, ("a", "b"), (DecompositionTerm(sys, 0, sys, 1), DecompositionTerm(sys, 1, sys, 0))
    )
    norm = normalize_decomposition(d)
    shared = norm.system
    assert shared.variables == ("u", "v", "tsc", "tsc'")
    assert [(t, s) for t, s, _ in norm.terms] == [(2, 1), (3, 0)]
    assert [e.value for _, _, e in norm.terms] == [2, 1]
    assert not any(m.word == () for p in shared.rhs for m in p.monomials)


def test_normalize_puts_every_system_and_the_finite_part_into_one():
    # three systems, the finite part's among them, side by side under x0.,
    # x1. and x2.; every term and the finite part index the one result
    s_sys, t_sys = pair_example_systems()
    finite = AlgebraicSystem(TROPICAL, t_sys.terminals, ("f",), (poly(TROPICAL, "(1) a f b | eps"),))
    d = OmegaDecomposition(
        TROPICAL, t_sys.terminals,
        (DecompositionTerm(t_sys, 0, s_sys, 0), DecompositionTerm(s_sys, 1, t_sys, 0)),
        finite=(finite, 0),
    )
    norm = normalize_decomposition(d)
    x = norm.system
    assert x.variables[norm.finite] == "x2.f"
    assert [x.variables[t] for t, _, _ in norm.terms] == ["x0.x1", "x1.x2"]
    assert [x.variables[s] for _, s, _ in norm.terms] == ["x1.x1", "x0.x1"]
    # a single system keeps its names
    from staromega.fixtures import tropical_mixed_system

    one = normalize_decomposition(decompose_canonical(tropical_mixed_system(), 1, 1, 0))
    assert one.system.variables[one.finite] == "x1"


# -- pair construction -------------------------------------------------------------


def _shared(*systems):
    """The systems side by side as one x-part, system i's variables renamed
    v{i}.x, and the index of each system's first variable in it."""
    terminals = tuple(sorted(set().union(*(sys.terminals for sys in systems))))
    renamed = [sys.rename({v: f"v{i}.{v}" for v in sys.variables}) for i, sys in enumerate(systems)]
    firsts = list(itertools.accumulate((len(sys.variables) for sys in systems[:-1]), initial=0))
    x = AlgebraicSystem(
        systems[0].instance,
        terminals,
        tuple(v for sys in renamed for v in sys.variables),
        tuple(p for sys in renamed for p in sys.rhs),
    )
    return x, firsts


def test_pair_construction_example_values():
    s_sys, t_sys = pair_example_systems()
    x, (s, t) = _shared(s_sys, t_sys)
    mixed, sel = build_pair_system(x, t, s)
    assert is_gnf_mixed(mixed)
    assert sel == CanonicalSelector(1, 1)
    for n in (1, 2, 3):
        w = LassoWord(("a",) * n + ("b",) * n, ("d", "d", "c"))
        r = canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w)
        assert r.conclusive and r.value.value == n
    r = canonical_omega_lasso(
        mixed, 1, sel.component, LassoWord(("a", "b", "d", "d", "c"), ("d", "d", "c"))
    )
    assert r.conclusive and r.value.value == 1
    # the accepting loop must not admit the pure period of the tail system
    r = canonical_omega_lasso(mixed, 1, sel.component, LassoWord((), ("d", "d")))
    assert r.conclusive and r.value.value is INF


def test_pair_construction_scalar_case():
    t = TROPICAL
    t_sys = _single_var_system(t, ("a",), "a")
    mixed, sel = build_pair_system(t_sys, 0, eps_coeff=t.value(2))
    r = canonical_omega_lasso(mixed, sel.buchi_count, sel.component, LassoWord((), ("a",)))
    assert r.conclusive and r.value.value == 2


def test_pair_construction_with_s_and_t_one_component():
    b = BOOLEAN
    x = _single_var_system(b, ("a",), "a")
    mixed, sel = build_pair_system(x, 0, 0)
    r = canonical_omega_lasso(mixed, 1, sel.component, LassoWord(("a",), ("a",)))
    assert r.conclusive and r.value.value == 1


def test_pair_construction_writes_rows_only_for_what_t_and_s_reach():
    # t = x0 reaches x2 through its last variables, and x2 itself; x1 is
    # never last and x3 is not reached
    b = BOOLEAN
    x = AlgebraicSystem(
        b, ("a", "b"), ("x0", "x1", "x2", "x3"),
        (poly(b, "a | a x1 x2"), poly(b, "b"), poly(b, "a | a x1 x2"), poly(b, "b")),
    )
    mixed, sel = build_pair_system(x, 0, eps_coeff=b.one)
    assert mixed.z_vars == ("z.acc", "z.eps", "z.2")
    # and the x-part is x itself, not a copy
    assert mixed.x is x
    for w, want in ((LassoWord((), ("a",)), 1), (LassoWord((), ("a", "b", "a")), 1),
                    (LassoWord((), ("b",)), 0)):
        r = canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w)
        assert r.value.value == want, str(w)


def test_pair_construction_requires_gnf():
    b = BOOLEAN
    bad = _single_var_system(b, ("a",), "v a")
    with pytest.raises(IllFormedSystem):
        build_pair_system(bad, 0, 0)
    with pytest.raises(IllFormedSystem):
        build_pair_system(_single_var_system(b, ("a",), "a"), 0)


def test_mixed_gnf_test_runs_once_per_system():
    from staromega.fixtures import tropical_mixed_system

    s_sys, t_sys = pair_example_systems()
    x, (s, t) = _shared(s_sys, t_sys)
    mixed, _ = build_pair_system(x, t, s)
    assert mixed.is_gnf is mixed.is_gnf is True
    assert "is_gnf" in vars(mixed)
    assert is_gnf_mixed(mixed)
    not_gnf = tropical_mixed_system()
    assert not_gnf.is_gnf is not_gnf.is_gnf is False
    assert not is_gnf_mixed(not_gnf)


# -- summing ---------------------------------------------------------------------------


def test_sum_single_part_passthrough():
    s_sys, t_sys = pair_example_systems()
    x, (s, t) = _shared(s_sys, t_sys)
    part = build_pair_system(x, t, s)
    summed, sel = sum_systems(x, [part])
    assert is_gnf_mixed(summed)
    for n in (1, 2):
        w = LassoWord(("a",) * n + ("b",) * n, ("d", "d", "c"))
        direct = canonical_omega_lasso(part[0], 1, part[1].component, w)
        through = canonical_omega_lasso(summed, sel.buchi_count, sel.component, w)
        assert direct.conclusive and through.conclusive
        assert direct.value == through.value


def test_sum_two_boolean_parts_union():
    b = BOOLEAN
    x = AlgebraicSystem(b, ("a", "b"), ("va", "vb"), (poly(b, "a"), poly(b, "b")))
    summed, sel = sum_systems(x, [build_pair_system(x, 0, 0), build_pair_system(x, 1, 1)])
    assert sel.buchi_count == 2
    for letter, want in [("a", 1), ("b", 1)]:
        w = LassoWord((letter,), (letter,))
        r = canonical_omega_lasso(summed, sel.buchi_count, sel.component, w)
        assert r.conclusive and r.value.value == want
    r = canonical_omega_lasso(summed, sel.buchi_count, sel.component, LassoWord(("a",), ("b",)))
    assert r.conclusive and r.value.value == 0


def test_sum_two_tropical_parts_min():
    t = TROPICAL
    x = AlgebraicSystem(
        t, ("a", "c"), ("vc", "v3", "v5"), (poly(t, "c"), poly(t, "(3) a"), poly(t, "(5) a"))
    )
    summed, sel = sum_systems(x, [build_pair_system(x, 0, 1), build_pair_system(x, 0, 2)])
    r = canonical_omega_lasso(summed, sel.buchi_count, sel.component, LassoWord(("a",), ("c",)))
    assert r.conclusive and r.value.value == 3


def test_sum_empty():
    x = AlgebraicSystem(BOOLEAN, ("a",), (), ())
    summed, sel = sum_systems(x, [])
    assert sel.buchi_count == 0
    r = canonical_omega_lasso(summed, 0, sel.component, LassoWord((), ("a",)))
    assert r.conclusive and r.value.value == 0


def test_sum_systems_stores_part_entries_plus_collector_copies():
    s_sys, t_sys = pair_example_systems()
    x, (s, t) = _shared(s_sys, t_sys)
    parts = [build_pair_system(x, t, s), build_pair_system(x, t, eps_coeff=TROPICAL.value(2))]
    summed, sel = sum_systems(x, parts)

    def stored(sys):
        return sum(len(row) for row in sys.rho)

    copied = sum(len(part.rho[part_sel.component]) for part, part_sel in parts)
    assert copied > 0
    assert stored(summed) == sum(stored(part) for part, _ in parts) + copied
    assert len(summed.rho[sel.component]) == copied
    # the parts' x-part is the sum's, neither renamed nor copied
    assert summed.x is x
    with pytest.raises(IllFormedSystem):
        sum_systems(t_sys, parts)


def test_pipeline_normalizes_two_terms_and_the_finite_part_once(monkeypatch):
    from staromega import gnf

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return finite_gnf(*args, **kwargs)

    monkeypatch.setattr(gnf, "finite_gnf", counted)
    s_sys, t_sys = pair_example_systems()
    finite = AlgebraicSystem(TROPICAL, t_sys.terminals, ("f",), (poly(TROPICAL, "(1) a f b | eps"),))
    d = OmegaDecomposition(
        TROPICAL, t_sys.terminals,
        (DecompositionTerm(t_sys, 0, s_sys, 0), DecompositionTerm(s_sys, 0, t_sys, 0)),
        finite=(finite, 0),
    )
    _, mixed, sel, _, _, rep = pipeline_from_decomposition(d)
    # the three systems, prefixed, in one call
    assert len(calls) == 1
    assert calls[0][0].variables == ("x0.x1", "x0.x2", "x1.x1", "x1.x2", "x2.f")
    stages = {stage["stage"]: stage for stage in rep.stages}
    assert stages["pairs"]["count"] == 2
    assert stages["pairs"]["kept"] == stages["sum"]["x_vars"]
    w = LassoWord(("a", "b"), ("d", "d", "c"))
    assert canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w).value.value == 1


def test_pipeline_pairs_and_sums_hold_the_one_greibach_x_part(monkeypatch):
    # every pair, the sum and, where pruning drops no x-variable, the pruned
    # sum of one pipeline call hold the very same x-part object
    from staromega import gnf

    built = []

    def recorded(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            built.append((fn.__name__, out[0]))
            return out

        return call

    for fn in (gnf.build_pair_system, gnf.sum_systems, gnf._prune_sum):
        monkeypatch.setattr(gnf, fn.__name__, recorded(fn))
    kept = dropped = 0
    for case in range(40):
        inst = (BOOLEAN, TROPICAL, ARCTIC, COUNTING)[case % 4]
        rng = random.Random(f"one-x-part/{case}")
        sys = _random_mixed_system(rng, inst, rng.choice((2, 3)))
        dec = decompose_canonical(sys, rng.randint(0, sys.m), rng.randrange(sys.m), 0)
        built.clear()
        _, mixed, *_ = pipeline_from_decomposition(dec)
        *pairs, (sum_name, summed), (prune_name, pruned) = built
        assert (sum_name, prune_name) == ("sum_systems", "_prune_sum")
        assert {name for name, _ in pairs} <= {"build_pair_system"} and pruned is mixed
        assert all(part.x is summed.x for _, part in pairs)
        if pruned.x.variables == summed.x.variables:
            assert pruned.x is summed.x
            kept += 1
        else:
            dropped += 1
    assert kept >= 20 and dropped >= 10, (kept, dropped)


def _random_pair_series(rng, inst):
    """A nullable s of one or two variables and a productive t of one or
    two, over a and b, with weights 0, 1 and 2 (1 for Boolean); the empty
    word's weight in s is nonzero.  Half of the pairs are in Greibach form
    apart from that empty word, and keep their recursions through
    normalization."""
    weight = lambda *w: inst.one if inst is BOOLEAN else inst.value(rng.choice(w or (0, 1, 2)))
    greibach = rng.random() < 0.5

    def system(head, first):
        names = tuple(f"{head}{i}" for i in range(rng.randint(1, 2)))
        factors = [(), ("a",), ("b",), *((v,) for v in names)]
        rhs = []
        for i in range(len(names)):
            if greibach:
                words = [(rng.choice("ab"),) + rng.choice(factors[3:]) * rng.randint(0, 2)]
            else:
                words = [rng.choice(factors) + rng.choice(factors)]
            terms = [(weight(), words[0]), (weight(), rng.choice(factors[1:3]) + rng.choice(factors[3:]))]
            rhs.append(Polynomial.build(inst, terms + first * (i == 0)))
        return AlgebraicSystem(inst, ("a", "b"), names, tuple(rhs))

    s = system("s", [(weight(1, 2), ())])
    t = system("t", [(inst.one, (rng.choice("ab"),))])
    return s, t


def _reference_values(d, finite, lassos, words):
    """Lasso values of the summed system the reference pipeline builds, and
    the coefficients of its finite part, x-variable 0, on `words`."""
    mixed, sel = pair_reference.reference_pipeline(d, finite)
    lasso = [canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w).value for w in lassos]
    if finite is None:
        return lasso, None
    sol = least_solution_finite(mixed.x, 2)
    return lasso, [sol[0].coeff(w) for w in words]


def _shared_values(d, lassos, words):
    """The same of the shared pipeline's mixed output, whose finite part is
    the x-variable that the normalized decomposition's finite part names,
    and of its fold."""
    norm, mixed, sel, omega_sys, omega_sel, _ = pipeline_from_decomposition(d)
    folded = induce_mixed(omega_sys)
    routes = ((mixed, sel), (folded, omega_sel))
    lasso = [
        [canonical_omega_lasso(sys, s.buchi_count, s.component, w).value for w in lassos]
        for sys, s in routes
    ]
    if norm.finite is None:
        return lasso, None
    k = mixed.x.variables.index(norm.system.variables[norm.finite])
    finite_parts = []
    for sys, comp in ((mixed, k), (folded, omega_sel.component)):
        sol = least_solution_finite(sys.x, 2)
        finite_parts.append([sol[comp].coeff(w) for w in words])
    return lasso, finite_parts


def test_shared_normal_form_equals_the_one_per_summand_reference():
    # half the decompositions come from decompose_canonical, whose terms all
    # share one system, and half have their own systems per term, as the
    # benchmark builds them; each with a finite part
    lassos = [
        LassoWord((), ("a",)),
        LassoWord(("a",), ("b",)),
        LassoWord(("b",), ("a",)),
        LassoWord(("a", "b"), ("b",)),
        LassoWord(("b", "a"), ("a", "b")),
    ]
    words = [w for n in (1, 2) for w in itertools.product("ab", repeat=n)]
    values = []
    for case in range(1000):
        inst = (BOOLEAN, TROPICAL, ARCTIC, COUNTING)[case % 4]
        rng = random.Random(f"shared-normal-form/{case}")
        if case % 2 == 0:
            sys = _random_mixed_system(rng, inst, rng.choice((2, 3)))
            d = decompose_canonical(sys, rng.randint(0, sys.m), rng.randrange(sys.m), 0)
            finite = (sys.x, 0)
        else:
            terms = []
            for _ in range(rng.randint(1, 2)):
                s, t = _random_pair_series(rng, inst)
                terms.append(DecompositionTerm(t, 0, s, 0))
            finite = (terms[0].s_sys, 0)
            d = OmegaDecomposition(inst, ("a", "b"), tuple(terms), finite=finite)
        want_lasso, want_words = _reference_values(d, finite, lassos, words)
        got_lasso, got_words = _shared_values(d, lassos, words)
        assert got_lasso == [want_lasso] * 2, case
        assert got_words == [want_words] * 2, case
        values += want_lasso + want_words
    nonzero = sum(1 for v in values if not v.is_zero())
    assert nonzero >= 0.3 * len(values), (nonzero, len(values))


# -- folding into one omega system ------------------------------------------------------


def contrast_system():
    b = BOOLEAN
    x = AlgebraicSystem(
        b, ("a", "c"), ("x1", "x2"), (poly(b, "a | c x1"), poly(b, "a x1 x2 | a x1"))
    )
    return MixedSystem(
        x,
        ("z1", "z2"),
        ({0: poly(b, "c")}, {0: poly(b, "a"), 1: poly(b, "a x1")}),
    )


def test_unmix_structure_on_contrast_example():
    b = BOOLEAN
    small = MixedSystem(
        AlgebraicSystem(b, ("a", "c"), ("x1",), (poly(b, "a | c x1"),)),
        ("z1", "z2"),
        ({0: poly(b, "c")}, {0: poly(b, "a"), 1: poly(b, "a x1")}),
    )
    out, sel = unmix(small, 0, 1, 1)
    assert is_gnf_omega(out)
    assert out.variables == ("h.z1", "h.z2", "b.x1", "ydot")
    assert out.rhs[0] == poly(b, "c h.z1")
    assert out.rhs[1] == poly(b, "a h.z1 | a b.x1 h.z2")
    assert out.rhs[2] == poly(b, "a | c b.x1")
    assert out.rhs[3] == poly(b, "a | c b.x1 | a h.z1 | a b.x1 h.z2")
    assert sel == CanonicalSelector(1, 3)


def test_unmix_preserves_both_parts():
    sys = contrast_system()
    out, sel = unmix(sys, 1, 1, 1)
    mixed = induce_mixed(out)
    # finite part of the last component equals the x2-component
    sol_in = least_solution_finite(sys.x, 6)
    sol_out = least_solution_finite(mixed.x, 6)
    for length in range(0, 7):
        for w in itertools.product(sys.x.terminals, repeat=length):
            assert sol_in[1].coeff(w) == sol_out[sel.component].coeff(w)
    # omega part of the last component follows the second z-component
    for (u, v) in [((), ("c",)), (("a",), ("c",)), (("a", "c", "a", "a"), ("c",)),
                   ((), ("a", "a")), (("a", "c", "a"), ("a", "c", "a"))]:
        w = LassoWord(u, v)
        want = canonical_omega_lasso(sys, 1, 1, w)
        got = canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w)
        assert want.conclusive and got.conclusive and want.value == got.value, str(w)


def test_unmix_writes_only_what_a_rule_reads():
    # no row reads z1 and no rule x1, and ydot copies both of their rows, so
    # neither is written; the Buchi count drops with z1 where it counted it
    b = BOOLEAN
    x = AlgebraicSystem(b, ("a", "b"), ("x1",), (poly(b, "b"),))
    sys = MixedSystem(x, ("z1", "z2"), ({1: poly(b, "a")}, {1: poly(b, "a")}))
    for t, want in ((1, 0), (2, 1)):
        out, sel = unmix(sys, 0, 0, t)
        assert out.variables == ("h.z2", "ydot")
        assert out.rhs[1] == poly(b, "b | a h.z2")
        assert sel == CanonicalSelector(t - 1, 1)
        w = LassoWord((), ("a",))
        assert canonical_omega_lasso(sys, t, 0, w).value.value == want
        got = canonical_omega_lasso(induce_mixed(out), sel.buchi_count, sel.component, w)
        assert got.value.value == want


def test_unmix_needs_gnf():
    b = BOOLEAN
    x = AlgebraicSystem(b, ("a",), ("x1",), (poly(b, "x1 a"),))
    bad = MixedSystem(x, ("z1",), ({0: poly(b, "a")},))
    with pytest.raises(IllFormedSystem):
        unmix(bad, 0, 0, 1)


# -- direct characteristic system --------------------------------------------------------


def test_char_to_mixed_single_letter():
    b = BOOLEAN
    sys_a = _single_var_system(b, ("a",), "a")
    d = normalize_decomposition(
        OmegaDecomposition(b, ("a",), (DecompositionTerm(sys_a, 0, sys_a, 0),))
    )
    mixed, sel = char_to_mixed(d)
    assert sel == CanonicalSelector(1, 1)
    r = canonical_omega_lasso(mixed, 1, 1, LassoWord(("a",), ("a",)))
    assert r.conclusive and r.value.value == 1


def test_char_to_mixed_empty():
    b = BOOLEAN
    d = NormalizedDecomposition(AlgebraicSystem(b, ("a",), (), ()), (), None)
    mixed, sel = char_to_mixed(d)
    assert sel.buchi_count == 0
    r = canonical_omega_lasso(mixed, 0, sel.component, LassoWord((), ("a",)))
    assert r.conclusive and r.value.value == 0


def test_char_to_mixed_weighted_pair():
    t = TROPICAL
    s_sys = AlgebraicSystem(
        t, ("a", "b", "c"), ("s1",), (poly(t, "(1) a s1 b | (1) a b"),)
    )
    t_sys = _single_var_system(t, ("a", "b", "c"), "c")
    d = normalize_decomposition(
        OmegaDecomposition(t, ("a", "b", "c"), (DecompositionTerm(t_sys, 0, s_sys, 0),))
    )
    mixed, sel = char_to_mixed(d)
    r = canonical_omega_lasso(
        mixed, sel.buchi_count, sel.component, LassoWord(("a", "a", "b", "b"), ("c",))
    )
    assert r.conclusive and r.value.value == 2


def test_char_to_mixed_keeps_its_names_off_the_terminals():
    # every fixed name, the alias c0.s and the z-variables z0 and zout, is
    # also a terminal here
    t = TROPICAL
    letters = ("a", "zout", "z0", "c0.s")
    sys = AlgebraicSystem(
        t, letters, ("u", "v"),
        (
            Polynomial.build(t, [(t.one, ("a",))]),
            Polynomial.build(t, [(t.value(1), ()), (t.value(2), ("zout",)), (t.value(3), ("c0.s",))]),
        ),
    )
    d = normalize_decomposition(
        OmegaDecomposition(t, letters, (DecompositionTerm(sys, 0, sys, 1),))
    )
    mixed, sel = char_to_mixed(d)
    assert mixed.z_vars == ("z0'", "zout'") and mixed.x.variables == ("u", "v", "c0.s'")
    for prefix, want in (((), 1), (("zout",), 2), (("c0.s",), 3), (("z0",), INF)):
        r = canonical_omega_lasso(
            mixed, sel.buchi_count, sel.component, LassoWord(prefix, ("a",))
        )
        assert r.value.value == want, prefix


def test_char_to_mixed_names_are_unchanged_without_a_clash():
    # the one system of the decomposition is written once, under its own
    # names, however many terms read it
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a",), ("u", "v"), (poly(b, "a"), poly(b, "eps | a v")))
    d = normalize_decomposition(
        OmegaDecomposition(b, ("a",), (DecompositionTerm(sys, 0, sys, 0), DecompositionTerm(sys, 0, sys, 1)))
    )
    mixed, _ = char_to_mixed(d)
    assert mixed.x.variables == ("u", "v", "c1.s")
    assert mixed.z_vars == ("z0", "z1", "zout")


# -- symbolic decomposition ----------------------------------------------------------------


def test_decompose_canonical_round_trip():
    from staromega.fixtures import tropical_mixed_system

    sys = tropical_mixed_system()
    dec = decompose_canonical(sys, 1, 1)
    norm = normalize_decomposition(dec)
    mixed, sel = char_to_mixed(norm)
    for n in range(0, 4):
        w = LassoWord(("a",) * n + ("b",) * n, ("c",))
        want = canonical_omega_lasso(sys, 1, 1, w)
        got = canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w)
        assert want.conclusive and got.conclusive
        assert want.value == got.value


def test_handle_row_kernel_matches_the_generic_comprehension():
    from staromega.fixtures import tropical_mixed_system
    from staromega.gnf import _HandleAlgebra

    sys = tropical_mixed_system()
    alg = _HandleAlgebra(sys.x)
    leaves = [alg.of_poly(p) for row in sys.rho for p in row.values()]
    cells = [alg.zero, alg.one_raw(), alg.star_raw(leaves[0])] + leaves
    cells.append(alg.add_raw(leaves[0], alg.mul_raw(leaves[-1], cells[2])))
    y, z = cells, cells[::-1]

    def emitted(h):
        return alg.emit([h]) if h.productive else None

    for left in cells:
        if left is alg.zero:
            continue
        got = alg.axpy_raw(list(y), left, z)
        want = [alg.add_raw(a, alg.mul_raw(left, b)) for a, b in zip(y, z)]
        assert [emitted(h) for h in got] == [emitted(h) for h in want]
        # cells the row leaves alone are the very same nodes
        assert [g is a for g, a in zip(got, y)] == [w is a for w, a in zip(want, y)]


def test_decompose_canonical_three_block_recursion():
    b = BOOLEAN
    sys = MixedSystem(
        AlgebraicSystem(b, ("a", "b", "c"), ("x1",), (poly(b, "a | b x1"),)),
        ("z1", "z2", "z3"),
        (
            {1: poly(b, "a")},
            {0: poly(b, "a"), 2: poly(b, "b")},
            {0: poly(b, "c"), 1: poly(b, "b x1")},
        ),
    )
    lassos = [
        LassoWord((), ("a", "b", "c")),
        LassoWord(("a",), ("b", "a", "a")),
        LassoWord((), ("a", "b", "b", "a", "c")),
        LassoWord(("a", "b"), ("c", "a", "b")),
        LassoWord((), ("a",)),
    ]
    for k in (1, 2):
        for comp in (0, 1, 2):
            norm = normalize_decomposition(decompose_canonical(sys, k, comp))
            cm, sel = char_to_mixed(norm)
            for w in lassos:
                want = canonical_omega_lasso(sys, k, comp, w)
                got = canonical_omega_lasso(cm, sel.buchi_count, sel.component, w)
                assert want.conclusive and got.conclusive
                assert want.value == got.value, (k, comp, str(w))


def test_pipeline_end_to_end_values():
    from staromega.fixtures import tropical_mixed_system

    sys = tropical_mixed_system()
    dec = decompose_canonical(sys, 1, 1, 0)
    norm, mixed, sel, omega_sys, omega_sel, report = pipeline_from_decomposition(dec)
    assert is_gnf_mixed(mixed)
    assert is_gnf_omega(omega_sys)
    stage_names = [s["stage"] for s in report.stages]
    assert stage_names == ["normalize", "pairs", "sum", "prune", "unmix"]
    ind = induce_mixed(omega_sys)
    for n in range(0, 3):
        w = LassoWord(("a",) * n + ("b",) * n, ("c",))
        want = canonical_omega_lasso(sys, 1, 1, w)
        mid = canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w)
        end = canonical_omega_lasso(ind, omega_sel.buchi_count, omega_sel.component, w)
        assert want.conclusive and mid.conclusive and end.conclusive
        assert want.value == mid.value == end.value
    # the fold's finite part is the source's x1 off the empty word, and it is
    # x-variable 0 of the summed system
    sol_src = least_solution_finite(sys.x, 5)
    sol_mid = least_solution_finite(mixed.x, 5)
    sol_out = least_solution_finite(ind.x, 5)
    for length in range(1, 6):
        for w in itertools.product(sys.x.terminals, repeat=length):
            got = sol_out[omega_sel.component].coeff(w)
            assert got == sol_mid[0].coeff(w) == sol_src[0].coeff(w), w
    assert sol_out[omega_sel.component].coeff(()) == TROPICAL.zero


def test_prune_sum_keeps_what_the_selected_component_reaches():
    # z-variables a0 a1 (accepting at count 2), t and the selected c; a1 and
    # x1 are reached from neither c nor x0, x2 only through t's row
    t = TROPICAL
    w = lambda c, word: [(t.value(c), word)]
    x_rhs = (poly(t, "a"), poly(t, "(3) b x1"), poly(t, "(1) a"))
    rho = (
        sparse_row(t, {0: w(0, ("a",))}),
        sparse_row(t, {1: w(0, ("b",))}),
        sparse_row(t, {0: w(2, ("a", "x2"))}),
        sparse_row(t, {2: w(1, ("b",)), 0: w(5, ("a",))}),
    )
    x = AlgebraicSystem(t, ("a", "b"), ("x0", "x1", "x2"), x_rhs)
    sys = MixedSystem(x, ("a0", "a1", "t", "c"), rho)
    pruned, sel = _prune_sum(sys, CanonicalSelector(2, 3), "x0")
    assert pruned.x.variables == ("x0", "x2") and pruned.z_vars == ("a0", "t", "c")
    # one accepting z-variable is left, still first
    assert (sel.buchi_count, sel.component) == (1, 2)
    for lasso in (LassoWord((), ("a",)), LassoWord(("b",), ("a",)), LassoWord(("b", "a"), ("a",))):
        want = canonical_omega_lasso(sys, 2, 3, lasso).value
        assert canonical_omega_lasso(pruned, 1, 2, lasso).value == want
    assert _prune_sum(pruned, sel, "x0") == (pruned, sel)


def test_pipeline_on_empty_decomposition_folds_to_zero():
    d = OmegaDecomposition(BOOLEAN, ("a",), ())
    norm, mixed, sel, omega_sys, omega_sel, _ = pipeline_from_decomposition(d)
    assert norm.terms == () and mixed.x.variables == ()
    assert is_gnf_omega(omega_sys)
    assert omega_sys.variables[omega_sel.component] == "ydot"
    assert omega_sys.rhs[omega_sel.component].is_zero()


def test_four_routes_agree_on_zero_for_an_empty_decomposition():
    lassos = [LassoWord((), ("a",)), LassoWord(("b",), ("a", "b"))]
    for inst in (BOOLEAN, TROPICAL, ARCTIC):
        # v = a v generates nothing, so normalization drops the only term
        dead = _single_var_system(inst, ("a", "b"), "a v")
        d = OmegaDecomposition(inst, ("a", "b"), (DecompositionTerm(dead, 0, dead, 0),))
        norm, mixed, sel, omega_sys, omega_sel, _ = pipeline_from_decomposition(d)
        assert norm.terms == ()
        direct, direct_sel = char_to_mixed(norm)
        folded = induce_mixed(omega_sys)
        auto = induced_omega_pda(folded, omega_sel.component, omega_sel.buchi_count)
        for w in lassos:
            results = [
                canonical_omega_lasso(direct, direct_sel.buchi_count, direct_sel.component, w),
                canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w),
                canonical_omega_lasso(
                    folded, omega_sel.buchi_count, omega_sel.component, w
                ),
                behavior_omega_lasso(auto, w),
            ]
            for r in results:
                assert r.conclusive and r.value == inst.zero, (inst.name, str(w))


def _random_mixed_system(rng, inst, m):
    """One x-variable with an empty-word or chain monomial; m z-variables
    whose stored entries are a weighted letter or x-variable."""
    weight = lambda: inst.one if inst is BOOLEAN else inst.value(rng.choice((0, 1, 2)))
    factors = [(), ("a",), ("b",), ("x0",)]
    x_rhs = Polynomial.build(
        inst,
        [(weight(), rng.choice(factors) + rng.choice(factors)), (inst.one, rng.choice(factors[:3]))],
    )
    rho = tuple(
        sparse_row(inst, {j: [(weight(), rng.choice(factors[1:]))] for j in range(m) if rng.random() < 0.5})
        for _ in range(m)
    )
    x = AlgebraicSystem(inst, ("a", "b"), ("x0",), (x_rhs,))
    return MixedSystem(x, ("z0", "z1", "z2")[:m], rho)


def test_five_routes_agree_on_random_mixed_systems():
    # the direct system, the characteristic system of its decomposition, the
    # summed pair systems, the folded omega system and its automaton, for
    # every Buchi count and component.  One system in twenty has m = 3: their
    # normal forms reach 1,400 variables, and the automaton construction is
    # linear in them.
    lassos = [LassoWord((), ("a",)), LassoWord(("b",), ("a", "b")), LassoWord(("a",), ("b",))]
    decided = 0
    seen = {inst.name: set() for inst in (BOOLEAN, TROPICAL, ARCTIC, COUNTING)}
    for case in range(200):
        inst = (BOOLEAN, TROPICAL, ARCTIC, COUNTING)[case % 4]
        m = 3 if case % 20 == 19 else 2
        sys = _random_mixed_system(random.Random(f"five-routes/{case}"), inst, m)
        for k in range(sys.m + 1):
            for comp in range(sys.m):
                want = [canonical_omega_lasso(sys, k, comp, w).value for w in lassos]
                norm = normalize_decomposition(decompose_canonical(sys, k, comp))
                _, mixed, sel, omega_sys, omega_sel, _ = pipeline_from_decomposition(norm)
                direct, direct_sel = char_to_mixed(norm)
                folded = induce_mixed(omega_sys)
                auto = induced_omega_pda(folded, omega_sel.component, omega_sel.buchi_count)
                for w, value in zip(lassos, want):
                    got = [
                        canonical_omega_lasso(direct, direct_sel.buchi_count, direct_sel.component, w),
                        canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w),
                        canonical_omega_lasso(folded, omega_sel.buchi_count, omega_sel.component, w),
                        behavior_omega_lasso(auto, w),
                    ]
                    assert [r.value for r in got] == [value] * 4, (case, k, comp, str(w))
                    seen[inst.name].add(value.value)
                decided += 1
    # every (Buchi count, component) of the 200 systems, 6 of them arctic
    # ones whose empty-word part has a cycle that gains weight
    assert decided == 1260, decided
    assert all(len(values) >= 2 for values in seen.values()), seen


def _unreached(text):
    """The z-variables of a mixed grammar that its start does not reach, and
    its x-variables that neither the selected x-variable nor the reached
    z-rows reach."""
    g = parse_grammar(text)
    sys = g.system
    start = sys.z_vars.index(g.start)
    x_ix = {v: i for i, v in enumerate(sys.x.variables)}
    x = _selection(g)[1]
    z_seen, stack, x_stack = {start}, [start], [] if x is None else [sys.x.variables[x]]
    while stack:
        for j, p in sys.rho[stack.pop()].items():
            if j not in z_seen:
                z_seen.add(j)
                stack.append(j)
            x_stack += [s for m in p.monomials for s in m.word if s in x_ix]
    x_seen = set()
    while x_stack:
        v = x_stack.pop()
        if v not in x_seen:
            x_seen.add(v)
            x_stack += [s for m in sys.x.rhs[x_ix[v]].monomials for s in m.word if s in x_ix]
    return (
        [z for j, z in enumerate(sys.z_vars) if j not in z_seen],
        [x for x in sys.x.variables if x not in x_seen],
    )


def test_mixed_normal_form_holds_only_what_its_start_reaches(tmp_path, capsys):
    # the pairs are built from what their designated components reach and
    # the sum is pruned to what the collector reaches; the selected
    # x-variable is the source's finite part, which the fold copies.  An input already in
    # Greibach form comes back as it is, so none is drawn.
    cases = [("m5", (Path(__file__).with_name("data") / "m5_buchi3.grm").read_text())]
    draw = 0
    while len(cases) <= 50:
        inst = (BOOLEAN, TROPICAL, ARCTIC, COUNTING)[len(cases) % 4]
        rng = random.Random(f"reachable/{draw}")
        draw += 1
        m = rng.choice((2, 3))
        sys = _random_mixed_system(rng, inst, m)
        if is_gnf_mixed(sys):
            continue
        # the finite part is the one x-variable, x0
        g = GrammarFile(inst, sys.x.terminals, "mixed", sys, sys.z_vars[-1], rng.randint(1, m), "x0")
        cases.append((draw, format_grammar(g)))
    path = tmp_path / "g.grm"
    compiled = 0
    for case, text in cases:
        path.write_text(text)
        if main(["gnf", str(path), "--target", "mixed"]) != EXIT_OK:
            continue
        out = capsys.readouterr().out
        assert _unreached(out) == ([], []), case
        compiled += 1
    assert compiled >= 45, compiled


# -- normal form output against recorded text ----------------------------------------------

DATA = Path(__file__).resolve().parents[1] / "src" / "staromega" / "data"
GOLDEN_GNF = json.loads(Path(__file__).with_name("gnf_golden.json").read_text())
# arctic_blocks.grm has no z-variable, so it has no omega component to fold;
# tests/test_cli.py checks that this is reported as an error
NO_OMEGA_COMPONENT = {"arctic_blocks.grm --target omega"}
GNF_CASES = [
    f"{path.name} --target {target}"
    for path in sorted(DATA.glob("*.grm"))
    for target in ("mixed", "omega")
    if f"{path.name} --target {target}" not in NO_OMEGA_COMPONENT
]


@pytest.mark.parametrize("case", GNF_CASES)
def test_gnf_output_matches_golden_text(case, capsys):
    name, _, target = case.split()
    assert main(["gnf", str(DATA / name), "--target", target]) == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_GNF[case]
    if target == "omega":
        # every variable but the start is read by some rule
        g = parse_grammar(GOLDEN_GNF[case])
        read = {s for p in g.system.rhs for m in p.monomials for s in m.word}
        assert set(g.system.variables) - read == {g.start}


# Seeded random mixed systems (m = 3 and 4 z-variables, every instance), with the
# exit code and the sha256 of `gnf --target omega --buchi k` stdout for every
# Buchi count k = 0..m.  The digests that the Lehmann sweep moved, those that
# building pairs only from what their designated components reach moved,
# those that sharing one normal form among the summands moved, and the one
# that carrying the finite part in the decomposition moved
# (counting-m4-seed3 at k = 4), were recorded again once their texts' values
# equalled those of REFERENCE_RANDOM below.  arctic-m3-seed2 at k = 2 and 3, where
# REFERENCE_RANDOM holds no text, was recorded once its values equalled the
# source grammar's and its automaton's.
GOLDEN_RANDOM = json.loads(Path(__file__).with_name("gnf_golden_random.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_RANDOM, ids=[c["name"] for c in GOLDEN_RANDOM])
def test_gnf_output_matches_golden_digests_on_random_systems(case, tmp_path, capsys):
    path = tmp_path / "g.grm"
    path.write_text(case["grammar"])
    for k, (want_exit, want_sha) in enumerate(zip(case["exit"], case["sha256"])):
        rc = main(["gnf", str(path), "--target", "omega", "--buchi", str(k)])
        out = capsys.readouterr().out
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (want_exit, want_sha), k


# The texts behind GOLDEN_RANDOM's digests as the handle block recursion wrote
# them (None where the exit code is not 0), kept as value references for the
# normal form written by the Lehmann sweep.
REFERENCE_RANDOM = json.loads(
    Path(__file__).with_name("gnf_reference_random.json").read_text()
)


def _lasso_set(alphabet):
    """Prefixes of up to two letters times periods of one or two letters."""
    words = lambda n: list(itertools.product(alphabet, repeat=n))
    prefixes = words(0) + words(1) + words(2)
    return [LassoWord(u, v) for u in prefixes for v in words(1) + words(2)]


def _grammar_values(text, lassos, k=None):
    """canonical_omega_lasso of a grammar's omega component (at Buchi count k,
    the file's own by default) on every lasso."""
    mixed, _, comp, k = _selection(parse_grammar(text), buchi=k)
    return [canonical_omega_lasso(mixed, k, comp, w).value for w in lassos]


def _automaton_values(text, lassos):
    """behavior_omega_lasso of the automaton `build-pda` makes of a grammar."""
    mixed, _, start, k = _selection(parse_grammar(text))
    auto = induced_omega_pda(mixed, start, k)
    return [behavior_omega_lasso(auto, w).value for w in lassos]


# A grammar of the perfbench normal-form corpus whose mixed normal form has as
# many x- as z-variables.  Its finite part is its second x-variable, which
# earlier versions read from the index of the start rather than from a
# directive.
PAIRED_SOURCE = """\
@semiring tropical
@alphabet a b
@sort x xfao xfzo
@sort z zbwy zfff
@start zfff
@buchi 2
@finite xfzo
xfao = (1) eps | a xfzo
xfzo = (2) b
zbwy = (2) b zfff | xfzo zfff
zfff = (1) xfzo zbwy
"""


def _value_cases():
    """(id, grammar text, extra gnf arguments, Buchi count, reference text) for
    every golden case with an omega component, and for PAIRED_SOURCE.  The
    reference text is None where the handle block recursion wrote none:
    that output is compared with the source grammar and its automaton only."""
    for case in GNF_CASES:
        name, _, target = case.split()
        text = (DATA / name).read_text()
        if "@sort z" in text or "@sort y" in text:
            yield case, text, ["--target", target], None, GOLDEN_GNF[case]
    for case in GOLDEN_RANDOM:
        for k, ref in enumerate(REFERENCE_RANDOM[case["name"]]):
            args = ["--target", "omega", "--buchi", str(k)]
            yield f"{case['name']}-k{k}", case["grammar"], args, k, ref
    for target in ("mixed", "omega"):
        yield f"paired-{target}", PAIRED_SOURCE, ["--target", target], None, None


VALUE_CASES = list(_value_cases())


def _word_values(path, alphabet, capsys):
    """`eval --word` of a grammar file on every nonempty word of at most two
    letters: its finite part."""
    values = []
    for n in (1, 2):
        for w in itertools.product(alphabet, repeat=n):
            assert main(["eval", str(path), "--word", "".join(w)]) == EXIT_OK
            values.append(capsys.readouterr().out)
    return values


@pytest.mark.parametrize("case", VALUE_CASES, ids=[c[0] for c in VALUE_CASES])
def test_normal_form_values_equal_the_reference_text_and_the_source(case, tmp_path, capsys):
    _, text, args, k, ref = case
    path, nf = tmp_path / "g.grm", tmp_path / "nf.grm"
    path.write_text(text)
    assert main(["gnf", str(path), *args, "--out", str(nf)]) == EXIT_OK
    out = nf.read_text()
    alphabet = parse_grammar(text).terminals
    lassos = _lasso_set(alphabet)
    want = _grammar_values(text, lassos, k)
    if ref is not None:
        assert _grammar_values(ref, lassos) == want
    assert _grammar_values(out, lassos) == want
    if "omega" in args:
        # a mixed-target text has more x- than z-variables: no automaton
        assert _automaton_values(out, lassos) == want
    # the finite parts agree off the empty word; the reference texts carry
    # the finite part of an earlier construction, so they are left out here
    assert _word_values(nf, alphabet, capsys) == _word_values(path, alphabet, capsys)


# -- fast paths against references that always rebuild ---------------------------------


def algebraic_systems(max_vars=4):
    """Small systems over any instance: empty words, chain rules, unproductive
    and unreachable variables, and often no empty-word monomial at all."""

    def over(inst, n):
        xs = tuple(f"x{i}" for i in range(n))
        value = st.sampled_from(inst.grid()).map(inst.value)
        word = st.lists(st.sampled_from(("a", "b") + xs), max_size=3).map(tuple)
        poly_ = st.lists(st.tuples(value, word), max_size=3).map(
            lambda terms: Polynomial.build(inst, terms)
        )
        rhs = st.lists(poly_, min_size=n, max_size=n).map(tuple)
        return rhs.map(lambda r: AlgebraicSystem(inst, ("a", "b"), xs, r))

    return st.tuples(
        st.sampled_from([BOOLEAN, TROPICAL, ARCTIC, COUNTING]), st.integers(1, max_vars)
    ).flatmap(lambda t: over(*t))


def _proper_form_reference(sys):
    inst = sys.instance
    eps = eps_coefficients(sys)
    mapping = {
        v: Polynomial.build(inst, [(e, ()), (inst.one, (v,))])
        for v, e in zip(sys.variables, eps)
        if not e.is_zero()
    }
    rhs = tuple(
        Polynomial.build(inst, [(m.coeff, m.word) for m in gnf_stage_reference.substitute_symbols(p, mapping).monomials if m.word])
        for p in sys.rhs
    )
    return AlgebraicSystem(inst, sys.terminals, sys.variables, rhs), eps


def _prune_unreachable_reference(sys, keep):
    reach, stack = set(keep), list(keep)
    while stack:
        for m in sys.rhs[sys.variables.index(stack.pop())].monomials:
            for s in m.word:
                if s in sys.variables and s not in reach:
                    reach.add(s)
                    stack.append(s)
    vs = tuple(v for v in sys.variables if v in reach)
    rhs = tuple(sys.rhs[sys.variables.index(v)] for v in vs)
    return AlgebraicSystem(sys.instance, sys.terminals, vs, rhs)


def _drop_unproductive_reference(sys, keep):
    productive = productive_components(sys)
    rhs = tuple(
        Polynomial.build(
            sys.instance,
            [(m.coeff, m.word) for m in p.monomials
             if all(s not in sys.variables or s in productive for s in m.word)],
        )
        for p in sys.rhs
    )
    trimmed = AlgebraicSystem(sys.instance, sys.terminals, sys.variables, rhs)
    return _prune_unreachable_reference(trimmed, keep)


@given(algebraic_systems())
@settings(max_examples=200, deadline=None)
def test_proper_form_equals_the_rebuilding_reference(sys):
    assert proper_form(sys) == _proper_form_reference(sys)


def _rows(sys):
    """The rule rows of sys that finite_gnf's stages pass on."""
    return [[(m.coeff.value, m.word) for m in p.monomials] for p in sys.rhs]


def _system(sys, variables, rows):
    """The system of rule rows over sys's instance and terminals."""
    inst = sys.instance
    rhs = tuple(Polynomial.build_raw(inst, row) for row in rows)
    return AlgebraicSystem(inst, sys.terminals, tuple(variables), rhs)


@given(algebraic_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_drop_unproductive_and_prune_equal_the_rebuilding_references(sys, data):
    keep = data.draw(st.lists(st.sampled_from(sys.variables), min_size=1, unique=True))
    assert _prune_unreachable(sys, keep) == _prune_unreachable_reference(sys, keep)
    got = _drop_unproductive(sys.variables, _rows(sys), keep)
    assert _system(sys, *got) == _drop_unproductive_reference(sys, keep)


def _leading_terminal_form_reference(sys):
    """The matrix-equation step writing every x-equation and every live
    entry of Y, as it did before x-equations and columns were built on demand."""
    inst = sys.instance
    n = len(sys.variables)
    ix = {v: i for i, v in enumerate(sys.variables)}
    b = [[] for _ in range(n)]
    amat = [{} for _ in range(n)]
    for p_ix, p in enumerate(sys.rhs):
        for mono in p.monomials:
            w = mono.word
            if len(w) == 1:
                b[p_ix].append((mono.coeff, w))
            else:
                amat[ix[w[0]]].setdefault(p_ix, []).append((mono.coeff, w[1]))
    live = []
    for row in amat:
        seen, stack = set(row), list(row)
        while stack:
            for p in amat[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        live.append(seen)
    taken = set(sys.variables) | set(sys.terminals)
    yname, work = {}, []

    def y(q, p):
        if (q, p) not in yname:
            name = f"r{q}_{p}"
            while name in taken:
                name += "'"
            taken.add(name)
            yname[(q, p)] = name
            work.append((q, p))
        return yname[(q, p)]

    x_rhs = [list(terms) for terms in b]
    for q in range(n):
        for p in sorted(live[q]) if b[q] else ():
            x_rhs[p] += [(c, w + (y(q, p),)) for c, w in b[q]]
    y_rhs = {}
    while work:
        q, p = work.pop()
        terms = [(c * xc, xw) for c, tail in amat[q].get(p, ()) for xc, xw in x_rhs[ix[tail]]]
        for r, entry in amat[q].items():
            if p in live[r]:
                yn = y(r, p)
                terms += [(c * xc, xw + (yn,)) for c, tail in entry for xc, xw in x_rhs[ix[tail]]]
        y_rhs[(q, p)] = terms
    keys = sorted(yname)
    rhs = [Polynomial.build(inst, t) for t in x_rhs] + [Polynomial.build(inst, y_rhs[k]) for k in keys]
    return AlgebraicSystem(
        inst, sys.terminals, sys.variables + tuple(yname[k] for k in keys), tuple(rhs)
    )


@given(algebraic_systems(max_vars=5), st.data())
@settings(max_examples=200, deadline=None)
def test_leading_terminal_form_equals_the_all_columns_reference(sys, data):
    inst, ts = sys.instance, sys.terminals
    proper, _ = proper_form(sys)
    variables, rows = _drop_unproductive(proper.variables, _rows(proper), list(sys.variables))
    rows = _unit_elimination(inst, variables, rows)
    binary = _system(sys, *_binarize(inst, ts, variables, rows))
    ref = _leading_terminal_form_reference(binary)
    # by default every x-equation is written, as the reference writes it
    full = _leading_terminal_form(inst, ts, binary.variables, _rows(binary))
    assert _system(sys, *full) == ref
    keep = data.draw(st.lists(st.sampled_from(sys.variables), min_size=1, unique=True))
    got = _system(sys, *_leading_terminal_form(inst, ts, binary.variables, _rows(binary), keep))
    assert set(keep) <= set(got.variables) <= set(ref.variables)
    assert _prune_unreachable(got, keep) == _prune_unreachable(ref, keep)


@given(algebraic_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_finite_gnf_of_kept_variables_has_the_full_normal_forms_series(sys, data):
    full = finite_gnf(sys)
    keep = data.draw(st.lists(st.sampled_from(sys.variables), min_size=1, unique=True))
    part = finite_gnf(sys, keep=keep)
    assert set(part.component_of) == set(keep)
    assert len(part.system.variables) <= len(full.system.variables)
    # what keep reaches has the empty-word coefficients of the whole system
    pruned = _prune_unreachable(sys, keep)
    part_eps = dict(zip(pruned.variables, eps_coefficients(pruned)))
    full_eps = dict(zip(sys.variables, eps_coefficients(sys)))
    for v in keep:
        assert part_eps[v] == full_eps[v]
        series_equal_up_to(
            full.system, full.component_of[v], part.system, part.component_of[v], 4
        )


def _seeded_system(rng, inst, greibach):
    """1-3 variables over a and b with grid coefficients: Greibach-shaped
    words (a letter, then up to two variables) or any words of up to three
    symbols, with chain rules drawn often enough that two chains meet;
    either kind may hold an empty word."""
    n = rng.randint(1, 3)
    xs = tuple(f"x{i}" for i in range(n))
    values = [v for v in inst.grid() if v != inst.zero_raw()]
    rhs = []
    for _ in xs:
        terms = []
        for _ in range(rng.randint(1, 4)):
            if greibach:
                word = rng.choice("ab"), *rng.choices(xs, k=rng.randint(0, 2))
                if rng.random() < 0.1:
                    word = ()
            elif rng.random() < 0.3:
                word = (rng.choice(xs),)
            else:
                word = tuple(rng.choices(("a", "b") + xs, k=rng.randint(0, 3)))
            terms.append((inst.value(rng.choice(values)), word))
        rhs.append(Polynomial.build(inst, terms))
    return AlgebraicSystem(inst, ("a", "b"), xs, tuple(rhs))


def test_raw_kernels_equal_the_lifted_reference_on_seeded_systems():
    """finite_gnf, with and without keep, and oracle_coeff_gnf equal the
    lifted stages and oracle they replaced (tests/gnf_stage_reference.py)
    on 1,000 seeded systems over the four instances, half of them
    Greibach-shaped: the same variables and polynomials, and on the
    Greibach-shaped ones the same coefficient of every word of at most 5
    letters at one component of each."""
    rng = random.Random(36)
    instances = [BOOLEAN, TROPICAL, ARCTIC, COUNTING]
    words = [w for n in range(6) for w in itertools.product("ab", repeat=n)]
    for case in range(1000):
        inst = instances[case % 4]
        greibach = case % 8 < 4
        sys = _seeded_system(rng, inst, greibach)
        keep = rng.sample(sys.variables, rng.randint(1, len(sys.variables)))
        for k in (None, keep):
            want = gnf_stage_reference.finite_gnf(sys, k)
            got = finite_gnf(sys, k)
            assert got == want, (sys, k)
        if greibach:
            m = rng.randrange(len(sys.variables))
            for w in words:
                want = gnf_stage_reference.oracle_coeff_gnf(sys, m, w)
                assert oracle_coeff_gnf(sys, m, w) == want, (sys, m, w)


def _productive_components_reference(sys):
    """Round-robin fixpoint: rescan every equation until nothing changes."""
    productive, changed = set(), True
    while changed:
        changed = False
        for v, p in zip(sys.variables, sys.rhs):
            if v not in productive and any(
                all(s in sys.terminals or s in productive for s in m.word) for m in p.monomials
            ):
                productive.add(v)
                changed = True
    return productive


@given(algebraic_systems(max_vars=6))
@settings(max_examples=300, deadline=None)
def test_productive_components_equals_the_round_robin_reference(sys):
    assert productive_components(sys) == _productive_components_reference(sys)


def test_fast_paths_return_their_input_when_nothing_changes():
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a",), ("x1", "x2"), (poly(b, "a x2"), poly(b, "a | a x1")))
    proper, eps = proper_form(sys)
    assert proper is sys and eps == [b.zero, b.zero]
    assert _prune_unreachable(sys, ["x1"]) is sys
    rows = _rows(sys)
    variables, kept = _drop_unproductive(sys.variables, rows, ["x1"])
    assert variables is sys.variables and kept is rows
    assert finite_gnf(sys).system is sys


# -- chain-rule elimination ------------------------------------------------------------


def unit_matrices(max_n):
    """Sparse square matrices over any instance, each with at least one cycle."""

    def over(inst):
        zero = inst.zero_raw()
        nonzero = [v for v in inst.grid() if v is not zero and v != zero]
        cell = st.sampled_from([zero] * 3 + nonzero)

        def with_cycle(n):
            return st.tuples(
                st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n),
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
                st.lists(st.sampled_from(nonzero), min_size=n, max_size=n),
            ).map(lambda t: _close_cycle(*t))

        return st.integers(1, max_n).flatmap(with_cycle).map(lambda rows: mat_from_raw(inst, rows))

    return st.sampled_from([BOOLEAN, TROPICAL, ARCTIC, COUNTING]).flatmap(over)


def _close_cycle(rows, cycle, weights):
    for k, i in enumerate(cycle):
        rows[i][cycle[(k + 1) % len(cycle)]] = weights[k]
    return rows


def _unit_closure(m):
    """U* read off _unit_elimination on x_i = sum_j U[i][j] x_j + a_i."""
    inst, n = m.instance, m.n
    xs = tuple(f"x{i}" for i in range(n))
    letters = tuple(f"a{i}" for i in range(n))
    rhs = tuple(
        Polynomial.build(
            inst, [(m.rows[i][j], (xs[j],)) for j in range(n)] + [(inst.one, (letters[i],))]
        )
        for i in range(n)
    )
    sys = AlgebraicSystem(inst, letters, xs, rhs)
    out = _system(sys, xs, _unit_elimination(inst, xs, _rows(sys)))
    return [[out.rhs[i].coeff_of((letters[j],)) for j in range(n)] for i in range(n)]


@given(unit_matrices(8))
@settings(max_examples=150, deadline=None)
def test_unit_elimination_closure_equals_dense_star(m):
    star = mat_star(m)
    assert _unit_closure(m) == [list(row) for row in star.rows]


def test_unit_elimination_counts_cycles_as_infinite():
    # x0 <-> x1 is a cycle and x2 -> x0 enters it: every path count through
    # the cycle is infinite, while x2 reaches itself only by the empty path
    m = mat_from_raw(COUNTING, [[0, 1, 0], [1, 0, 0], [1, 0, 0]])
    got = [[v.value for v in row] for row in _unit_closure(m)]
    assert got == [[INF, INF, 0], [INF, INF, 0], [INF, INF, 1]]
    assert got == [[v.value for v in row] for row in mat_star(m).rows]
