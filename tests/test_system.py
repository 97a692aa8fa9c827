import itertools
import random
from dataclasses import fields

import pytest

from staromega.checks import random_gnf_system
from staromega.fixtures import boolean_omega_system, tropical_mixed_system
from staromega._search import PositionAutomaton
from staromega.semiring import (
    ARCTIC,
    BOOLEAN,
    COUNTING,
    INF,
    TROPICAL,
    SemiringError,
)
from staromega.series import (
    LassoWord,
    Polynomial,
    SeriesError,
    TruncatedSeries,
    parse_polynomial,
    substitute,
)
from staromega.gnf import finite_gnf
from staromega.system import (
    AlgebraicSystem,
    IllFormedSystem,
    MixedSystem,
    SegmentTable,
    canonical_omega_lasso,
    eps_coefficients,
    induce_mixed,
    is_gnf_algebraic,
    is_gnf_mixed,
    is_gnf_omega,
    least_solution_finite,
    oracle_coeff_gnf,
    sparse_row,
    support_triples,
)

from kleene_reference import RoundsDidNotSettle, _kleene, kleene_rounds
from least_solution_reference import reference_least_solution
from lasso_reference import segment, shift


def poly(inst, text):
    return parse_polynomial(text, inst)


def entry(sys: MixedSystem, i: int, j: int) -> Polynomial:
    """rho(x)[i][j], zero when the cell is not stored."""
    return sys.rho[i].get(j, Polynomial.zero(sys.x.instance))


# -- construction and induced mixed systems ---------------------------------------


def test_system_validation():
    b = BOOLEAN
    with pytest.raises(IllFormedSystem, match=r"equation for y uses undeclared symbols \['p', 'q'\]"):
        AlgebraicSystem(b, ("a",), ("x", "y"), (poly(b, "a x"), poly(b, "a q | p")))
    with pytest.raises(SemiringError, match="equation over a different instance"):
        AlgebraicSystem(b, ("a",), ("x", "y"), (poly(b, "a"), poly(TROPICAL, "a")))
    x = AlgebraicSystem(b, ("a",), ("x",), (poly(b, "a"),))
    with pytest.raises(IllFormedSystem):
        MixedSystem(x, ("z",), ({1: poly(b, "a")},))
    with pytest.raises(IllFormedSystem):
        MixedSystem(x, ("z",), ({-1: poly(b, "a")},))
    with pytest.raises(IllFormedSystem):
        MixedSystem(x, ("z",), ({0: Polynomial.zero(b)},))
    with pytest.raises(IllFormedSystem):
        MixedSystem(x, ("z",), ())


def test_entry_reads_absent_cells_as_zero():
    b = BOOLEAN
    x = AlgebraicSystem(b, ("a",), ("x",), (poly(b, "a"),))
    sys = MixedSystem(x, ("z1", "z2"), ({1: poly(b, "a x")}, {}))
    assert entry(sys, 0, 1) == poly(b, "a x")
    assert entry(sys, 0, 0) == Polynomial.zero(b)
    assert entry(sys, 1, 0).is_zero() and entry(sys, 1, 1).is_zero()


def test_induce_mixed_worked_example():
    sys = boolean_omega_system()
    mixed = induce_mixed(sys)
    b = BOOLEAN
    assert mixed.x.variables == ("x1", "x2")
    assert mixed.x.rhs == (poly(b, "x2 x1 | eps"), poly(b, "a x2 b | eps"))
    # z1 = z2 + x2 z1 ; z2 = a z2
    assert entry(mixed, 0, 0) == poly(b, "x2")
    assert entry(mixed, 0, 1) == poly(b, "eps")
    assert entry(mixed, 1, 0) == Polynomial.zero(b)
    assert entry(mixed, 1, 1) == poly(b, "a")


def test_induce_mixed_variable_free():
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a",), ("y1",), (poly(b, "a"),))
    mixed = induce_mixed(sys)
    assert entry(mixed, 0, 0).is_zero()


def test_induce_mixed_merges_duplicate_cuts():
    b = BOOLEAN
    sys = AlgebraicSystem(
        b, ("a", "c"), ("y1", "y2"),
        (poly(b, "a | c y1"), poly(b, "a y1 y2 | a y1")),
    )
    mixed = induce_mixed(sys)
    assert entry(mixed, 0, 0) == poly(b, "c")
    assert entry(mixed, 1, 0) == poly(b, "a")
    assert entry(mixed, 1, 1) == poly(b, "a x1")


# -- normal form predicates ---------------------------------------------------------


def test_is_gnf_predicates():
    b = BOOLEAN

    def x1(text):
        return AlgebraicSystem(b, ("a",), ("x1",), (poly(b, text),))

    good = MixedSystem(x1("a | a x1 x1 | eps"), ("z1",), ({0: poly(b, "a | a x1")},))
    assert is_gnf_mixed(good)
    lead_var = MixedSystem(x1("x1 a"), ("z1",), ({0: poly(b, "a")},))
    assert not is_gnf_mixed(lead_var)
    eps_in_z = MixedSystem(x1("a"), ("z1",), ({0: poly(b, "eps")},))
    assert not is_gnf_mixed(eps_in_z)
    long_tail = MixedSystem(x1("a x1 x1 x1"), ("z1",), ({0: poly(b, "a")},))
    assert not is_gnf_mixed(long_tail)
    osys = AlgebraicSystem(b, ("a",), ("y1",), (poly(b, "a y1 y1 | eps"),))
    assert is_gnf_omega(osys)
    assert not is_gnf_omega(AlgebraicSystem(b, ("a",), ("y1",), (poly(b, "y1"),)))


# -- finite least solutions ------------------------------------------------------------


def test_least_solution_tropical_example():
    sys = tropical_mixed_system().x
    sol = least_solution_finite(sys, 6)
    assert sol[0].coeff(("a", "b")).value == 1
    assert sol[0].coeff(("a", "a", "b", "b")).value == 2
    assert sol[0].coeff(("a", "a", "a", "b", "b", "b")).value == 3
    assert sol[0].coeff(("a", "b", "a", "b")).value is INF


def test_least_solution_boolean_example():
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a", "b"), ("x2",), (poly(b, "a x2 b | eps"),))
    sol = least_solution_finite(sys, 4)
    assert sol[0].coeff(()).value == 1
    assert sol[0].coeff(("a", "b")).value == 1
    assert sol[0].coeff(("a", "a", "b", "b")).value == 1
    assert sol[0].coeff(("a", "b", "a", "b")).value == 0


def test_substitute_unbound_variable_errors():
    b = BOOLEAN
    from staromega.series import SeriesError

    with pytest.raises(SeriesError):
        substitute(poly(b, "a x"), {}, 3, variables=("x",))


def test_least_solution_trivial():
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a",), ("x1",), (poly(b, "a"),))
    assert list(least_solution_finite(sys, 3)[0].coeffs) == [("a",)]


def test_least_solution_refuses_a_negative_truncation():
    t = TROPICAL
    sys = AlgebraicSystem(t, ("a",), ("x",), (poly(t, "a"),))
    with pytest.raises(SeriesError):
        least_solution_finite(sys, -1)


def test_non_stabilizing_system_errors():
    # x = 2x + 1 over counting keeps strictly growing under Kleene rounds;
    # its empty-word weight is a counting cycle, inf.  The arctic
    # x1 = 1 x1 + eps gains weight on its cycle, so pumping it gives every
    # weight: inf as well, where the rounds never settle
    c = COUNTING
    growing = AlgebraicSystem(c, ("a",), ("x",), (poly(c, "(2) x | (1) eps"),))
    assert least_solution_finite(growing, 2)[0].coeff(()).value is INF
    a = ARCTIC
    gaining = AlgebraicSystem(a, ("a",), ("x1",), (poly(a, "(1) x1 | eps"),))
    with pytest.raises(RoundsDidNotSettle):
        kleene_rounds(gaining, 2, 30)
    assert least_solution_finite(gaining, 2)[0].coeff(()).value is INF
    assert eps_coefficients(gaining)[0].value is INF


def test_gnf_systems_stabilize_quickly():
    rng = random.Random(2)
    for _ in range(25):
        inst = rng.choice([BOOLEAN, TROPICAL])
        sys = random_gnf_system(rng, inst)
        max_len = rng.randint(0, 5)
        # one leading terminal per derivation level bounds the useful depth:
        # max_len + 1 applications already carry the final coefficients
        final = least_solution_finite(sys, max_len)
        current = [TruncatedSeries(inst, max_len)] * len(sys.variables)
        for _round in range(max_len + 1):
            assignment = dict(zip(sys.variables, current))
            current = [substitute(q, assignment, max_len) for q in sys.rhs]
        assert current == final
        assert kleene_rounds(sys, max_len) <= max_len + 2


def test_arctic_chain_loop_pumps_to_inf():
    # x1 = (1) x1 | a: a derives a at every weight n, so the value is inf,
    # which Kleene rounds never reach
    a = ARCTIC
    sys = AlgebraicSystem(a, ("a",), ("x1",), (poly(a, "(1) x1 | a"),))
    with pytest.raises(RoundsDidNotSettle):
        kleene_rounds(sys, 1)
    sol = least_solution_finite(sys, 3)
    assert sol[0].coeff(("a",)).value is INF
    assert list(sol[0].coeffs) == [("a",)]


GENERAL_COEFFS = {BOOLEAN: [1], TROPICAL: [0, 1, 2], ARCTIC: [0, 1, 2], COUNTING: [1, 2]}


def _random_general_system(rng, inst):
    """1-3 variables, 1-3 monomials each: words of length 0-3 over a, b and
    the variables, so empty-word and chain rules occur."""
    names = tuple(f"x{i}" for i in range(rng.randint(1, 3)))
    symbols = ("a", "b") + names
    rhs = []
    for _ in names:
        terms = [
            (
                inst.value(rng.choice(GENERAL_COEFFS[inst])),
                tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3))),
            )
            for _ in range(rng.randint(1, 3))
        ]
        rhs.append(Polynomial.build(inst, terms))
    return AlgebraicSystem(inst, ("a", "b"), names, tuple(rhs))


def test_least_solution_by_length_equals_the_references_on_general_systems():
    # where 16 Kleene rounds settle, their series; elsewhere the global
    # empty-word rounds on the empty word and the derivation oracle on the
    # finite normal form on the other words, arctic cycles that gain weight
    # on the empty word included.
    settled = by_oracle = 0
    for inst in (BOOLEAN, TROPICAL, ARCTIC, COUNTING):
        rng = random.Random(f"by-length-17/{inst.name}")
        for _ in range(50):
            sys = _random_general_system(rng, inst)
            max_len = rng.randint(2, 4)
            sol = least_solution_finite(sys, max_len)
            try:
                ref, _rounds = _kleene(sys, max_len, 16)
            except RoundsDidNotSettle:
                ref = None
            if ref is not None:
                assert sol == ref
                settled += 1
                continue
            nf = finite_gnf(sys)
            eps, _settled = _eps_round_reference(sys)
            for i, v in enumerate(sys.variables):
                assert sol[i].coeff(()).value == eps[i], (sys, v)
                for length in range(1, max_len + 1):
                    for w in itertools.product("ab", repeat=length):
                        assert sol[i].coeff(w) == oracle_coeff_gnf(
                            nf.system, nf.component_of[v], w
                        ), (sys, v, w)
            by_oracle += 1
    # of 200 cases; 6 of those by the oracle are arctic cycles that gain
    # weight on the empty word, inf there
    assert (settled, by_oracle) == (176, 24)


def _random_coded_system(rng, inst, letters, greibach):
    """1-3 variables over the given letters, with coefficients that include
    inf on arctic and counting.  General words have length 0-3 over the
    letters and the variables; Greibach ones are empty or a letter followed
    by at most two variables."""
    names = tuple(f"x{i}" for i in range(rng.randint(1, 3)))
    coeffs = GENERAL_COEFFS[inst] + ([INF] if inst in (ARCTIC, COUNTING) else [])
    rhs = []
    for _ in names:
        terms = []
        for _ in range(rng.randint(1, 3)):
            if not greibach:
                word = tuple(rng.choice(letters + names) for _ in range(rng.randint(0, 3)))
            elif rng.random() < 0.2:
                word = ()
            else:
                tail = tuple(rng.choice(names) for _ in range(rng.randint(0, 2)))
                word = (rng.choice(letters),) + tail
            terms.append((inst.value(rng.choice(coeffs)), word))
        rhs.append(Polynomial.build(inst, terms))
    return names, tuple(rhs)


def test_coded_strata_equal_the_tuple_keyed_reference():
    # the strata code a word in base k, the number of declared terminals:
    # alphabets of 1-3 letters, and every other case a declared letter that
    # no equation uses at a random place among them, so k runs from 1 to 4.
    # Every series must equal the reference's, on the same set of words.
    seen = set()
    for inst in (BOOLEAN, TROPICAL, ARCTIC, COUNTING):
        rng = random.Random(f"coded-strata/{inst.name}")
        for case in range(108):
            letters = ("a", "b", "c")[: 1 + case % 3]
            terminals = list(letters)
            if case // 3 % 2:
                terminals.insert(rng.randint(0, len(letters)), "u")
            names, rhs = _random_coded_system(rng, inst, letters, case // 6 % 2 == 0)
            sys = AlgebraicSystem(inst, tuple(terminals), names, rhs)
            max_len = rng.randint(0, 7)
            got = least_solution_finite(sys, max_len)
            want = reference_least_solution(sys, max_len)
            for g, r in zip(got, want, strict=True):
                assert g == r and g.coeffs.keys() == r.coeffs.keys(), (sys, max_len)
            seen.add((len(terminals), max_len))
    assert seen == {(k, m) for k in range(1, 5) for m in range(8)}


def test_segment_table_equals_the_references_on_general_systems():
    # the Jacobi table runs capped rounds: where it settles it must agree
    # with the exact table.  The by-length solution agrees on every case,
    # and on every case an empty segment weighs the empty word, as on the
    # word ().  Counting cycles of nullable variables, such as
    # x = x x | eps, are inf by length too; only the Jacobi rounds square
    # ever larger integers there.
    from grammar_lasso_reference import JacobiSegmentTable

    skipped_jacobi = 0
    for inst in (BOOLEAN, TROPICAL, ARCTIC, COUNTING):
        rng = random.Random(f"segments-2/{inst.name}")
        for _ in range(40):
            sys = _random_general_system(rng, inst)
            word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            n = len(word)
            table = SegmentTable(sys, word)
            eps = eps_coefficients(sys)
            for v, e in zip(sys.variables, eps):
                assert all(table.coeff(v, s, s) == e for s in range(n + 1)), (sys, word)
            try:
                ref = JacobiSegmentTable(sys, word, max_iter=32)
            except RoundsDidNotSettle:
                skipped_jacobi += 1
            else:
                assert table.table == ref.table, (sys, word)
            sol = least_solution_finite(sys, n)
            for i, v in enumerate(sys.variables):
                for s, t in itertools.combinations_with_replacement(range(n + 1), 2):
                    assert table.coeff(v, s, t) == sol[i].coeff(word[s:t]), (sys, word)
    # of 160 cases, 4 of them arctic cycles that gain weight on the empty word
    assert skipped_jacobi == 11


# -- empty-word weights by components ---------------------------------------------


def _counting(text_by_var):
    c = COUNTING
    names = tuple(text_by_var)
    return AlgebraicSystem(c, ("a",), names, tuple(poly(c, t) for t in text_by_var.values()))


def test_counting_cycle_of_nullable_variables_is_inf_at_once():
    # x1 = x1 x1 | a | eps: the empty word has the derivations of every
    # binary tree shape, infinitely many of weight 1, and so has a; Kleene
    # rounds square ever larger integers here
    sys = _counting({"x1": "x1 x1 | a | eps"})
    assert eps_coefficients(sys)[0].value is INF
    assert least_solution_finite(sys, 1)[0].coeff(("a",)).value is INF
    assert SegmentTable(sys, ("a",)).coeff("x1", 0, 1).value is INF
    sys = _counting({"x1": "(2) x1 | eps"})
    assert eps_coefficients(sys)[0].value is INF
    assert least_solution_finite(sys, 0)[0].coeff(()).value is INF


def test_coefficient_misses_return_the_stored_zero():
    c = COUNTING
    sys = _counting({"x1": "(2) a x1 | a"})
    assert sys.rhs[0].coeff_of(("x1",)) is c.zero
    assert least_solution_finite(sys, 2)[0].coeff(()) is c.zero
    assert SegmentTable(sys, ("a", "a")).coeff("x1", 0, 0) is c.zero
    assert least_solution_finite(sys, 2)[0].coeff(("a",)).value == 1


def test_cycle_through_a_variable_that_is_not_nullable_stays_finite():
    # x1 x2 weighs zero on the empty word, since x2 does, so the loop of x1
    # on itself is not a cycle of its empty-word part
    sys = _counting({"x1": "x1 x2 | eps", "x2": "a"})
    assert [v.value for v in eps_coefficients(sys)] == [1, 0]
    sol = least_solution_finite(sys, 2)
    assert sol[0].coeff(("a",)).value == 1
    assert sol[0].coeff(("a", "a")).value == 1


def test_counting_cycle_without_empty_word_counts_trees():
    # x1 = x1 x1 | a has no empty word: a^3 has the two binary trees of
    # three leaves
    sys = _counting({"x1": "x1 x1 | a"})
    assert eps_coefficients(sys)[0].is_zero()
    assert least_solution_finite(sys, 3)[0].coeff(("a", "a", "a")).value == 2


def _eps_round_reference(sys):
    """The raw empty-word weights by global Kleene rounds, which know
    nothing of components or pumping, and whether 12 rounds settle.  Where
    they do not, a variable whose round value still moves from round 12 to
    a later round is inf, and every other one has its round value.  The
    later round is 24, and 18 in counting, where x = x x | eps squares ever
    larger integers."""
    from eps_rounds_reference import eps_rounds, global_eps_rounds

    inst = sys.instance
    ix = {v: i for i, v in enumerate(sys.variables)}
    rules = [
        [(m.coeff.value, [ix[s] for s in m.word]) for m in p.monomials
         if all(s in ix for s in m.word)]
        for p in sys.rhs
    ]
    try:
        return global_eps_rounds(inst, rules, 12), True
    except RoundsDidNotSettle:
        now = eps_rounds(inst, rules, 12)
        later = eps_rounds(inst, rules, 18 if inst is COUNTING else 24)
        return [INF if a != b else a for a, b in zip(now, later)], False


def test_eps_weights_equal_the_derivation_weights_and_the_global_rounds():
    # the derivation weights of the empty word against `_eps_round_reference`
    compared = {}
    for inst in (BOOLEAN, TROPICAL, ARCTIC, COUNTING):
        rng = random.Random(f"eps-components-1/{inst.name}")
        counts = compared[inst.name] = [0, 0]
        for _ in range(60):
            sys = _random_general_system(rng, inst)
            got = [e.value for e in eps_coefficients(sys)]
            ref, settled = _eps_round_reference(sys)
            assert got == ref, sys
            counts[settled] += 1
    # (the rounds do not settle, they settle)
    assert compared == {
        "boolean": [0, 60],
        "tropical": [0, 60],
        "arctic": [3, 57],
        "counting": [9, 51],
    }


def test_mixed_finite_part_is_one_algebraic_system():
    assert [f.name for f in fields(MixedSystem)] == ["x", "z_vars", "rho"]
    m = induce_mixed(boolean_omega_system())
    again = induce_mixed(boolean_omega_system())
    assert isinstance(m.x, AlgebraicSystem) and m.x is m.x
    # the cached Greibach test is no field: equality and repr ignore it
    assert m.is_gnf is m.is_gnf
    assert m == again and repr(m) == repr(again)
    assert m.x == again.x


# -- the derivation oracle --------------------------------------------------------------


def test_oracle_examples():
    t = TROPICAL
    s_sys = AlgebraicSystem(
        t, ("a", "b"), ("x1", "x2"),
        (poly(t, "(1) a x2 | (1) a x1 x2"), poly(t, "b")),
    )
    assert oracle_coeff_gnf(s_sys, 0, ("a", "b")).value == 1
    assert oracle_coeff_gnf(s_sys, 0, ("b", "a")).value is INF
    assert oracle_coeff_gnf(s_sys, 0, ("a", "a", "b", "b")).value == 2


def test_oracle_rejects_non_gnf():
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a",), ("x",), (poly(b, "x a"),))
    with pytest.raises(IllFormedSystem):
        oracle_coeff_gnf(sys, 0, ("a",))


def test_oracle_equals_kleene_on_random_gnf_systems():
    rng = random.Random(9)
    for _ in range(40):
        inst = rng.choice([BOOLEAN, TROPICAL])
        sys = random_gnf_system(rng, inst, n_vars=rng.randint(1, 3))
        sol = least_solution_finite(sys, 5)
        for m in range(len(sys.variables)):
            for length in range(0, 6):
                for w in itertools.product(sys.terminals, repeat=length):
                    assert sol[m].coeff(w) == oracle_coeff_gnf(sys, m, w)


def test_oracle_equals_the_stack_memo_reference_on_all_four_instances():
    from derivation_oracle_reference import oracle_coeff_gnf_reference

    rng = random.Random("oracle-by-position")
    for case in range(60):
        inst = (BOOLEAN, TROPICAL, ARCTIC, COUNTING)[case % 4]
        sys = random_gnf_system(rng, inst, n_vars=rng.randint(1, 3))
        if rng.random() < 0.5:
            # Greibach shape allows empty words too
            v = rng.randrange(len(sys.variables))
            rhs = list(sys.rhs)
            rhs[v] = rhs[v] + Polynomial.build(inst, [(inst.one, ())])
            sys = AlgebraicSystem(inst, sys.terminals, sys.variables, tuple(rhs))
        for m in range(len(sys.variables)):
            for length in range(0, 6):
                for w in itertools.product(sys.terminals, repeat=length):
                    want = oracle_coeff_gnf_reference(sys, m, w)
                    assert oracle_coeff_gnf(sys, m, w) == want, (sys, m, w)


def test_oracle_is_polynomial_in_the_word_length():
    # the arctic system behind the old oracle's timeouts: 4x per letter on
    # stacks, 2.9 s at 10 letters
    a = ARCTIC
    sys = AlgebraicSystem(
        a, ("a", "b"), ("xabt", "xeet", "xfwv"),
        (
            poly(a, "(1) xeet | (1) xabt xfwv b"),
            poly(a, "eps | (2) xabt a"),
            poly(a, "(2) b xfwv | (2) xabt xabt | (2) xeet xabt"),
        ),
    )
    nf = finite_gnf(sys)
    w = tuple("aaaaaaabaa")
    got = oracle_coeff_gnf(nf.system, nf.component_of["xabt"], w)
    assert got == least_solution_finite(sys, len(w))[0].coeff(w)
    assert got.value == 33
    long = tuple("ab" * 10)
    got = oracle_coeff_gnf(nf.system, nf.component_of["xabt"], long)
    assert got == SegmentTable(sys, long).coeff("xabt", 0, len(long))


# -- omega components at lasso words ------------------------------------------------------


def test_canonical_lasso_tropical_worked_example():
    sys = tropical_mixed_system()
    for n in range(0, 5):
        w = LassoWord(("a",) * n + ("b",) * n, ("c",))
        r = canonical_omega_lasso(sys, 1, 1, w)
        assert r.conclusive and r.value.value == n
    r = canonical_omega_lasso(sys, 1, 0, LassoWord((), ("c",)))
    assert r.conclusive and r.value.value == 0


def test_canonical_lasso_boolean_buchi_distinction():
    mixed = induce_mixed(boolean_omega_system())
    cases = [
        (1, 0, LassoWord((), ("a", "b")), 1),
        (1, 1, LassoWord((), ("a",)), 0),
        (2, 1, LassoWord((), ("a",)), 1),
        (1, 0, LassoWord((), ("a",)), 0),
        (2, 0, LassoWord((), ("a",)), 1),
    ]
    for k, comp, w, want in cases:
        r = canonical_omega_lasso(mixed, k, comp, w)
        assert r.conclusive and r.value.value == want, (k, comp, str(w))


def test_canonical_lasso_counting_values():
    # z = rho z with one z-variable: the value sums the factorizations of the
    # lasso word into words of rho, each weighing the product of its factors
    c = COUNTING

    def value(x_rhs, z_rhs, w, k=1):
        x = AlgebraicSystem(c, ("a", "b"), ("x",), (poly(c, x_rhs),))
        sys = MixedSystem(x, ("z",), ({0: poly(c, z_rhs)},))
        r = canonical_omega_lasso(sys, k, 0, w)
        assert r.conclusive
        return r.value.value

    a_omega, ab_omega = LassoWord((), ("a",)), LassoWord((), ("a", "b"))
    assert value("a", "a", a_omega) == 1
    assert value("a", "x", a_omega) == 1
    assert value("a", "a", a_omega, k=0) == 0
    # one factorization, of weight 2^omega or 3^omega
    assert value("a", "(2) a", a_omega) == INF
    assert value("a | (2) a", "x", a_omega) == INF
    # (ab)^omega has one factorization into a b and a b
    assert value("a | a b", "x", ab_omega) == 1
    assert value("a | a b", "x b", ab_omega) == 1
    # a^omega has uncountably many into a and a a
    assert value("a | a a", "x", a_omega) == INF
    # the prefix b is read once, before the period
    assert value("a", "b | x", LassoWord(("b",), ("a",))) == 1
    assert value("a", "x b", LassoWord(("b",), ("a", "b"))) == 0


def test_canonical_lasso_range_checks():
    sys = tropical_mixed_system()
    with pytest.raises(IllFormedSystem):
        canonical_omega_lasso(sys, 3, 0, LassoWord((), ("c",)))
    with pytest.raises(IllFormedSystem):
        canonical_omega_lasso(sys, 1, 5, LassoWord((), ("c",)))


def test_buchi_monotonicity():
    rng = random.Random(12)
    lassos = [
        LassoWord((), ("a",)),
        LassoWord((), ("a", "b")),
        LassoWord(("a",), ("b",)),
        LassoWord(("a", "b"), ("a",)),
    ]
    for _ in range(12):
        inst = rng.choice([BOOLEAN, TROPICAL])
        x = random_gnf_system(rng, inst, n_vars=2)
        m = 2
        rho = []
        for _i in range(m):
            row = {}
            for j in range(m):
                terms = []
                for _ in range(rng.randint(0, 2)):
                    word = (rng.choice(x.terminals),)
                    if rng.random() < 0.5:
                        word += (rng.choice(x.variables),)
                    terms.append((inst.value(1), word))
                p = Polynomial.build(inst, terms)
                if not p.is_zero():
                    row[j] = p
            rho.append(row)
        sys = MixedSystem(x, ("z0", "z1"), tuple(rho))
        for w in lassos:
            for comp in range(m):
                values = []
                for k in range(m + 1):
                    r = canonical_omega_lasso(sys, k, comp, w)
                    assert r.conclusive, (str(w), comp, k)
                    values.append(r.value)
                # the natural order: lo <= hi iff lo + hi = hi
                for lo, hi in zip(values, values[1:]):
                    assert lo + hi == hi, (str(w), comp)


def test_solution_property_finite_and_omega():
    # sigma = p(sigma) coefficientwise, and the omega values satisfy one
    # unfolding step omega_i(w) = sum_j sum_len (rho_ij(sigma), w[:len]) * omega_j(w>>len)
    for sys, max_len in [(tropical_mixed_system(), 8), (induce_mixed(boolean_omega_system()), 8)]:
        sol = least_solution_finite(sys.x, max_len)
        assignment = dict(zip(sys.x.variables, sol))
        for p, s in zip(sys.x.rhs, sol):
            assert substitute(p, assignment, max_len) == s
        terminals = sys.x.terminals
        lassos = [LassoWord((), (terminals[0],)),
                  LassoWord((terminals[0],), (terminals[-1],))]
        if sys.x.instance is TROPICAL:
            lassos.append(LassoWord(("a", "b"), ("c",)))
        else:
            lassos.append(LassoWord((), ("a", "b")))
        unroll = 6
        for w in lassos:
            for i in range(sys.m):
                direct = canonical_omega_lasso(sys, 1, i, w)
                assert direct.conclusive, (str(w), i)
                acc = sys.x.instance.zero
                for j in range(sys.m):
                    series = substitute(entry(sys, i, j), assignment, unroll)
                    for length in range(0, unroll + 1):
                        c = series.coeff(segment(w, 0, length))
                        if c.is_zero():
                            continue
                        rest = canonical_omega_lasso(sys, 1, j, shift(w, length))
                        assert rest.conclusive, (str(w), j, length)
                        acc = acc + c * rest.value
                assert acc == direct.value, (str(w), i, acc, direct.value)


# -- exact derivation weights against the analyses they replaced -----------------------


def random_mixed_system(rng, inst):
    """x- and z-equations over a, b with epsilon and chain monomials; unit
    coefficients are common, so tropical systems have values other than inf."""
    x_vars = tuple(f"x{i}" for i in range(rng.randint(1, 3)))
    factors = [(), ("a",), ("b",)] + [(x,) for x in x_vars]

    def terms(count):
        return [
            (inst.value(rng.choice((0, 0, 1, 2))) if inst is not BOOLEAN else inst.one,
             rng.choice(factors) + rng.choice(factors))
            for _ in range(count)
        ]

    # every x-variable derives some word of at most one letter
    x_rhs = tuple(
        Polynomial.build(inst, terms(rng.randint(1, 3)) + [(inst.one, rng.choice(factors[:3]))])
        for _ in x_vars
    )
    m = rng.randint(1, 3)
    rho = []
    for _ in range(m):
        cells = {j: terms(rng.randint(1, 2)) for j in range(m) if rng.random() < 0.7}
        rho.append(sparse_row(inst, cells))
    z_vars = tuple(f"z{j}" for j in range(m))
    return MixedSystem(AlgebraicSystem(inst, ("a", "b"), x_vars, x_rhs), z_vars, tuple(rho))


@pytest.mark.parametrize("inst", [BOOLEAN, TROPICAL, ARCTIC], ids=lambda i: i.name)
def test_exact_route_bounds_the_capped_search_on_random_mixed_systems(inst):
    # the support of the derivation weights is the old Boolean fixpoint, and
    # the capped search sums a subset of the runs that the exact value sums;
    # a cap of |u| + 2|v| and 32 segment-table rounds keep the reference fast,
    # and a reference that does not settle in them is not compared
    from grammar_lasso_reference import reference_canonical_search, reference_support_triples

    rng = random.Random(f"exact-grammar-route/{inst.name}")
    compared = 0
    for _ in range(100):
        sys = random_mixed_system(rng, inst)
        prefix = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
        w = LassoWord(prefix, tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))))
        pa = PositionAutomaton.of(w)
        support = {key: set(facts) for key, facts in support_triples(sys.x, pa).items()}
        assert support == reference_support_triples(sys.x, pa), str(w)
        k, comp = rng.randint(1, sys.m), rng.randrange(sys.m)
        exact = canonical_omega_lasso(sys, k, comp, w)
        assert exact.conclusive, str(w)
        cap = len(w.prefix) + 2 * len(w.period)
        try:
            ref = reference_canonical_search(sys, k, comp, w, cap, max_iter=32)
        except RoundsDidNotSettle:
            continue
        if not ref.is_zero():
            assert ref + exact.value == exact.value, (str(w), k, comp, ref, exact.value)
            compared += 1
    assert compared >= 15


@pytest.mark.parametrize("inst", [BOOLEAN, TROPICAL, ARCTIC, COUNTING], ids=lambda i: i.name)
def test_demanded_z_steps_equal_the_full_saturation_on_random_mixed_systems(inst):
    # the z-steps read off the items the start can use are the z-coefficients
    # evaluated on the saturation of every (variable, position) pair; counting
    # systems drop their zero coefficients and have fewer steps, so more of
    # them are drawn
    from grammar_lasso_reference import (
        reference_weighted_support_triples,
        reference_z_steps,
        z_steps,
    )

    rng = random.Random(f"demand/z-steps/{inst.name}")
    steps = 0
    for _ in range(300 if inst is COUNTING else 100):
        sys = random_mixed_system(rng, inst)
        prefix = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
        w = LassoWord(prefix, tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))))
        pa = PositionAutomaton.of(w)
        start = (rng.randrange(sys.m), pa.state_of(0))
        sigma = reference_weighted_support_triples(sys.x, pa)
        assert support_triples(sys.x, pa) == sigma, str(w)
        got = z_steps(sys, pa, start)
        assert got == reference_z_steps(sys, pa, sigma, start), (str(w), start)
        steps += sum(map(len, got.values()))
    assert steps >= 300, steps


@pytest.mark.parametrize("inst", [BOOLEAN, TROPICAL, ARCTIC, COUNTING], ids=lambda i: i.name)
def test_split_read_off_equals_the_epsilon_closure_on_random_mixed_systems(inst):
    # lasso_value sums the letter-free z-steps itself; closing them first by
    # a matrix star, as the route did before, gives the same value at every
    # Buchi count and component, and ε and chain monomials in the z-rows
    # make letter-free steps and cycles of them
    from grammar_lasso_reference import closure_omega_lasso, z_steps

    rng = random.Random(f"split-read-off/{inst.name}")
    values = nonzero_with_eps = 0
    for _ in range(250):
        sys = random_mixed_system(rng, inst)
        prefix = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
        w = LassoWord(prefix, tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))))
        pa = PositionAutomaton.of(w)
        for comp in range(sys.m):
            steps = z_steps(sys, pa, (comp, pa.state_of(0)))
            has_eps = any(not bit for outs in steps.values() for _j, _t, bit in outs)
            for k in range(sys.m + 1):
                got = canonical_omega_lasso(sys, k, comp, w).value
                assert got == closure_omega_lasso(sys, k, comp, w), (str(w), k, comp)
                values += 1
                nonzero_with_eps += has_eps and not got.is_zero()
    assert values >= 1500 and nonzero_with_eps >= 100, (values, nonzero_with_eps)
