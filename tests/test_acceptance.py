"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every comparison below is exact -- no tolerances anywhere: the semirings are
implemented with exact integer arithmetic and distinguished infinities.
"""

import itertools
import random
import re

from staromega.checks import identity_suite, oracle_suite
from staromega.fixtures import (
    arctic_block_system,
    boolean_omega_system,
    contrast_mixed_system,
    pair_example_systems,
    tropical_mixed_system,
    tropical_omega_automaton,
)
from staromega.gnf import (
    DecompositionTerm,
    OmegaDecomposition,
    char_to_mixed,
    normalize_decomposition,
    pipeline_from_decomposition,
)
from staromega.pda import (
    behavior_finite,
    behavior_omega_lasso,
    induced_finite_pda,
    induced_omega_pda,
)
from staromega.semiring import BOOLEAN, INF, TROPICAL
from staromega.series import LassoWord, parse_polynomial
from staromega.system import (
    AlgebraicSystem,
    canonical_omega_lasso,
    induce_mixed,
    is_gnf_mixed,
    is_gnf_omega,
    least_solution_finite,
)


def verdict(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def lasso(u, v):
    return LassoWord(tuple(u), tuple(v))


def test_criterion_1_tropical_mixed_example():
    sys = tropical_mixed_system()
    ok = True
    sol = least_solution_finite(sys.x, 12)
    for n in range(1, 7):
        ok &= sol[0].coeff(("a",) * n + ("b",) * n).value == n
    for n in range(0, 5):
        r = canonical_omega_lasso(sys, 1, 1, lasso("a" * n + "b" * n, "c"))
        ok &= r.conclusive and r.value.value == n
    verdict(1, "min-plus mixed system: a^n b^n -> n and a^n b^n c^w -> n", ok)


def test_criterion_2_boolean_system():
    mixed = induce_mixed(boolean_omega_system())
    sol = least_solution_finite(mixed.x, 8)

    def member(w):
        while w:
            if w[0] != "a":
                return False
            n = 0
            while n < len(w) and w[n] == "a":
                n += 1
            if w[n : 2 * n] != "b" * n:
                return False
            w = w[2 * n :]
        return True

    ok = True
    for length in range(0, 9):
        for w in itertools.product("ab", repeat=length):
            ok &= sol[0].coeff(w).value == (1 if member("".join(w)) else 0)
    r = canonical_omega_lasso(mixed, 1, 0, lasso("", "ab"))
    ok &= r.conclusive and r.value.value == 1
    r = canonical_omega_lasso(mixed, 1, 1, lasso("", "a"))
    ok &= r.conclusive and r.value.value == 0
    r = canonical_omega_lasso(mixed, 2, 1, lasso("", "a"))
    ok &= r.conclusive and r.value.value == 1
    verdict(2, "Boolean system: finite membership and the two canonical solutions", ok)


def test_criterion_3_gnf_pair_construction():
    s_sys, t_sys = pair_example_systems()
    d = OmegaDecomposition(TROPICAL, t_sys.terminals, (DecompositionTerm(t_sys, 0, s_sys, 0),))
    _, mixed, sel, _, _, _ = pipeline_from_decomposition(d)
    ok = is_gnf_mixed(mixed)
    for n in (1, 2, 3):
        r = canonical_omega_lasso(
            mixed, sel.buchi_count, sel.component, lasso("a" * n + "b" * n, "ddc")
        )
        ok &= r.conclusive and r.value.value == n
    r = canonical_omega_lasso(mixed, sel.buchi_count, sel.component, lasso("abddc", "ddc"))
    ok &= r.conclusive and r.value.value == 1
    verdict(3, "pair construction: a^n b^n ((dd)* c)^w -> n", ok)


def test_criterion_4_arctic_finite_automaton():
    auto = induced_finite_pda(arctic_block_system(), 1)
    members = []
    rng = random.Random(4)
    while len(members) < 20:
        k = rng.randint(1, 3)
        blocks = [rng.randint(1, 3) for _ in range(k)]
        w = "".join("a" * n + "b" * n for n in blocks)
        members.append((tuple(w), max(blocks)))
    non_members = ["", "a", "b", "ba", "aab", "abb", "abba", "aabbb", "baab", "ababa"]
    ok = True
    for w, want in members:
        ok &= behavior_finite(auto, w).value == want
    for w in non_members:
        ok &= behavior_finite(auto, tuple(w)).is_zero()
    verdict(4, "max-plus automaton: 20 block words -> max n_i, 10 non-members -> zero", ok)


def test_criterion_5_omega_automaton():
    auto = tropical_omega_automaton()
    ok = True
    for n in range(0, 5):
        r = behavior_omega_lasso(auto, lasso("a" * n + "b" * n, "c"))
        ok &= r.conclusive and r.value.value == n
    for u, v in [("a", "a"), ("ab", "aba"), ("ab", "abc")]:
        r = behavior_omega_lasso(auto, lasso(u, v))
        ok &= r.conclusive and r.value.value is INF
    verdict(5, "omega automaton: a^n b^n c^w -> n, inconsistent lassos -> zero", ok)


def test_criterion_6_contrast_example():
    sys = contrast_mixed_system()
    auto2 = induced_omega_pda(sys, 1, 1, finite=1)
    auto1 = induced_omega_pda(sys, 0, 1, finite=0)
    ok = True
    r = behavior_omega_lasso(auto2, lasso("", "aa"))
    ok &= r.conclusive and r.value.value == 0
    for u, v in [("a", "c"), ("acaa", "c")]:
        r = behavior_omega_lasso(auto2, lasso(u, v))
        ok &= r.conclusive and r.value.value == 1
    for length in range(0, 9):
        for w in itertools.product("ac", repeat=length):
            text = "".join(w)
            ok &= behavior_finite(auto1, w).value == (
                1 if re.fullmatch(r"c*a", text) else 0
            )
            ok &= behavior_finite(auto2, w).value == (
                1 if re.fullmatch(r"(ac*a)+", text) else 0
            )
    verdict(6, "contrast automaton rejects (a c* a)^w and keeps both finite parts", ok)


def test_criterion_7_identity_suites():
    result = identity_suite(random.Random(0))
    for name, line_ok, info in result.lines:
        assert line_ok, (name, info)
    verdict(7, "scalar and matrix identity suites, 200 random cases", result.ok)


def test_criterion_8_oracle_equivalence():
    result = oracle_suite(random.Random(0))
    verdict(
        8, "least solution = derivation oracle = automaton = segment table, 100 systems", result.ok
    )


# -- criterion 9: end-to-end pipeline -----------------------------------------------


def _sys(inst, terminals, equations):
    names = tuple(v for v, _ in equations)
    rhs = tuple(parse_polynomial(text, inst) for _, text in equations)
    return AlgebraicSystem(inst, terminals, names, rhs)


def _fixture_decompositions():
    T, B = TROPICAL, BOOLEAN
    ts = ("a", "b", "c", "d")
    anbn_t = _sys(T, ts, [("s", "(1) a s b | (1) a b")])
    anbn_b = _sys(B, ts, [("s", "a s b | a b")])
    letter = lambda inst, x: _sys(inst, ts, [("v", x)])
    eps_t = _sys(T, ts, [("v", "eps")])
    eps_b = _sys(B, ts, [("v", "eps")])
    ddc_t = _sys(T, ts, [("t1", "c | d t2 t1"), ("t2", "d")])
    ab_loop_b = _sys(B, ts, [("p", "a q"), ("q", "b")])
    bstar_a = _sys(B, ts, [("t", "a | b t")])
    dweight_t = _sys(T, ts, [("t", "c | (1) d t")])
    s_eps_mix_t = _sys(T, ts, [("s", "(1) a s b | eps")])

    def D(inst, *terms):
        return OmegaDecomposition(inst, ts, tuple(terms))

    def l(u, v):
        return lasso(u, v)

    fixtures = []
    fixtures.append((
        "min-plus a^n b^n . c^w",
        D(T, DecompositionTerm(letter(T, "c"), 0, anbn_t, 0)),
        [l("", "c"), l("ab", "c"), l("aabb", "c"), l("aaabbb", "c"), l("", "a"),
         l("ab", "cc"), l("abab", "c"), l("b", "c"), l("aabb", "ccc"), l("a", "ab")],
    ))
    fixtures.append((
        "min-plus two summands incl. empty-word part",
        D(T, DecompositionTerm(letter(T, "c"), 0, anbn_t, 0),
             DecompositionTerm(letter(T, "c"), 0, eps_t, 0)),
        [l("", "c"), l("ab", "c"), l("aabb", "c"), l("", "a"), l("ab", "ab"),
         l("aaabbb", "c"), l("b", "c"), l("", "cc"), l("abab", "c"), l("aabbab", "c")],
    ))
    fixtures.append((
        "Boolean a^n b^n . c^w",
        D(B, DecompositionTerm(letter(B, "c"), 0, anbn_b, 0)),
        [l("", "c"), l("ab", "c"), l("aabb", "c"), l("", "a"), l("ba", "c"),
         l("ab", "cc"), l("abab", "c"), l("aabb", "ccc"), l("a", "c"), l("b", "c")],
    ))
    fixtures.append((
        "Boolean union of (ab)^w and b c^w",
        D(B, DecompositionTerm(ab_loop_b, 0, letter(B, "a"), 0),
             DecompositionTerm(letter(B, "c"), 0, letter(B, "b"), 0)),
        [l("a", "ab"), l("b", "c"), l("", "ab"), l("a", "ba"), l("b", "cc"),
         l("a", "c"), l("b", "ab"), l("aab", "ab"), l("", "c"), l("ab", "ab")],
    ))
    fixtures.append((
        "min-plus pair with (dd)* c tail",
        D(T, DecompositionTerm(ddc_t, 0, anbn_t, 0)),
        [l("ab", "ddc"), l("aabb", "ddc"), l("abddc", "ddc"), l("", "dd"),
         l("ab", "c"), l("aabb", "ddcddc"), l("ab", "ddcc"), l("b", "ddc"),
         l("abdd", "cdd"), l("a", "ddc")],
    ))
    fixtures.append((
        "Boolean scalar-only summand a^w",
        D(B, DecompositionTerm(letter(B, "a"), 0, eps_b, 0)),
        [l("", "a"), l("a", "a"), l("", "aa"), l("", "b"), l("a", "b"),
         l("b", "a"), l("", "ab"), l("aa", "a"), l("a", "aa"), l("", "c")],
    ))
    fixtures.append((
        "min-plus s with empty-word coefficient",
        D(T, DecompositionTerm(letter(T, "c"), 0, s_eps_mix_t, 0)),
        [l("", "c"), l("ab", "c"), l("aabb", "c"), l("", "a"), l("ab", "cc"),
         l("aaabbb", "c"), l("ba", "c"), l("", "cc"), l("a", "c"), l("abab", "c")],
    ))
    fixtures.append((
        "Boolean a (b* a)^w",
        D(B, DecompositionTerm(bstar_a, 0, letter(B, "a"), 0)),
        [l("a", "a"), l("a", "ba"), l("ab", "ab"), l("a", "bba"), l("", "a"),
         l("ab", "ba"), l("a", "b"), l("aa", "a"), l("aba", "ba"), l("b", "a")],
    ))
    fixtures.append((
        "min-plus weighted tail d^k c",
        D(T, DecompositionTerm(dweight_t, 0, letter(T, "a"), 0)),
        [l("a", "c"), l("adc", "c"), l("addc", "c"), l("a", "dc"), l("", "c"),
         l("ac", "c"), l("adcdc", "c"), l("a", "d"), l("adc", "dc"), l("b", "c")],
    ))
    fixtures.append((
        "Boolean two summands, scalar and proper",
        D(B, DecompositionTerm(letter(B, "a"), 0, eps_b, 0),
             DecompositionTerm(letter(B, "c"), 0, letter(B, "b"), 0)),
        [l("", "a"), l("b", "c"), l("", "c"), l("a", "a"), l("b", "cc"),
         l("ab", "c"), l("", "b"), l("bc", "c"), l("a", "c"), l("aa", "a")],
    ))
    return fixtures


def test_criterion_9_end_to_end_pipeline():
    ok = True
    failures = []
    for name, dec, lassos in _fixture_decompositions():
        norm = normalize_decomposition(dec)
        direct, direct_sel = char_to_mixed(norm)
        _, mixed, sel, omega_sys, omega_sel, _rep = pipeline_from_decomposition(norm)
        assert is_gnf_mixed(mixed) and is_gnf_omega(omega_sys)
        unmixed = induce_mixed(omega_sys)
        auto = induced_omega_pda(unmixed, omega_sel.component, omega_sel.buchi_count)
        for w in lassos:
            ra = canonical_omega_lasso(direct, direct_sel.buchi_count, direct_sel.component, w)
            rb = canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w)
            rc = canonical_omega_lasso(unmixed, omega_sel.buchi_count, omega_sel.component, w)
            rd = behavior_omega_lasso(auto, w)
            results = [ra, rb, rc, rd]
            if not all(r.conclusive for r in results):
                ok = False
                failures.append((name, str(w), [r.status for r in results]))
            elif len({r.value for r in results}) != 1:
                ok = False
                failures.append((name, str(w), [r.value.value for r in results]))
    if failures:
        print(failures)
    verdict(9, "pipeline agreement across direct, mixed, folded and automaton routes", ok)
