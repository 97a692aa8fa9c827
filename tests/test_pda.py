import hashlib
import itertools
import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from staromega.checks import random_gnf_system
from staromega.fixtures import (
    arctic_block_system,
    contrast_mixed_system,
    tropical_omega_automaton,
)
from staromega._search import PositionAutomaton, solve_derivations
from staromega.pda import (
    EpsilonCoefficient,
    ResetPDMatrix,
    SimpleOmegaPDA,
    _successors,
    _value_graph,
    behavior_finite,
    behavior_omega_lasso,
    induced_finite_pda,
    induced_omega_pda,
    pda_from_json,
    pda_to_dot,
    pda_to_json,
    transpose,
)
from staromega.semiring import ARCTIC, BOOLEAN, COUNTING, INF, TROPICAL, SemiringValue, raw_to_json
from staromega.series import LassoWord, Polynomial, parse_polynomial
from staromega.system import (
    AlgebraicSystem,
    IllFormedSystem,
    MixedSystem,
    canonical_omega_lasso,
    least_solution_finite,
    oracle_coeff_gnf,
)

from idempotent_lasso_reference import HitEdge, lasso_value
from lasso_reference import letter, shift
from pda_summary_reference import (
    RunAnalysis,
    assert_summaries_match,
    at_reached,
    level1_of,
    pop_steps,
    pop_sum_of,
    push_steps,
    raw_push_of,
    reached_closure,
    reference_omega_value,
    reference_saturate,
    round_robin_summaries,
    sorted_level_w,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "staromega" / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


def poly(inst, text):
    return parse_polynomial(text, inst)


def entry_letters(block, i, j):
    return {a: c.value for a, c in block.get(i, {}).get(j, {}).items()}


def from_state(a, state):
    """a with the unit at state as its whole initial vector."""
    inst = a.instance
    initial = tuple(inst.one if q == state else inst.zero for q in range(a.matrix.n_states))
    return replace(a, initial=initial)


def omega_value_from(a, w, state):
    """Omega value of the runs from state on the empty stack."""
    return behavior_omega_lasso(from_state(a, state), w)


def value_after_step(a, w, state, stack):
    """Omega value of the runs from a configuration that a first step
    reaches: the engine's on the empty stack, where a run of the automaton
    starts, and the reference saturation's on a nonempty one."""
    if not stack:
        return omega_value_from(a, w, state).value
    return reference_omega_value(a, w, {(state, stack): a.instance.one})


# -- matrix entry expansion -----------------------------------------------------


def expand_entry(m: ResetPDMatrix, pi, pi2):
    """Entry of the full transition matrix at stack pair (pi, pi2).

    Pushdown suffix extension: a nonempty stack acts through its top symbol,
    keeping the rest untouched; the empty stack exposes the reset blocks.
    """
    if pi == ():
        if pi2 == ():
            return m.m_eps_eps
        if len(pi2) == 1:
            return m.m_eps_push.get(pi2[0], {})
        return {}
    top, rest = pi[0], pi[1:]
    if pi2 == rest:
        return transpose(m.pop_columns.get(top, {}))
    if pi2 == pi:
        return m.m_eps_eps
    if len(pi2) == len(pi) + 1 and pi2[1:] == pi:
        return m.m_eps_push.get(pi2[0], {})
    return {}


def test_expand_entry_suffix_rules():
    auto = tropical_omega_automaton()
    m = auto.matrix
    # popping with a deeper stack keeps the suffix
    assert expand_entry(m, ("X", "Z0"), ("Z0",)) == transpose(m.pop_columns["X"])
    assert transpose(m.pop_columns["X"]) == {2: {3: {"b": TROPICAL.one}}, 3: {3: {"b": TROPICAL.one}}}
    # ignoring the stack is the neutral block at every depth
    assert expand_entry(m, ("X", "Z0"), ("X", "Z0")) == m.m_eps_eps
    assert expand_entry(m, (), ()) == m.m_eps_eps
    # pushing onto any stack uses the push block of the new symbol
    assert expand_entry(m, ("Z0",), ("X", "Z0")) == m.m_eps_push["X"]
    # anything else is zero, e.g. a double push
    assert expand_entry(m, (), ("X", "Z0")) == {}
    assert expand_entry(m, ("X",), ("Z0",)) == {}


def test_blocks_store_only_nonempty_rows_of_known_states():
    t = TROPICAL
    a = {"a": t.one}
    for neutral, message in (({2: {0: a}}, "block row 2 out of range"), ({0: {}}, "empty rows")):
        with pytest.raises(IllFormedSystem, match=message):
            ResetPDMatrix(t, 2, ("a",), (), neutral, {}, {})
    # a pop column shared by two symbols is read once, but every target is
    # checked; a column maps source states, so a zero names its source first
    column = {0: a}
    for pops, message in (
        ({"X": {0: column}, "Y": {7: column}}, "block column 7 out of range"),
        ({"X": {1: {3: a}}}, "block row 3 out of range"),
        ({"X": {1: {}}}, "empty columns"),
        ({"X": {1: {0: {"a": t.zero}}}}, "zero weight from state 0 to 1"),
        ({"X": {0: column}, "Y": {1: {0: {"b": t.one}}}}, "unknown input letter 'b'"),
    ):
        with pytest.raises(IllFormedSystem, match=message):
            ResetPDMatrix(t, 2, ("a",), ("X", "Y"), {}, {}, pops)


def test_expand_entry_on_arctic_example_blocks():
    sys = arctic_block_system()
    auto = induced_finite_pda(sys, 1)
    m = auto.matrix
    # pushes of B: R pushes B on a with weight 1, Q pushes B on a with weight 0
    r, q = sys.variables.index("R"), sys.variables.index("Q")
    assert entry_letters(m.m_eps_push["B"], r, r) == {"a": 1}
    assert entry_letters(m.m_eps_push["B"], q, q) == {"a": 0}


# -- induced finite automata -----------------------------------------------------


def test_induced_finite_structure():
    sys = arctic_block_system()
    auto = induced_finite_pda(sys, 1)
    assert len(auto.state_names) == 6
    assert auto.matrix.stack_alphabet == sys.variables
    assert auto.state_names[-1] == "f"
    # the sink has no outgoing weight in any block
    f = 5
    blocks = [auto.matrix.m_eps_eps]
    blocks += list(auto.matrix.m_eps_push.values())
    blocks += [transpose(columns) for columns in auto.matrix.pop_columns.values()]
    for b in blocks:
        assert f not in b
    # neutral block rows read off the single-variable monomials
    t, s = sys.variables.index("T"), sys.variables.index("S")
    q, r = sys.variables.index("Q"), sys.variables.index("R")
    assert entry_letters(auto.matrix.m_eps_eps, t, q) == {"a": 0}
    assert entry_letters(auto.matrix.m_eps_eps, s, r) == {"a": 1}
    assert entry_letters(auto.matrix.m_eps_eps, q, f) == {"b": 0}
    assert entry_letters(auto.matrix.m_eps_eps, r, f) == {"b": 0}


def test_induced_finite_sink_name_differs_from_every_variable():
    # variables f and f' would share the sink's name, and the automaton JSON
    # would then name one state twice
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a", "b"), ("f", "f'"), (poly(b, "a f' | a"), poly(b, "b")))
    auto = induced_finite_pda(sys, 0)
    assert auto.state_names == ("f", "f'", "f''")
    again = pda_from_json(pda_to_json(auto))
    assert [behavior_finite(again, w).value for w in [("a",), ("a", "b"), ("b",)]] == [1, 1, 0]


def test_induced_finite_single_rule():
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a",), ("x1",), (poly(b, "a"),))
    auto = induced_finite_pda(sys, 0)
    assert len(auto.state_names) == 2
    assert behavior_finite(auto, ("a",)).value == 1
    assert behavior_finite(auto, ()).value == 0
    assert behavior_finite(auto, ("a", "a")).value == 0


def test_induced_finite_rejects_epsilon():
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a",), ("x1",), (poly(b, "a | eps"),))
    with pytest.raises(EpsilonCoefficient) as info:
        induced_finite_pda(sys, 0)
    assert info.value.coeff.value == 1


def test_induced_finite_dyck_matches_oracle():
    b = BOOLEAN
    sys = AlgebraicSystem(b, ("a", "b"), ("x1",), (poly(b, "a x1 x1 | b"),))
    auto = induced_finite_pda(sys, 0)
    for length in range(0, 7):
        for w in itertools.product("ab", repeat=length):
            assert behavior_finite(auto, w) == oracle_coeff_gnf(sys, 0, w), w


def max_block_weight(word: tuple[str, ...]) -> SemiringValue:
    """Arctic oracle: max n_i over a^{n1} b^{n1} ... blocks, zero off the language."""
    a = ARCTIC
    i, best = 0, None
    w = "".join(word)
    if not w:
        return a.zero
    while i < len(w):
        if w[i] != "a":
            return a.zero
        j = i
        while j < len(w) and w[j] == "a":
            j += 1
        k = j
        while k < len(w) and w[k] == "b":
            k += 1
        if (k - j) != (j - i):
            return a.zero
        best = max(best or 0, j - i)
        i = k
    return a.value(best)


def test_arctic_block_behavior():
    sys = arctic_block_system()
    auto = induced_finite_pda(sys, 1)
    words = ["ab", "aabb", "abab", "abaabb", "aaabbb", "ba", "aab", "abba", "b", "aabbb"]
    for w in words:
        word = tuple(w)
        assert behavior_finite(auto, word) == max_block_weight(word), w


def test_thm_behavior_equals_solution_on_random_systems():
    rng = random.Random(101)
    for _ in range(25):
        inst = rng.choice([BOOLEAN, TROPICAL])
        sys = random_gnf_system(rng, inst, n_vars=rng.randint(1, 3))
        sol = least_solution_finite(sys, 5)
        for m in range(len(sys.variables)):
            auto = induced_finite_pda(sys, m)
            for length in range(0, 6):
                for w in itertools.product(sys.terminals, repeat=length):
                    assert behavior_finite(auto, w) == sol[m].coeff(w)


# -- omega automaton fixture -----------------------------------------------------


def test_omega_automaton_worked_example():
    auto = tropical_omega_automaton()
    for n in range(0, 5):
        w = LassoWord(("a",) * n + ("b",) * n, ("c",))
        r = behavior_omega_lasso(auto, w)
        assert r.conclusive and r.value.value == n
    for u, v in [(("a",), ("a",)), (("a", "b"), ("a", "b", "a"))]:
        r = behavior_omega_lasso(auto, LassoWord(u, v))
        assert r.conclusive and r.value.value is INF
    # final weights are all zero, so every finite behavior is zero
    assert behavior_finite(auto, ("a", "b")).value is INF
    assert behavior_finite(auto, ()).value is INF


def test_omega_requires_buchi_count():
    auto = tropical_omega_automaton()
    plain = SimpleOmegaPDA(auto.matrix, auto.initial, auto.final, None, auto.state_names)
    with pytest.raises(IllFormedSystem):
        behavior_omega_lasso(plain, LassoWord((), ("c",)))


# -- the contrast construction -----------------------------------------------------


def contrast_auto(start=1, l=1):
    return induced_omega_pda(contrast_mixed_system(), start, l, finite=start)


def test_induced_omega_structure():
    auto = contrast_auto()
    assert auto.state_names == ("z:z1", "z:z2", "x:x1", "x:x2", "f")
    assert auto.buchi_count == 1
    m = auto.matrix
    assert entry_letters(m.m_eps_push["Z:z2"], 1, 2) == {"a": 1}
    assert entry_letters(transpose(m.pop_columns["Z:z2"]), 2, 1) == {"a": 1}
    assert entry_letters(m.m_eps_eps, 1, 0) == {"a": 1}
    assert entry_letters(m.m_eps_eps, 0, 0) == {"c": 1}
    # initial mass sits on both copies of the start component
    assert [v.value for v in auto.initial] == [0, 1, 0, 1, 0]


def test_induced_omega_requires_greibach_shape_and_not_as_many_x_as_z_variables():
    from staromega.fixtures import tropical_mixed_system

    with pytest.raises(IllFormedSystem, match="needs a mixed system in Greibach form"):
        induced_omega_pda(tropical_mixed_system(), 0, 1)
    # contrast_mixed.grm without x2: one x- and two z-variables, one state each
    sys = contrast_mixed_system()
    x1 = AlgebraicSystem(sys.x.instance, sys.x.terminals, ("x1",), sys.x.rhs[:1])
    auto = induced_omega_pda(MixedSystem(x1, sys.z_vars, sys.rho), 1, 1, finite=0)
    assert auto.state_names == ("z:z1", "z:z2", "x:x1", "f")
    assert [v.value for v in auto.initial] == [0, 1, 1, 0]
    # x1 = a | c x1 weighs c* a, and the omega behaviour is the paired one's
    assert behavior_finite(auto, ("c", "a")).value == 1
    assert behavior_finite(auto, ("a", "a")).value == 0
    for u, v in (("", "aa"), ("a", "c"), ("acaa", "c")):
        w = LassoWord(tuple(u), tuple(v))
        assert behavior_omega_lasso(auto, w) == behavior_omega_lasso(contrast_auto(), w)


def test_contrast_behavior_and_canonical_agreement():
    auto = contrast_auto()
    sys = contrast_mixed_system()
    import re

    for length in range(0, 9):
        for w in itertools.product("ac", repeat=length):
            want = 1 if re.fullmatch(r"(ac*a)+", "".join(w)) else 0
            assert behavior_finite(auto, w).value == want
    for (u, v) in [((), ("a", "a")), (("a",), ("c",)), (("a", "c", "a", "a"), ("c",)),
                   ((), ("c",)), (("a", "c", "a"), ("a", "c", "a"))]:
        w = LassoWord(u, v)
        got = behavior_omega_lasso(auto, w)
        want = canonical_omega_lasso(sys, 1, 1, w)
        assert got.conclusive and want.conclusive and got.value == want.value


def test_omega_from_x_states_and_sink_is_zero():
    auto = contrast_auto()
    for state in (2, 3, 4):
        for (u, v) in [((), ("c",)), (("a",), ("c",)), ((), ("a", "a"))]:
            r = omega_value_from(auto, LassoWord(u, v), state)
            assert r.conclusive and r.value.value == 0


def test_finite_from_z_states_is_zero():
    auto = contrast_auto()
    inst = auto.instance
    for z_state in (0, 1):
        shifted = SimpleOmegaPDA(
            auto.matrix,
            tuple(inst.one if q == z_state else inst.zero for q in range(5)),
            auto.final,
            auto.buchi_count,
            auto.state_names,
        )
        for length in range(0, 7):
            for w in itertools.product("ac", repeat=length):
                assert behavior_finite(shifted, w).value == 0


def test_one_step_unfolding_invariance():
    # the omega value from a state is the sum over its one-step successors
    auto = contrast_auto()
    inst = auto.instance
    for (u, v) in [(("a",), ("c",)), ((), ("a", "a")), (("a", "c", "a", "a"), ("c",))]:
        w = LassoWord(u, v)
        for state in range(5):
            direct = omega_value_from(auto, w, state)
            assert direct.conclusive
            acc = inst.zero
            for j, stack2, c in _successors(auto.matrix, state, (), letter(w, 0)):
                acc = acc + c * value_after_step(auto, shift(w, 1), j, stack2)
            assert acc == direct.value, (state, str(w))


def test_pop_path_equals_sink_acceptance():
    # reading w from an x-state into the sink equals the value of the runs
    # that keep to x-states and finally pop the z-return symbol
    auto = contrast_auto()
    sys = contrast_mixed_system()
    inst = auto.instance
    n = 2
    for k in range(n):
        base = SimpleOmegaPDA(
            auto.matrix,
            tuple(inst.one if q == n + k else inst.zero for q in range(5)),
            auto.final,
            auto.buchi_count,
            auto.state_names,
        )
        for j in range(n):
            for length in range(1, 7):
                for w in itertools.product("ac", repeat=length):
                    into_sink = behavior_finite(base, w)
                    via_pop = _x_run_value_to(auto, n, n + k, (f"Z:{sys.z_vars[j]}",), w, j)
                    assert into_sink == via_pop, (k, j, w)


def _x_run_value_to(auto, n, state, stack, word, target_state):
    """Run sum to (target, empty stack) with intermediate states among x-states."""
    from staromega.pda import _successors

    inst = auto.instance

    def go(pos, st, stk):
        if pos == len(word):
            return inst.one if (st == target_state and stk == ()) else inst.zero
        if pos > 0 and not n <= st < 2 * n:
            return inst.zero
        acc = inst.zero
        for j, stk2, c in _successors(auto.matrix, st, stk, word[pos]):
            acc = acc + c * go(pos + 1, j, stk2)
        return acc

    return go(0, state, stack)


# -- exact values where the capped search was inconclusive -------------------------


def test_growing_stack_acceptor_boundary():
    # a single repeated state pushing forever accepts a^omega without ever
    # repeating a configuration: a never-popped push is an edge of the run
    # graph, so the value is exact, the unit of each instance
    for inst in (BOOLEAN, TROPICAL):
        neutral = {}
        push_x = {0: {0: {"a": inst.one}}}
        m = ResetPDMatrix(inst, 1, ("a",), ("X",), neutral, {"X": push_x}, {})
        auto = SimpleOmegaPDA(m, (inst.one,), (inst.zero,), 1, ("0",))
        r = behavior_omega_lasso(auto, LassoWord((), ("a",)))
        assert r.conclusive and r.value == inst.one
        silent = SimpleOmegaPDA(m, (inst.one,), (inst.zero,), 0, ("0",))
        r0 = behavior_omega_lasso(silent, LassoWord((), ("a",)))
        assert r0.conclusive and r0.value.is_zero()


def test_exact_value_needs_no_height_cap():
    # a search capped at stack height 1 could not certify aabb:c
    auto = tropical_omega_automaton()
    w = LassoWord(("a", "a", "b", "b"), ("c",))
    assert reference_certificate_search(auto, w, initial_starts(auto), 1) == (TROPICAL.zero, False)
    r = behavior_omega_lasso(auto, w)
    assert r.conclusive and r.value.value == 2


def two_route_automaton():
    """Tropical automaton on :a with a costly and a cheap accepting loop.

    From state 0, reading a leads to state 1 at weight 5 or to state 2 at
    weight 1, and both loop on a at weight 0; every state repeats.  The
    value is 1, and a search that keeps only the first successor sees 5.
    """
    t = TROPICAL
    a = lambda weight: {"a": t.value(weight)}
    neutral = {0: {1: a(5), 2: a(1)}, 1: {1: a(0)}, 2: {2: a(0)}}
    m = ResetPDMatrix(t, 3, ("a",), ("X",), neutral, {}, {})
    return SimpleOmegaPDA(m, (t.one, t.zero, t.zero), (t.zero,) * 3, 3, ("0", "1", "2"))


def test_exact_value_keeps_the_cheaper_of_two_loops():
    auto = two_route_automaton()
    w = LassoWord((), ("a",))
    # a search that fits two nodes, the start and state 1, drops state 2
    cut = reference_certificate_search(auto, w, initial_starts(auto), 1, max_nodes=2)
    assert cut == (TROPICAL.value(5), False)
    for r in (behavior_omega_lasso(auto, w), omega_value_from(auto, w, 0)):
        assert r.conclusive and r.value.value == 1
    assert omega_value_from(auto, w, 1).value.value == 0


def test_normal_form_automaton_value_at_c_is_exact(tmp_path, capsys):
    from staromega.cli import main

    nf, auto_path = tmp_path / "nf.grm", tmp_path / "auto.json"
    assert main(["gnf", str(DATA / "tropical_mixed.grm"), "--out", str(nf)]) == 0
    assert main(["build-pda", str(nf), "--out", str(auto_path)]) == 0
    auto = pda_from_json(auto_path.read_text())
    w = LassoWord((), ("c",))
    r = behavior_omega_lasso(auto, w)
    assert r.conclusive and r.value.value == 0
    # the capped search's graph at :c has exactly five nodes
    height = reference_height(auto, w)
    assert reference_certificate_search(auto, w, initial_starts(auto), height, max_nodes=5) == (
        r.value,
        True,
    )


def test_json_round_trip_and_dot():
    for auto in (tropical_omega_automaton(), contrast_auto()):
        again = pda_from_json(pda_to_json(auto))
        assert again.state_names == auto.state_names
        assert again.matrix.m_eps_eps == auto.matrix.m_eps_eps
        assert again.matrix.m_eps_push == auto.matrix.m_eps_push
        assert again.matrix.pop_columns == auto.matrix.pop_columns
        assert again.initial == auto.initial and again.final == auto.final
        assert again.buchi_count == auto.buchi_count
        w = LassoWord(("a",), ("c",)) if "z:z1" in auto.state_names else LassoWord((), ("c",))
        assert behavior_omega_lasso(again, w).value == behavior_omega_lasso(auto, w).value
    dot = pda_to_dot(contrast_auto())
    assert "digraph" in dot and "vZ:z2" in dot and "^Z:z2" in dot


# sha256 of the `build-pda` JSON (--out) and DOT (--dot) output of every example
# flow: each grammar `build-pda` accepts as written, and (" gnf") the normal form
# `gnf --target omega` writes for it, recorded while every block was dense.  The
# dense blocks of "wide_pops.grm gnf" (then 943 states, 942 stack symbols)
# needed more than 1.5 GB; its digests were recorded with the same
# serialization over rows that read absent cells as empty.  The " gnf" flows
# were recorded again when the Lehmann sweep changed the normal form's text,
# when pairs were built only from what their designated components reach,
# when the summands came to share one normal form, and when the finite part
# came to travel in the decomposition (so the source's x-variables are
# normalized once), each after its normal form's and automaton's lasso and
# word values equalled the grammar's; the last two times moved all four of
# each " gnf" flow's digests, "json_row_major" and "dot_expanded" included,
# since the automaton itself changed.
# "counting_finite.grm" was recorded again when `build-pda` took the Buchi
# count `eval` uses (min(1, m) without @buchi), after its lasso values were
# checked against the grammar's.  When pops became one group per shared column,
# "json" was recorded again after each flow's row-major file loaded to the
# same matrix as its grouped one; "json_row_major" keeps the earlier digest,
# which the grouped file written back in the row-major form still matches.
# When shared pop columns were drawn once, "dot" was recorded again after each
# flow's drawing, its hubs expanded, gave the lines of the drawing with one
# edge per pop; "dot_expanded" keeps the earlier digest, which that drawing
# (`reference_dot`) still matches.
PDA_GOLDEN = json.loads(Path(__file__).with_name("pda_golden.json").read_text())


def row_major_text(text):
    """Automaton JSON with its pop groups written as the row-major blocks
    {symbol: [[src, dst, letter, weight], ...]} of earlier files."""
    doc = json.loads(text)
    order = {name: i for i, name in enumerate(doc["states"])}
    pop = {}
    for group in doc["pop"]:
        for sym, dst in group["to"].items():
            pop.setdefault(sym, []).extend([src, dst, a, w] for src, a, w in group["from"])
    for entries in pop.values():
        entries.sort(key=lambda e: (order[e[0]], order[e[1]], e[2]))
    doc["pop"] = dict(sorted(pop.items()))
    return json.dumps(doc, indent=2)


def reference_dot(a):
    """The DOT drawing with one edge per pop, (symbol, source, target,
    letter), as `pda_to_dot` wrote it before shared columns became hubs."""
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
    for sym in sorted(m.pop_columns):
        emit(transpose(m.pop_columns[sym]), lambda letter, s=sym: f"{letter} ^{s}")
    lines.append("}")
    return "\n".join(lines)


DOT_EDGE = re.compile(r'  "(.*)" -> "(.*)" \[label="(.*)"\];')


def expand_hubs(dot):
    """The lines of a DOT drawing with every hub replaced by its in-edges
    times its out-edges: an edge src -> hub on "letter[:weight]" and an edge
    hub -> dst on "^symbol" give src -> dst on "letter ^symbol[:weight]"."""
    lines = dot.splitlines()
    hubs = {line.split('"')[1] for line in lines if "[shape=point" in line}
    ins, outs, rest = {}, {}, []
    for line in lines:
        edge = DOT_EDGE.fullmatch(line)
        if edge and edge[2] in hubs:
            ins.setdefault(edge[2], []).append((edge[1], edge[3]))
        elif edge and edge[1] in hubs:
            outs.setdefault(edge[1], []).append((edge[2], edge[3]))
        elif "[shape=point" not in line:
            rest.append(line)
    for hub in hubs:
        for src, label in ins[hub]:
            letter, sep, weight = label.partition(":")
            for dst, up in outs[hub]:
                rest.append(f'  "{src}" -> "{dst}" [label="{letter} {up}{sep}{weight}"];')
    return rest


def assert_same_automaton(got, want):
    assert got.matrix == want.matrix
    assert (got.initial, got.final) == (want.initial, want.final)
    assert (got.state_names, got.buchi_count) == (want.state_names, want.buchi_count)


def assert_pops_stored_once(m):
    """An induced automaton's pops take (final rows + stack symbols) entries:
    those of every distinct column, and one per (symbol, target)."""
    columns = {id(c): c for cols in m.pop_columns.values() for c in cols.values()}
    stored = sum(map(len, columns.values())) + sum(map(len, m.pop_columns.values()))
    sink = m.n_states - 1
    final_rows = sum(sink in row for row in m.m_eps_eps.values())
    assert stored <= final_rows + len(m.stack_alphabet)
    # the row-major blocks held final_rows cells for every stack symbol
    cells = sum(len(row) for cols in m.pop_columns.values() for row in transpose(cols).values())
    assert cells == final_rows * len(m.stack_alphabet)


@pytest.mark.parametrize("flow", sorted(PDA_GOLDEN))
def test_build_pda_output_matches_golden_digests(flow, tmp_path):
    from staromega.cli import main

    name, *via_gnf = flow.split()
    path = DATA / name if (DATA / name).exists() else TEST_DATA / name
    if via_gnf:
        nf = tmp_path / "nf.grm"
        assert main(["gnf", str(path), "--target", "omega", "--out", str(nf)]) == 0
        path = nf
    out, dot = tmp_path / "auto.json", tmp_path / "auto.dot"
    assert main(["build-pda", str(path), "--out", str(out), "--dot", str(dot)]) == 0
    text = out.read_text()
    old = row_major_text(text)
    got = {f: hashlib.sha256(p.read_bytes()).hexdigest() for f, p in (("json", out), ("dot", dot))}
    got["json_row_major"] = hashlib.sha256(old.encode()).hexdigest()
    auto = pda_from_json(text)
    expanded = reference_dot(auto)
    got["dot_expanded"] = hashlib.sha256(expanded.encode()).hexdigest()
    assert got == PDA_GOLDEN[flow]
    assert_same_automaton(pda_from_json(old), auto)
    assert sorted(expand_hubs(dot.read_text())) == sorted(expanded.splitlines())


def test_row_major_file_loads_to_the_grouped_files_automaton(tmp_path):
    # expanded_pops.json is the row-major `build-pda` output for
    # contrast_mixed_nf.grm, the normal form `gnf` wrote for contrast_mixed.grm
    # before pops were grouped and before pairs were built from what their
    # designated components reach
    from staromega.cli import main

    out = tmp_path / "auto.json"
    assert main(["build-pda", str(TEST_DATA / "contrast_mixed_nf.grm"), "--out", str(out)]) == 0
    old_text = (TEST_DATA / "expanded_pops.json").read_text()
    assert isinstance(json.loads(old_text)["pop"], dict)
    old, new = pda_from_json(old_text), pda_from_json(out.read_text())
    assert_same_automaton(old, new)
    # equal columns are shared as the row-major blocks load
    assert_pops_stored_once(old.matrix)
    for u, v in (("", "a"), ("a", "c"), ("aaa", "c"), ("acaa", "c"), ("ac", "ac")):
        w = LassoWord(tuple(u), tuple(v))
        assert behavior_omega_lasso(old, w) == behavior_omega_lasso(new, w)


def test_wide_automaton_stores_each_pop_column_once(tmp_path):
    # wide_pops_nf.grm is the normal form `gnf` wrote for wide_pops.grm
    # before pairs were built from what their designated components reach:
    # 208 variables, where the current one has 29
    from staromega.cli import _selection, main, parse_grammar

    nf, out = TEST_DATA / "wide_pops_nf.grm", tmp_path / "wide.json"
    assert main(["build-pda", str(nf), "--out", str(out)]) == 0
    mixed, _x, z, k = _selection(parse_grammar(nf.read_text()))
    assert_pops_stored_once(induced_omega_pda(mixed, z, k).matrix)
    assert_pops_stored_once(pda_from_json(out.read_text()).matrix)
    assert out.stat().st_size < 400_000


# -- the exact engine against the capped certificate search it replaced -------------


def reference_height(a, w):
    """The stack height the capped search used by default."""
    states, symbols = a.matrix.n_states, max(1, len(a.matrix.stack_alphabet))
    return len(w.prefix) + len(w.period) * (2 * states * symbols * len(w.period) + 4)


def initial_starts(a):
    return {(q, ()): c for q, c in enumerate(a.initial) if not c.is_zero()}


def reference_certificate_search(a, w, starts, height, max_nodes=200000):
    """Reference: the automaton route's capped certificate search, before the
    exact engine.

    It walks the configurations (state, whole stack, position) from the
    weighted (state, stack) starts, last in first out, dropping those above
    `height` and those past `max_nodes`, and sums the accepting lassos of
    the graph it built.  Returns (value, complete): complete when nothing was
    dropped, so the graph holds every run and the value is exact.  Otherwise
    the value sums a subset of the runs: runs that push forever are never in
    it, so it may lie below the exact value even when it is nonzero.
    """
    inst, m = a.instance, a.matrix
    pa = PositionAutomaton.of(w)
    sources = {(q, tuple(stack), pa.state_of(0)): c for (q, stack), c in starts.items()}
    edges = {}
    frontier = list(sources)
    seen = set(frontier)
    complete = True
    while frontier:
        node = frontier.pop()
        state, stack, s = node
        outs = []
        for j, stack2, c in _successors(m, state, stack, pa.letter(s)):
            if len(stack2) > height:
                complete = False
                continue
            succ = (j, stack2, pa.advance(s))
            outs.append(HitEdge(succ, c, False))
            if succ not in seen:
                if len(seen) < max_nodes:
                    seen.add(succ)
                    frontier.append(succ)
                else:
                    complete = False
        edges[node] = outs
    l = a.buchi_count
    value = lasso_value(
        inst,
        edges,
        sources,
        is_anchor=lambda node: node[2] >= pa.prefix_len,
        is_buchi=lambda node: node[0] < l,
    )
    return value, complete


def random_weighted_automaton(rng, inst):
    """1-3 states over a, b with stack symbols X, Y; weights 0-2, plus inf in
    arctic, 1-3 in counting, and the unit in Boolean."""
    n = rng.randint(1, 3)
    if inst is COUNTING:
        weights = [1, 1, 2, 3]
    else:
        weights = [1] if inst is BOOLEAN else [0, 0, 1, 2] + ([INF] if inst is ARCTIC else [])

    def block():
        rows = {}
        for _ in range(rng.randint(0, 2 * n)):
            cell = rows.setdefault(rng.randrange(n), {}).setdefault(rng.randrange(n), {})
            cell[rng.choice("ab")] = inst.value(rng.choice(weights))
        return rows

    pushes = {"X": block(), "Y": block()}
    pops = {"X": transpose(block()), "Y": transpose(block())}
    m = ResetPDMatrix(inst, n, ("a", "b"), ("X", "Y"), block(), pushes, pops)
    names = tuple(map(str, range(n)))
    return SimpleOmegaPDA(m, (inst.one,) * n, (inst.zero,) * n, rng.randint(0, n), names)


def random_weighted_cases(label, count, instances=(TROPICAL, ARCTIC, COUNTING)):
    """Seeded (automaton, lasso word, start state), cycling through the
    instances."""
    rng = random.Random(label)
    for i in range(count):
        auto = random_weighted_automaton(rng, instances[i % len(instances)])
        state = rng.randrange(auto.matrix.n_states)
        yield auto, random_lasso(rng), state


def test_exact_value_equals_the_complete_reference_search_on_random_automata():
    # the reference sums paths over idempotent instances only, so counting
    # is left to the unfolding test below
    compared = nonzero = 0
    for auto, w, state in random_weighted_cases("exact/reference", 400, (TROPICAL, ARCTIC)):
        got = omega_value_from(auto, w, state)
        assert got.conclusive
        # height 6 keeps the reference small; a search that dropped nothing
        # holds every run, and one that dropped some sums only some of them
        starts = {(state, ()): auto.instance.one}
        ref, complete = reference_certificate_search(auto, w, starts, 6)
        case = (auto.instance.name, str(w), state)
        if complete:
            assert got.value == ref, case
            compared += 1
            nonzero += not ref.is_zero()
        else:
            assert ref + got.value == got.value, case
    assert compared >= 100 and nonzero >= 10, (compared, nonzero)


def test_exact_value_equals_the_run_analysis_reference_on_random_automata():
    # the post* saturation and read-off that the route ran on before the
    # triple grammar, from one state and from the whole initial vector;
    # over counting too, which no path-summing reference covers
    compared = nonzero = 0
    rng = random.Random("exact/run-analysis")
    for i in range(1000):
        auto = random_weighted_automaton(rng, (BOOLEAN, TROPICAL, ARCTIC, COUNTING)[i % 4])
        w = random_lasso(rng)
        state = rng.randrange(auto.matrix.n_states)
        case = (auto.instance.name, str(w), state)
        for got, starts in (
            (omega_value_from(auto, w, state), {(state, ()): auto.instance.one}),
            (behavior_omega_lasso(auto, w), initial_starts(auto)),
        ):
            assert got.value == reference_omega_value(auto, w, starts), case
            compared += 1
            nonzero += not got.value.is_zero()
    assert nonzero >= 0.3 * compared, (nonzero, compared)


def test_one_step_unfolding_on_random_automata():
    # the value from a state is the sum over its one-step successors
    counting = 0
    for auto, w, state in random_weighted_cases("exact/unfolding", 300):
        direct = omega_value_from(auto, w, state).value
        acc = auto.instance.zero
        for j, stack2, c in _successors(auto.matrix, state, (), letter(w, 0)):
            acc = acc + c * value_after_step(auto, shift(w, 1), j, stack2)
        assert acc == direct, (auto.instance.name, str(w), state)
        counting += auto.instance is COUNTING and not direct.is_zero()
    assert counting >= 10, counting


def test_solver_arctic_pump_is_inf():
    # i0 = 1 | 1 * i0 grows by one every round; i1 = i0 * i0 depends on it
    value = solve_derivations(ARCTIC, [[(1, None, None), (1, 0, None)], [(None, 0, 0)]])
    assert value == [INF, INF]
    # a zero-gain loop is no pump: i0 = 1 | i0, i1 = 0 | i1 * i0
    zero_gain = [[(1, None, None), (None, 0, None)], [(ARCTIC.one_raw(), None, None), (None, 1, 0)]]
    value = solve_derivations(ARCTIC, zero_gain)
    assert value == [1, INF]


def test_solver_counting_repeated_item_is_inf():
    # i0 = 1 | i0: every tree is a chain of i0, one per height, each weighing
    # 1, so i0 and i1 = i0 * i0 are inf; i2 = 2 | i1 uses them
    value = solve_derivations(COUNTING, [
        [(1, None, None), (None, 0, None)],
        [(None, 0, 0)],
        [(2, None, None), (None, 1, None)],
    ])
    assert value == [INF, INF, INF]
    # a weighted loop of two items, i0 = 1 | 3 * i1, i1 = 2 * i0
    value = solve_derivations(COUNTING, [[(1, None, None), (3, 1, None)], [(2, 0, None)]])
    assert value == [INF, INF]
    # a cycle of 300 items, i = 2 | next * next: Kleene rounds would square
    # numbers 300 times over, to 2^300 digits
    n = 300
    cycle = [[(2, None, None), (None, (i + 1) % n, (i + 1) % n)] for i in range(n)]
    assert all(v is INF for v in solve_derivations(COUNTING, cycle))


def test_solver_counting_sums_every_tree_without_repetition():
    # i0 = 1 | 2, i1 = i0 * i0 | 3 * i0, i2 = i1 | i1 * i0: finitely many
    # trees, so the values are their sums, 3, 18 and 72
    value = solve_derivations(COUNTING, [
        [(1, None, None), (2, None, None)],
        [(None, 0, 0), (3, 0, None)],
        [(None, 1, None), (None, 1, 0)],
    ])
    assert value == [3, 18, 72]


def test_solver_tropical_chain_gives_its_minimum():
    # i0 = 3 | 1 * i1, i1 = 1 | i2, i2 = 0 | 2 * i0: a chain of cycles
    rules = [
        [(3, None, None), (1, 1, None)],
        [(1, None, None), (None, 2, None)],
        [(0, None, None), (2, 0, None)],
    ]
    assert solve_derivations(TROPICAL, rules) == [1, 0, 0]


def test_deep_push_decomposition_agrees_on_all_routes():
    # a two-term lasso corpus decomposition whose capped search ran past 20 s
    # at :a b, diving down one push chain with whole stacks as node keys
    from staromega.gnf import (
        DecompositionTerm,
        OmegaDecomposition,
        char_to_mixed,
        normalize_decomposition,
        pipeline_from_decomposition,
    )
    from staromega.system import induce_mixed

    def system(*rhs):
        names = tuple(f"x{i}" for i in range(len(rhs)))
        return AlgebraicSystem(TROPICAL, ("a", "b"), names, tuple(poly(TROPICAL, p) for p in rhs))

    terms = (
        DecompositionTerm(
            system("(1) eps | x1", "(1) a | b | (1) x0 x1"), 0,
            system("(1) b | (1) a x0", "(1) eps | (2) x0 | a a"), 0,
        ),
        DecompositionTerm(system("eps | a | (2) a a"), 0, system("(2) eps", "eps | (2) b a"), 0),
    )
    norm = normalize_decomposition(OmegaDecomposition(TROPICAL, ("a", "b"), terms))
    direct, direct_sel = char_to_mixed(norm)
    _, mixed, sel, omega_sys, omega_sel, _ = pipeline_from_decomposition(norm)
    unmixed = induce_mixed(omega_sys)
    auto = induced_omega_pda(unmixed, omega_sel.component, omega_sel.buchi_count)
    for w, want in ((LassoWord((), ("a", "b")), INF), (LassoWord(("b",), ("b",)), 1)):
        routes = [
            canonical_omega_lasso(direct, direct_sel.buchi_count, direct_sel.component, w),
            canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w),
            canonical_omega_lasso(unmixed, omega_sel.buchi_count, omega_sel.component, w),
            behavior_omega_lasso(auto, w),
        ]
        assert [(r.status, r.value.value) for r in routes] == [("ok", want)] * 4, str(w)


# -- route agreement on random decompositions -----------------------------------------


def random_greibach_system(rng, inst):
    """A Greibach system of 1-2 variables over a, b with raw weights 0..2."""
    names = tuple(f"x{i}" for i in range(rng.randint(1, 2)))
    weights = [1] if inst is BOOLEAN else [0, 0, 1, 2]
    rhs = []
    for _ in names:
        terms = [
            (
                inst.value(rng.choice(weights)),
                (rng.choice("ab"),) + tuple(rng.choice(names) for _ in range(rng.randint(0, 2))),
            )
            for _ in range(rng.randint(1, 3))
        ]
        rhs.append(Polynomial.build(inst, terms))
    return AlgebraicSystem(inst, ("a", "b"), names, tuple(rhs))


def random_decomposition(rng, inst):
    """1-2 summands s t^omega, plus lasso words u v^omega whose u is a word
    of some s and v one of its t, and one lasso word of random letters."""
    from staromega.gnf import DecompositionTerm, OmegaDecomposition

    terms, lassos = [], []
    for _ in range(rng.randint(1, 2)):
        t, s = random_greibach_system(rng, inst), random_greibach_system(rng, inst)
        terms.append(DecompositionTerm(t, 0, s, 0))
        by_length = lambda w: (len(w), w)
        periods = sorted(least_solution_finite(t, 3)[0].coeffs, key=by_length)
        prefixes = sorted(least_solution_finite(s, 2)[0].coeffs, key=by_length)
        if periods and prefixes:
            lassos.append(LassoWord(rng.choice(prefixes), rng.choice(periods)))
    lassos.append(random_lasso(rng))
    return OmegaDecomposition(inst, ("a", "b"), tuple(terms)), lassos


def random_lasso(rng):
    prefix = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
    return LassoWord(prefix, tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))))


def assert_z_steps_match(ra, w):
    """The reference ra ran from the initial vector of its automaton.  At
    every node that the engine's value graph demanded, its z-steps are the
    reference's level edges plus its pushes, summed per (target, bit): the
    runs that stay at or above the empty stack."""
    edges, sources = _value_graph(ra.a, w)
    demanded = set(sources) | {e[0] for outs in edges.values() for e in outs}
    for node in demanded:
        want = {}
        for q, t, c, bit in ra.level_w.get(node, []) + ra.push_w.get(node, []):
            key = ((q, t), bit)
            want[key] = want[key] + c if key in want else c
        got = {(target, bit): c for target, c, bit, _letter in edges.get(node, ())}
        assert got == {key: c.value for key, c in want.items()}, node


def test_worklist_summaries_equal_round_robin_on_random_automata():
    # induced automata never pop from a repeated state, so random ones also
    # exercise hits inside pop summaries
    rng = random.Random("worklist")
    b = BOOLEAN
    for _ in range(150):
        n = rng.randint(1, 4)

        def block():
            rows = {}
            for _ in range(rng.randint(0, 2 * n)):
                row = rows.setdefault(rng.randrange(n), {})
                row.setdefault(rng.randrange(n), {})[rng.choice("ab")] = b.one
            return rows

        pushes = {"X": block(), "Y": block()}
        pops = {"X": transpose(block()), "Y": transpose(block())}
        m = ResetPDMatrix(b, n, ("a", "b"), ("X", "Y"), block(), pushes, pops)
        names = tuple(map(str, range(n)))
        auto = SimpleOmegaPDA(m, (b.one,) * n, (b.zero,) * n, rng.randint(0, n), names)
        w = random_lasso(rng)
        ra = RunAnalysis(auto, w, initial_starts(auto))
        assert_summaries_match(ra, round_robin_summaries(ra))
        assert_z_steps_match(ra, w)


def test_demanded_summaries_equal_the_full_saturation_on_random_automata():
    # pop facts built on demand leave every level edge and its weight as the
    # saturation of every pop fact gave them
    rng = random.Random("demand/full-saturation")
    pop_facts = 0
    for i in range(300):
        auto = random_weighted_automaton(rng, (BOOLEAN, TROPICAL, ARCTIC, COUNTING)[i % 4])
        w = random_lasso(rng)
        ra = RunAnalysis(auto, w, initial_starts(auto))
        level_w, pop_sum, level1, raw_push = reference_saturate(ra)
        case = (auto.instance.name, str(w))
        assert sorted_level_w(ra.level_w) == sorted_level_w(at_reached(ra, level_w)), case
        assert_summaries_match(ra, (pop_sum, level1, raw_push))
        assert_z_steps_match(ra, w)
        pop_facts += len(pop_sum_of(ra))
    assert pop_facts >= 300, pop_facts


def test_reached_nodes_are_the_closure_of_the_starts_on_random_automata():
    # a node's steps are read only once a run enters it: the reached nodes are
    # the start nodes closed under the full saturation's level edges, the
    # pushes and the start stacks' pops, and their level edges weigh the same
    rng = random.Random("reached/closure")
    unreached = 0
    for i in range(300):
        auto = random_weighted_automaton(rng, (BOOLEAN, TROPICAL, ARCTIC, COUNTING)[i % 4])
        state = rng.randrange(auto.matrix.n_states)
        auto = from_state(auto, state)
        starts = initial_starts(auto)
        w = random_lasso(rng)
        ra = RunAnalysis(auto, w, starts)
        level_w, _pop_sum, level1, raw_push = reference_saturate(ra)
        case = (auto.instance.name, str(w), state)
        assert ra.reached == reached_closure(ra, starts, level1, raw_push), case
        assert sorted_level_w(ra.level_w) == sorted_level_w(at_reached(ra, level_w)), case
        assert_z_steps_match(ra, w)
        unreached += auto.matrix.n_states * ra.pa.size - len(ra.reached)
    assert unreached >= 100, unreached


def test_push_read_after_a_fact_at_its_target_joins_that_fact():
    # on a^omega, 0 pushes X into 1, and 1 pops X into 2, which pushes X into
    # 1 again.  State 2 is reached only by the pop fact at (1, X), so its push
    # is read after that fact was taken, and must still be joined with it:
    # the level edge 2 -> 2 carries the only accepting run
    b = BOOLEAN
    a = {"a": b.one}
    push = {0: {1: a}, 2: {1: a}}
    pop = {1: {2: a}}
    m = ResetPDMatrix(b, 3, ("a",), ("X",), {}, {"X": push}, {"X": transpose(pop)})
    auto = SimpleOmegaPDA(m, (b.one, b.zero, b.zero), (b.zero,) * 3, 3, ("0", "1", "2"))
    w = LassoWord((), ("a",))
    ra = RunAnalysis(auto, w, initial_starts(auto))
    assert ra.reached == {(0, 0), (1, 0), (2, 0)}
    assert level1_of(ra) == {(0, 0): {(2, 0, True)}, (2, 0): {(2, 0, True)}}
    assert_z_steps_match(ra, w)
    assert behavior_omega_lasso(auto, w).value == b.one


@pytest.mark.parametrize("inst", [BOOLEAN, TROPICAL, ARCTIC, COUNTING], ids=lambda i: i.name)
def test_automaton_route_agrees_with_mixed_normal_form(inst):
    # and with the direct system and the folded one: four routes, one value,
    # zero or not, and over counting finite or not
    from staromega.gnf import char_to_mixed, pipeline_from_decomposition
    from staromega.system import induce_mixed

    rng = random.Random(f"automaton-route/{inst.name}")
    seen = set()
    for _ in range(12):
        dec, lassos = random_decomposition(rng, inst)
        norm, mixed, sel, omega_sys, omega_sel, _ = pipeline_from_decomposition(dec)
        direct, direct_sel = char_to_mixed(norm)
        folded = induce_mixed(omega_sys)
        auto = induced_omega_pda(folded, omega_sel.component, omega_sel.buchi_count)
        for w in lassos:
            ra = RunAnalysis(auto, w, initial_starts(auto))
            assert_summaries_match(ra, round_robin_summaries(ra))
            assert_z_steps_match(ra, w)
            want = canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w)
            got = behavior_omega_lasso(auto, w)
            assert got.conclusive and want.conclusive, str(w)
            assert got.value == want.value, str(w)
            for other in (
                canonical_omega_lasso(direct, direct_sel.buchi_count, direct_sel.component, w),
                canonical_omega_lasso(folded, omega_sel.buchi_count, omega_sel.component, w),
            ):
                assert other.value == want.value, str(w)
            seen.add(got.value.value)
    assert len(seen) >= 2, seen
    if inst is COUNTING:
        assert INF in seen and seen - {0, INF}, seen


# -- the shared accepting-cycle check against the searches it replaced ------------


def reference_pda_run_exists(a, w):
    """Reference: the automaton route's emptiness analysis before the shared
    component check, from the initial vector.  It enumerates the reachable
    stack heads and runs a fresh reachability search per head: (a) an
    empty-stack repetition through a repeated state, or (b) a same-level or
    strictly stack-growing repetition at or above a reachable head."""
    starts = initial_starts(a)
    ra = RunAnalysis(a, w, starts)
    assert_z_steps_match(ra, w)
    level1, raw_push = level1_of(ra), raw_push_of(ra)
    pa = ra.pa
    push, pop = push_steps(ra), pop_steps(ra)
    s0 = pa.state_of(0)

    def bit_reach(edge_map, seeds, include_start=True):
        seen = set(seeds) if include_start else set()
        stack = list(seeds)
        while stack:
            node, bit = stack.pop()
            for (q, t, h) in edge_map.get(node, ()):
                fact = ((q, t), bit or h)
                if fact not in seen:
                    seen.add(fact)
                    stack.append(fact)
        return seen

    def level_reach(seeds):
        return bit_reach(level1, seeds)

    def has_level_cycle_with_hit(node):
        for (n2, bit) in bit_reach(level1, [(node, False)], include_start=False):
            if n2 == node and bit:
                return True
        return False

    def has_growing_cycle(node, sym):
        ru_edges = {}
        for key in set(level1) | set(raw_push):
            ru_edges[key] = set(level1.get(key, ())) | set(raw_push.get(key, ()))
        ru = bit_reach(ru_edges, [(node, False)])
        seeds = set()
        for ((p1, s1), b1) in ru:
            for (p, delta, q, _c) in push[s1]:
                if p == p1 and delta == sym:
                    seeds.add(((q, pa.advance(s1)), b1 or ra._hit(q)))
        if not seeds:
            return False
        for (n2, bit) in bit_reach(level1, list(seeds)):
            if n2 == node and bit:
                return True
        return False

    empty_points = set()
    head_seeds = set()
    for (state, stack) in starts:
        layer = {(state, s0)}
        for sym in stack:
            region = {n2 for (n2, _b) in level_reach([(n, False) for n in layer])}
            for n in region:
                head_seeds.add((n, sym))
            nxt = set()
            for (p, s) in region:
                for (pp, psym, q, _c) in pop[s]:
                    if pp == p and psym == sym:
                        nxt.add((q, pa.advance(s)))
            layer = nxt
            if not layer:
                break
        else:
            empty_points |= layer
    closed_empty = {n2 for (n2, _b) in level_reach([(n, False) for n in empty_points])}
    closed_empty |= empty_points
    for n in closed_empty:
        if has_level_cycle_with_hit(n):
            return True
    heads = set(head_seeds)
    frontier = list(head_seeds)
    for n in closed_empty:
        for (p, delta, q, _c) in push[n[1]]:
            if p == n[0]:
                fact = ((q, pa.advance(n[1])), delta)
                if fact not in heads:
                    heads.add(fact)
                    frontier.append(fact)
    while frontier:
        (node, sym) = frontier.pop()
        for (n2, _b) in level_reach([(node, False)]):
            for (p, delta, q, _c) in push[n2[1]]:
                if p == n2[0]:
                    fact = ((q, pa.advance(n2[1])), delta)
                    if fact not in heads:
                        heads.add(fact)
                        frontier.append(fact)
    checked_level = set()
    for (node, sym) in heads:
        for (n2, _b) in level_reach([(node, False)]):
            if n2 not in checked_level:
                checked_level.add(n2)
                if has_level_cycle_with_hit(n2):
                    return True
            if has_growing_cycle(n2, sym):
                return True
    return False


def reference_accepting_support_run_exists(sys, k, component, pa, gen):
    """Reference: the grammar route's emptiness analysis before the shared
    component check, with its own component pass over the z-graph."""
    from grammar_lasso_reference import reference_chain_states

    from staromega._search import _sccs

    variables = set(sys.x.variables)
    edges = {}
    for j in range(sys.m):
        for s in range(pa.size):
            outs = []
            for j2, p in sys.rho[j].items():
                for (s2, bit) in reference_chain_states(p, s, pa, gen, variables):
                    outs.append(((j2, s2), bit))
            edges[(j, s)] = outs
    start = (component, pa.state_of(0))
    seen = {start}
    stack = [start]
    while stack:
        n = stack.pop()
        for (tgt, _bit) in edges.get(n, ()):
            if tgt not in seen:
                seen.add(tgt)
                stack.append(tgt)
    plain = {n: [(tgt, None) for tgt, _b in edges.get(n, ())] for n in seen}
    comps = _sccs(sorted(seen), plain)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for n in comp:
            comp_of[n] = ci
    has_buchi = [False] * len(comps)
    has_letter = [False] * len(comps)
    for n in seen:
        j, _s = n
        if j < k:
            has_buchi[comp_of[n]] = True
        for (tgt, bit) in edges.get(n, ()):
            if tgt in seen and comp_of[tgt] == comp_of[n] and bit:
                has_letter[comp_of[n]] = True
    return any(b and l for b, l in zip(has_buchi, has_letter))


def test_run_check_agrees_with_per_head_searches_on_random_automata():
    rng = random.Random("accepting-cycle/automata")
    b = BOOLEAN
    accepting = 0
    cases = 1000
    for _ in range(cases):
        n = rng.randint(1, 5)

        def block():
            rows = {}
            for _ in range(rng.randint(0, 2 * n)):
                row = rows.setdefault(rng.randrange(n), {})
                row.setdefault(rng.randrange(n), {})[rng.choice("ab")] = b.one
            return rows

        pushes = {"X": block(), "Y": block()}
        pops = {"X": transpose(block()), "Y": transpose(block())}
        m = ResetPDMatrix(b, n, ("a", "b"), ("X", "Y"), block(), pushes, pops)
        names = tuple(map(str, range(n)))
        auto = SimpleOmegaPDA(m, (b.one,) * n, (b.zero,) * n, rng.randint(0, n), names)
        w = random_lasso(rng)
        state = rng.randrange(n)
        auto = from_state(auto, state)
        want = reference_pda_run_exists(auto, w)
        got = behavior_omega_lasso(auto, w)
        assert got.conclusive and got.value.value == int(want), (str(w), state)
        accepting += want
    assert accepting >= cases // 10


def test_support_check_agrees_with_component_pass_on_random_mixed_systems():
    from grammar_lasso_reference import reference_support_triples

    from staromega._search import PositionAutomaton
    from staromega.system import MixedSystem, sparse_row

    rng = random.Random("accepting-cycle/systems")
    b = BOOLEAN
    accepting = 0
    cases = 1000
    for _ in range(cases):
        x_vars = tuple(f"x{i}" for i in range(rng.randint(1, 2)))
        factors = [(), ("a",), ("b",)] + [(x,) for x in x_vars] + [("a",) + (x,) for x in x_vars]

        def terms(count):
            return [(b.one, rng.choice(factors) + rng.choice(factors)) for _ in range(count)]

        x_rhs = tuple(Polynomial.build(b, terms(rng.randint(2, 4))) for _ in x_vars)
        m = rng.randint(1, 3)
        rho = []
        for _ in range(m):
            cells = {}
            for _ in range(rng.randint(1, 4)):
                cells.setdefault(rng.randrange(m), []).extend(terms(1))
            rho.append(sparse_row(b, cells))
        z_vars = tuple(f"z{j}" for j in range(m))
        sys = MixedSystem(AlgebraicSystem(b, ("a", "b"), x_vars, x_rhs), z_vars, tuple(rho))
        k, component, w = rng.randint(0, m), rng.randrange(m), random_lasso(rng)
        pa = PositionAutomaton.of(w)
        want = reference_accepting_support_run_exists(
            sys, k, component, pa, reference_support_triples(sys.x, pa)
        )
        got = canonical_omega_lasso(sys, k, component, w)
        assert got.conclusive and got.value.value == int(want), (str(w), k, component)
        accepting += want
    assert accepting >= cases // 10


# -- long chains evaluate without deep recursion ---------------------------------------


def test_long_chains_evaluate_under_the_default_recursion_limit():
    from staromega.system import MixedSystem, sparse_row

    t = TROPICAL
    # an automaton of 3,000 states: state 0 pushes X, a chain of neutral
    # steps leads to the last state, which pops X back to 0; demand for X
    # flows down the whole chain and the pop fact flows back up it
    n = 3000
    neutral = {i: {i + 1: {"a": t.one}} for i in range(1, n - 1)}
    push = {0: {1: {"a": t.one}}}
    pop = {n - 1: {0: {"a": t.one}}}
    m = ResetPDMatrix(t, n, ("a",), ("X",), neutral, {"X": push}, {"X": transpose(pop)})
    names = tuple(map(str, range(n)))
    auto = SimpleOmegaPDA(m, (t.one,) + (t.zero,) * (n - 1), (t.zero,) * n, 1, names)
    assert behavior_omega_lasso(auto, LassoWord(("a",), ("a",))).value == t.one

    # a Greibach chain of 600 x-variables, x_i = a x_{i+1} x_{i+1}, under z = a x_1 z
    x_vars = tuple(f"x{i}" for i in range(600))
    x_rhs = tuple(
        Polynomial.build(t, [(t.one, ("a",) + (x_vars[i + 1],) * 2 if i + 1 < 600 else ("a",))])
        for i in range(600)
    )
    rho = (sparse_row(t, {0: [(t.one, ("a", "x0"))]}),)
    sys = MixedSystem(AlgebraicSystem(t, ("a",), x_vars, x_rhs), ("z",), rho)
    assert canonical_omega_lasso(sys, 1, 0, LassoWord(("a",), ("a",))).value == t.one

    # a finite word of 3,000 letters, a^1500 b^1500, read by the automaton of
    # x = a x y | (2) a y, y = b one position at a time, with stacks up to
    # 1,500 symbols deep
    c = COUNTING
    fin = AlgebraicSystem(c, ("a", "b"), ("x", "y"), (poly(c, "a x y | (2) a y"), poly(c, "b")))
    word = ("a",) * 1500 + ("b",) * 1500
    assert behavior_finite(induced_finite_pda(fin, 0), word).value == 2

    # the same length on the grammar route: x1 = (1) a x1 | b derives
    # a^2999 b by one chain of 3,000 levels, past any cap on fixpoint rounds
    from staromega.system import SegmentTable

    chain = AlgebraicSystem(t, ("a", "b"), ("x1",), (poly(t, "(1) a x1 | b"),))
    word = ("a",) * 2999 + ("b",)
    assert SegmentTable(chain, word).coeff("x1", 0, len(word)).value == 2999
