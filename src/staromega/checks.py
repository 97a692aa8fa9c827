"""Self-check suites behind `staromega check`: laws, worked examples, oracles."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from importlib import resources
from random import Random

from .fixtures import (
    arctic_block_system,
    boolean_omega_system,
    contrast_mixed_system,
    pair_example_systems,
    tropical_mixed_system,
    tropical_omega_automaton,
)
from .gnf import DecompositionTerm, OmegaDecomposition, pipeline_from_decomposition
from .matrix import (
    SemiringMatrix,
    _add_identity,
    _star,
    mat_from_raw,
    mat_omega_t,
    mat_omega_t_alt,
    mat_omega_t_blocks,
    mat_star,
    mat_star_blocks,
    mat_vec_mul,
)
from .pda import behavior_finite, behavior_omega_lasso, induced_finite_pda, induced_omega_pda
from .semiring import BOOLEAN, INSTANCES, SemiringInstance, SemiringValue
from .series import LassoWord, Polynomial
from .system import (
    AlgebraicSystem,
    SegmentTable,
    canonical_omega_lasso,
    induce_mixed,
    least_solution_finite,
    oracle_coeff_gnf,
)


@dataclass
class SuiteResult:
    lines: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, info: str = ""):
        self.lines.append((name, ok, info))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.lines)


# -- identity suite -------------------------------------------------------------


def _scalar_laws(result: SuiteResult, rng: Random) -> None:
    for inst in INSTANCES.values():
        grid = [inst.value(v) for v in inst.grid()]
        bad = []
        for a in grid:
            if a.star() != inst.one + a * a.star():
                bad.append(("star-unfold", a))
            if a * a.omega() != a.omega():
                bad.append(("omega-fixed", a))
        for a in grid:
            for b in grid:
                if (a + b).star() != a.star() * (b * a.star()).star():
                    bad.append(("sum-star", a, b))
                if (a * b).star() != inst.one + a * (b * a).star() * b:
                    bad.append(("product-star", a, b))
                lhs = (a + b).omega()
                rhs = (a.star() * b).omega() + (a.star() * b).star() * a.omega()
                if lhs != rhs:
                    bad.append(("sum-omega", a, b))
                if (a * b).omega() != a * (b * a).omega():
                    bad.append(("product-omega", a, b))
        result.add(f"scalar-identities[{inst.name}]", not bad, f"violations={len(bad)}")
        # the fused row kernel against add_raw / mul_raw, on every grid triple
        raw, zero = inst.grid(), inst.zero_raw()
        y = [a for a in raw for _ in raw]
        z = [b for _ in raw for b in raw]
        add, mul = inst.add_raw, inst.mul_raw
        bad_lefts = [
            left for left in raw
            if left != zero
            and inst.axpy_raw(y, left, z) != [add(a, mul(left, b)) for a, b in zip(y, z)]
        ]
        result.add(f"raw-kernels[{inst.name}]", not bad_lefts, f"violations={len(bad_lefts)}")
        # the absorbing top that the sweep's saturated-row skip relies on
        top = inst.top_raw()
        bad_tops = [v for v in raw if add(top, v) != top]
        result.add(f"top-absorbs[{inst.name}]", not bad_tops, f"violations={len(bad_tops)}")
        # the instance's Lehmann sweep against the plain cell-by-cell update,
        # swept matrix and pre-pivot columns, in both pivot orders: sparse
        # and dense grid draws, and small dense draws from two grid values,
        # whose rows fill up with one constant, so that a wrong top shows;
        # on the same draws, the star (the instance's `preclose_raw`, then
        # its sweep) against the plain sweep plus the identity
        draws = [(n, density, raw) for n in range(17) for density in (0.2, 0.6, 1.0)]
        draws += [(rng.randint(2, 5), 1.0, rng.sample(raw, 2)) for _ in range(400)]
        bad_sweeps = bad_stars = 0
        for n, density, values in draws:
            m = [[rng.choice(values) if rng.random() < density else zero for _ in range(n)]
                 for _ in range(n)]
            for order in (range(n), range(n - 1, -1, -1)):
                fast, plain = [list(row) for row in m], [list(row) for row in m]
                if (inst.sweep_raw(fast, order), fast) != (plain_sweep(inst, plain, order), plain):
                    bad_sweeps += 1
            plain = [list(row) for row in m]
            plain_sweep(inst, plain, range(n))
            if _star(inst, m) != _add_identity(inst, plain):
                bad_stars += 1
        result.add(f"raw-sweep[{inst.name}]", not bad_sweeps, f"violations={bad_sweeps}")
        result.add(f"raw-star[{inst.name}]", not bad_stars, f"violations={bad_stars}")


def plain_sweep(inst: SemiringInstance, a: list[list], order) -> list:
    """Lehmann's elimination cell by cell with `add_raw`, `mul_raw` and
    `star_raw` only: the reference for `sweep_raw`, same contract."""
    add, mul = inst.add_raw, inst.mul_raw
    cols: list = [None] * len(a)
    for k in order:
        row_k = tuple(a[k])
        col_k = cols[k] = tuple(row[k] for row in a)
        pivot = inst.star_raw(row_k[k])
        for i, x in enumerate(col_k):
            left = mul(x, pivot)
            a[i] = [add(y, mul(left, z)) for y, z in zip(a[i], row_k)]
    return cols


def _random_matrix(rng: Random, inst, n: int) -> SemiringMatrix:
    grid = inst.grid()
    return mat_from_raw(inst, [[rng.choice(grid) for _ in range(n)] for _ in range(n)])


def identity_suite(rng: Random) -> SuiteResult:
    result = SuiteResult()
    _scalar_laws(result, rng)
    star_bad = omega_bad = oracle_bad = fix_bad = 0
    for _ in range(200):
        inst = INSTANCES[rng.choice(sorted(INSTANCES))]
        n = rng.randint(1, 4)
        m = _random_matrix(rng, inst, n)
        s0 = mat_star(m)
        for n1 in range(n + 1):
            for variant in (1, 2):
                if mat_star_blocks(m, n1, variant).rows != s0.rows:
                    star_bad += 1
        for t in range(n + 1):
            v = mat_omega_t(m, t)
            if mat_omega_t_blocks(m, t).entries != v.entries:
                oracle_bad += 1
            for k in range(t, n + 1):
                if mat_omega_t_alt(m, t, k).entries != v.entries:
                    omega_bad += 1
            if mat_vec_mul(m, v).entries != v.entries:
                fix_bad += 1
    result.add("matrix-star-partition-independence", star_bad == 0, f"violations={star_bad}")
    result.add("matrix-omega-buchi-partition", omega_bad == 0, f"violations={omega_bad}")
    result.add("matrix-omega-block-oracle", oracle_bad == 0, f"violations={oracle_bad}")
    result.add("matrix-omega-fixed-point", fix_bad == 0, f"violations={fix_bad}")
    return result


# -- oracle suite ---------------------------------------------------------------


def random_gnf_system(rng: Random, inst, n_vars: int = 3) -> AlgebraicSystem:
    letters = ("a", "b")
    names = tuple(f"x{i}" for i in range(n_vars))
    coeffs = [1] if inst is BOOLEAN else [1, 2]
    rhs = []
    for _ in range(n_vars):
        terms = []
        for _ in range(rng.randint(1, 4)):
            a = rng.choice(letters)
            shape = rng.randint(0, 2)
            tail = tuple(rng.choice(names) for _ in range(shape))
            terms.append((inst.value(rng.choice(coeffs)), (a,) + tail))
        rhs.append(Polynomial.build(inst, terms))
    return AlgebraicSystem(inst, letters, names, tuple(rhs))


def oracle_suite(rng: Random) -> SuiteResult:
    """Every word up to length 6 on 100 seeded Greibach systems: the least
    solution, derivation oracle, automaton and `eval --word`'s table agree."""
    result = SuiteResult()
    cases, max_len = 100, 6
    mismatches = 0
    instances = list(INSTANCES.values())
    for case in range(cases):
        inst = instances[case % len(instances)]
        sys = random_gnf_system(rng, inst, n_vars=rng.randint(1, 3))
        sol = least_solution_finite(sys, max_len)
        automata = [induced_finite_pda(sys, m) for m in range(len(sys.variables))]
        for length in range(0, max_len + 1):
            for w in itertools.product(sys.terminals, repeat=length):
                table = SegmentTable(sys, w)
                for m, v in enumerate(sys.variables):
                    direct = sol[m].coeff(w)
                    oracle = oracle_coeff_gnf(sys, m, w)
                    machine = behavior_finite(automata[m], w)
                    segments = table.coeff(v, 0, length)
                    if not (direct == oracle == machine == segments):
                        mismatches += 1
    result.add(
        "least-solution=derivation-oracle=automaton=segment-table",
        mismatches == 0,
        f"violations={mismatches} cases={cases}",
    )
    return result


# -- examples suite ---------------------------------------------------------------


def _fmt(v: SemiringValue) -> str:
    return repr(v.value)


def computed_example_values() -> dict:
    out: dict = {}

    msys = tropical_mixed_system()
    sol = least_solution_finite(msys.x, 12)
    finite = {}
    for n in range(1, 7):
        finite["a" * n + "b" * n] = _fmt(sol[0].coeff(("a",) * n + ("b",) * n))
    lasso = {}
    for n in range(0, 5):
        w = LassoWord(("a",) * n + ("b",) * n, ("c",))
        lasso[f"{'a'*n + 'b'*n}:c"] = _fmt(canonical_omega_lasso(msys, 1, 1, w).value)
    lasso[":c@z1"] = _fmt(canonical_omega_lasso(msys, 1, 0, LassoWord((), ("c",))).value)
    out["tropical-mixed"] = {"finite": finite, "lasso": lasso}

    osys = boolean_omega_system()
    mix = induce_mixed(osys)
    bsol = least_solution_finite(mix.x, 8)
    out["boolean-omega"] = {
        "finite-abab": _fmt(bsol[0].coeff(("a", "b", "a", "b"))),
        "finite-ab": _fmt(bsol[0].coeff(("a", "b"))),
        "lasso-:ab@k1": _fmt(canonical_omega_lasso(mix, 1, 0, LassoWord((), ("a", "b"))).value),
        "lasso-:a@k1": _fmt(canonical_omega_lasso(mix, 1, 1, LassoWord((), ("a",))).value),
        "lasso-:a@k2": _fmt(canonical_omega_lasso(mix, 2, 1, LassoWord((), ("a",))).value),
    }

    s_sys, t_sys = pair_example_systems()
    one_term = (DecompositionTerm(t_sys, 0, s_sys, 0),)
    d = OmegaDecomposition(t_sys.instance, t_sys.terminals, one_term)
    _, mixed, sel, _, _, _ = pipeline_from_decomposition(d)
    pair = {}
    for n in (1, 2, 3):
        w = LassoWord(("a",) * n + ("b",) * n, ("d", "d", "c"))
        pair[f"{'a'*n + 'b'*n}:ddc"] = _fmt(
            canonical_omega_lasso(mixed, sel.buchi_count, sel.component, w).value
        )
    pair["abddc:ddc"] = _fmt(
        canonical_omega_lasso(
            mixed, sel.buchi_count, sel.component,
            LassoWord(("a", "b", "d", "d", "c"), ("d", "d", "c")),
        ).value
    )
    pair[":dd"] = _fmt(
        canonical_omega_lasso(mixed, sel.buchi_count, sel.component, LassoWord((), ("d", "d"))).value
    )
    out["pair-construction"] = pair

    arc = arctic_block_system()
    auto = induced_finite_pda(arc, 1)
    words = ["ab", "aabb", "abab", "aabbab", "aaabbbab", "ba", "aab", "abba", "", "b"]
    out["arctic-blocks"] = {w: _fmt(behavior_finite(auto, tuple(w))) for w in words}

    oauto = tropical_omega_automaton()
    omega = {}
    for n in range(0, 5):
        w = LassoWord(("a",) * n + ("b",) * n, ("c",))
        omega[f"{'a'*n + 'b'*n}:c"] = _fmt(behavior_omega_lasso(oauto, w).value)
    omega["a:a"] = _fmt(behavior_omega_lasso(oauto, LassoWord(("a",), ("a",))).value)
    out["omega-automaton"] = omega

    cms = contrast_mixed_system()
    cauto = induced_omega_pda(cms, 1, 1, finite=1)
    out["contrast"] = {
        ":aa": _fmt(behavior_omega_lasso(cauto, LassoWord((), ("a", "a"))).value),
        "a:c": _fmt(behavior_omega_lasso(cauto, LassoWord(("a",), ("c",))).value),
        "acaa:c": _fmt(
            behavior_omega_lasso(cauto, LassoWord(("a", "c", "a", "a"), ("c",))).value
        ),
        "finite-aca": _fmt(behavior_finite(cauto, ("a", "c", "a"))),
    }
    return out


def examples_suite() -> SuiteResult:
    result = SuiteResult()
    data = resources.files("staromega").joinpath("data/golden_examples.json").read_text()
    golden = json.loads(data)
    computed = computed_example_values()
    for section, expected in sorted(golden.items()):
        got = computed.get(section)
        if got == expected:
            result.add(f"examples[{section}]", True)
        else:
            exp_flat, got_flat = _flatten(expected), _flatten(got or {})
            diff = {
                k: {"expected": exp_flat.get(k), "got": got_flat.get(k)}
                for k in set(exp_flat) | set(got_flat)
                if exp_flat.get(k) != got_flat.get(k)
            }
            result.add(f"examples[{section}]", False, json.dumps(diff, sort_keys=True))
    for section in sorted(set(computed) - set(golden)):
        result.add(f"examples[{section}]", False, "missing from golden file")
    return result


def _flatten(tree: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in tree.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "/"))
        else:
            out[key] = v
    return out
