"""Seeded inputs and query lists for the four benchmark workloads.

Every workload turns a seed into a fixed list of queries.  A query is one
route answering one input; its call is what the harness times, and the
workload's `judge` decides afterwards, outside the timed section, whether
each answer is decided, inconclusive or a failure.  Set-up work (normal
forms, automata, references) happens while the list is built.

How the seed is used.  The cost of a random grammar is heavy-tailed: a few
inputs whose normal form blows up take most of the time.  Drawn afresh per
seed, those few make throughput and the 90th percentile swing by 40-190%
from seed to seed, far beyond any bound a regression check can use.  So the
grammar workloads (words, lasso, normal-form) draw their problem shapes
once, from a fixed corpus seed, with the generator parameters below, and
`--seed` picks the spelling: every variable is renamed
consistently (see Names).  Each seed poses the same problems under other
names, which the library must answer identically.  The matrix workload draws
its entries from the corpus seed too, and `--seed` shuffles the order in
which its queries are issued.  The cost of `mat_omega_t` depends on the
entries (an arctic n = 7 omega took 6.6 ms with one seed's entries and 15 ms
with another's) and on the numbering of the states, and the median latency
falls between a cluster of 4-6 ms queries and one of 7-9 ms; entries drawn
per seed moved it by 19% from seed to seed.
"""

from __future__ import annotations

import gc
import hashlib
import string
from contextlib import nullcontext
from dataclasses import dataclass
from random import Random
from typing import Callable

from staromega import checks
from staromega.cli import GrammarFile, format_grammar, parse_grammar
from staromega.gnf import (
    DecompositionTerm,
    OmegaDecomposition,
    char_to_mixed,
    decompose_canonical,
    finite_gnf,
    normalize_decomposition,
    pipeline_from_decomposition,
)
from staromega.matrix import (
    SemiringMatrix,
    mat_add,
    mat_from_raw,
    mat_identity,
    mat_mul,
    mat_omega_t,
    mat_omega_t_alt,
    mat_star,
    mat_vec_mul,
)
from staromega.pda import (
    behavior_finite,
    behavior_omega_lasso,
    induced_finite_pda,
    induced_omega_pda,
)
from staromega.semiring import ARCTIC, BOOLEAN, COUNTING, TROPICAL
from staromega.series import LassoWord, Polynomial, format_polynomial
from staromega.system import (
    AlgebraicSystem,
    canonical_omega_lasso,
    induce_mixed,
    is_gnf_omega,
    least_solution_finite,
    oracle_coeff_gnf,
)

from timelimit import Clock, QueryTimeout, time_limit

DECIDED = "decided"
INCONCLUSIVE = "inconclusive"
FAILED = "failed"
CORPUS_SEED = 0


@dataclass(frozen=True)
class Failure:
    """A query that raised (class name), hit the time limit ("timeout"),
    or whose set-up already failed (the set-up's failure reason)."""

    reason: str


@dataclass
class Query:
    route: str
    call: Callable[[], object] | None
    setup_failure: Failure | None = None


@dataclass(frozen=True)
class Verdict:
    status: str  # DECIDED, INCONCLUSIVE or FAILED
    reason: str | None = None  # failure reason: exception class, timeout, disagree


class Workload:
    """A seeded query list plus the judge for its answers."""

    name = ""
    # fixed per-query time limit in reference seconds (see timelimit.Clock);
    # it applies to set-up steps too
    limit = 1.0
    # nominal reference seconds of one pass over the queries, with timed-out
    # queries charged their limit; a run makes --seconds / pass_seconds passes
    pass_seconds = 1.0

    def __init__(self, seed: int, smoke: bool = False, clock: Clock | None = None):
        self.seed = seed
        self.smoke = smoke
        self.clock = clock or Clock()
        self.queries: list[Query] = []
        self.inputs: list[str] = []  # canonical text of every generated input
        self.nf_vars: list[int] = []
        # set-up steps are numbered in build order, which the seed fixes; a
        # traced rebuild skips the steps that timed out untraced and relaxes
        # the limit for the rest, so that tracing overhead changes no outcome
        self.steps = 0
        self.timed_out_steps: set[int] = set()
        self.skip_steps: set[int] = set()
        self.limit_scale = 1.0
        self.scope = lambda qid: nullcontext()

    def build(self) -> None:
        raise NotImplementedError

    def judge(self, answers: list[object]) -> list[Verdict]:
        raise NotImplementedError

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.inputs:
            h.update(text.encode())
            h.update(b"\0")
        return h.hexdigest()[:16]

    def guarded(self, fn: Callable[[], object]) -> object:
        """Run one set-up step under the time limit; failures become values."""
        self.steps += 1
        step = self.steps
        if step in self.skip_steps:
            return Failure("timeout")
        self.clock.tick()
        wall_limit = self.limit * self.limit_scale * self.clock.slowdown
        try:
            with time_limit(wall_limit), self.scope(("setup", step)):
                return fn()
        except QueryTimeout:
            self.timed_out_steps.add(step)
            gc.collect()  # as after a timed-out query (run.run_pass)
            return Failure("timeout")
        except Exception as exc:  # every set-up failure is counted by class
            return Failure(type(exc).__name__)


def judge_each(answers, ok: Callable[[int, object], bool]) -> list[Verdict]:
    out = []
    for i, answer in enumerate(answers):
        if isinstance(answer, Failure):
            out.append(Verdict(FAILED, answer.reason))
        else:
            out.append(Verdict(DECIDED) if ok(i, answer) else Verdict(FAILED, "disagree"))
    return out


# -- corpus shapes and seeded names ---------------------------------------------------


class Names:
    """Seed-chosen spelling of the corpus variables.

    The corpus writes a variable as its sort letter and an index (`x0`,
    `z1`, ...).  A run spells it as the sort letter and three random
    letters, chosen so that the variables of one sort keep their corpus
    order: the library sorts symbols in many places, and a different order
    would make it do different work.  Terminal letters are kept, because the
    names the library generates sort among them."""

    def __init__(self, label: str, seed: int):
        rng = Random(f"{label}/names/{seed}")
        self.suffixes = {}
        for sort in "xz":
            codes = sorted(rng.sample(range(26 ** 3), 12))
            self.suffixes[sort] = [
                "".join(string.ascii_lowercase[c // 26 ** k % 26] for k in (2, 1, 0))
                for c in codes
            ]

    def __call__(self, sym: str) -> str:
        if sym[:1] in self.suffixes and sym[1:].isdigit():
            return sym[0] + self.suffixes[sym[0]][int(sym[1:])]
        return sym

    def system(self, sys: AlgebraicSystem) -> AlgebraicSystem:
        mapping = {v: self(v) for v in sys.variables}
        return AlgebraicSystem(
            sys.instance, sys.terminals, tuple(mapping.values()),
            tuple(p.rename_symbols(mapping) for p in sys.rhs),
        )


def coefficients(inst) -> tuple:
    if inst is BOOLEAN:
        return (1,)
    if inst is COUNTING:
        return (1, 2)
    return (0, 1, 2)


def random_general_system(
    rng: Random, inst, n_vars: int, letters, max_word: int = 3
) -> AlgebraicSystem:
    """Algebraic system with empty-word and chain rules allowed: 1-3
    monomials per equation, each a random word of length 0..max_word over
    letters and variables."""
    names = tuple(f"x{i}" for i in range(n_vars))
    symbols = tuple(letters) + names
    coeffs = coefficients(inst)
    rhs = []
    for _ in names:
        terms = []
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice(symbols) for _ in range(rng.randint(0, max_word)))
            terms.append((inst.value(rng.choice(coeffs)), word))
        rhs.append(Polynomial.build(inst, terms))
    return AlgebraicSystem(inst, tuple(letters), names, tuple(rhs))


def system_text(sys: AlgebraicSystem) -> str:
    eqs = "; ".join(f"{v} = {format_polynomial(p)}" for v, p in zip(sys.variables, sys.rhs))
    return f"{sys.instance.name} [{' '.join(sys.terminals)}] {eqs}"


# -- words ------------------------------------------------------------------------


class Words(Workload):
    """Finite-word coefficients: the Kleene-iterated least solution and the
    finite automaton of the Greibach normal form, against a derivation oracle.

    Corpus: 160 systems cycling through the four instances; half Greibach
    shaped (checks.random_gnf_system), half general with empty-word and chain
    rules (words of length 0-3); 1-3 variables; two words per system, of
    length 6-10 over two letters."""

    name = "words"
    limit = 0.135
    pass_seconds = 2.15
    instances = (BOOLEAN, TROPICAL, ARCTIC, COUNTING)
    lengths = (6, 7, 8, 9, 10)

    def build(self) -> None:
        rng = Random(f"words/corpus/{CORPUS_SEED}")
        names = Names("words", self.seed)
        n_systems = 4 if self.smoke else 160
        self.references: list[object] = []
        for i in range(n_systems):
            inst = self.instances[i % len(self.instances)]
            greibach = (i // len(self.instances)) % 2 == 0
            n_vars = 1 + (i // 8) % 3
            if greibach:
                shape = checks.random_gnf_system(rng, inst, n_vars=n_vars)
            else:
                shape = random_general_system(rng, inst, n_vars, ("a", "b"))
            length = self.lengths[i % len(self.lengths)]
            words = [tuple(rng.choice("ab") for _ in range(length)) for _ in range(2)]
            sys = names.system(shape)
            self.inputs.append(system_text(sys) + " | " + " ".join(" ".join(w) for w in words))
            self._add(sys, greibach, words)

    def _add(self, sys: AlgebraicSystem, greibach: bool, words) -> None:
        start = sys.variables[0]
        gnf = self.guarded(lambda: finite_gnf(sys))
        if isinstance(gnf, Failure):
            auto = oracle = gnf
        else:
            # the oracle needs Greibach shape; general systems are read
            # through their normal form, which keeps every nonempty word
            oracle = (sys, 0) if greibach else (gnf.system, gnf.component_of[start])
            auto = self.guarded(
                lambda: induced_finite_pda(gnf.system, gnf.component_of[start])
            )
        for w in words:
            ref = oracle if isinstance(oracle, Failure) else self.guarded(
                lambda: oracle_coeff_gnf(oracle[0], oracle[1], w)
            )
            self.references += [ref, ref]
            self.queries.append(
                Query("system", lambda w=w: least_solution_finite(sys, len(w))[0].coeff(w))
            )
            if isinstance(auto, Failure):
                self.queries.append(Query("automaton", None, auto))
            else:
                self.queries.append(Query("automaton", lambda w=w: behavior_finite(auto, w)))

    def judge(self, answers):
        """Equal to the oracle's coefficient; an answer whose reference could
        not be computed fails with the reference's failure."""
        out = []
        for answer, ref in zip(answers, self.references):
            if isinstance(answer, Failure):
                out.append(Verdict(FAILED, answer.reason))
            elif isinstance(ref, Failure):
                out.append(Verdict(FAILED, ref.reason))
            else:
                out.append(Verdict(DECIDED) if answer == ref else Verdict(FAILED, "disagree"))
        return out


# -- lasso --------------------------------------------------------------------------


LASSO_ROUTES = ("direct", "mixed", "folded", "automaton")


class Lasso(Workload):
    """Omega values at u v^omega of pair decompositions sum s t^omega, on the
    four routes: direct characteristic system, mixed GNF, folded quemiring
    system, induced automaton.  The routes must agree on status and value.

    Corpus: 40 decompositions cycling through Boolean, tropical and arctic;
    1-2 terms; s and t random general systems of 1-2 variables (words of
    length 0-2); two lasso words each, prefix length 0-3, period length 1-3."""

    name = "lasso"
    limit = 1.0
    pass_seconds = 3.85
    instances = (BOOLEAN, TROPICAL, ARCTIC)

    def build(self) -> None:
        rng = Random(f"lasso/corpus/{CORPUS_SEED}")
        names = Names("lasso", self.seed)
        n_decomp = 3 if self.smoke else 40
        letters = ("a", "b")
        for i in range(n_decomp):
            inst = self.instances[i % len(self.instances)]
            terms = []
            for _ in range(1 + (i // 3) % 2):
                t = random_general_system(rng, inst, rng.randint(1, 2), letters, 2)
                s = random_general_system(rng, inst, rng.randint(1, 2), letters, 2)
                terms.append(DecompositionTerm(names.system(t), 0, names.system(s), 0))
            lassos = []
            for j in range(2):
                prefix = tuple(rng.choice(letters) for _ in range((i + j) % 4))
                period = tuple(rng.choice(letters) for _ in range(1 + (i + 2 * j) % 3))
                lassos.append(LassoWord(prefix, period))
            dec = OmegaDecomposition(inst, letters, tuple(terms))
            self.inputs.append(
                " + ".join(f"({system_text(t.s_sys)}).({system_text(t.t_sys)})^w" for t in terms)
                + " @ " + " ".join(str(w) for w in lassos)
            )
            routes = self._routes(dec)
            for w in lassos:
                for route in LASSO_ROUTES:
                    prep = routes[route]
                    if isinstance(prep, Failure):
                        self.queries.append(Query(route, None, prep))
                    else:
                        self.queries.append(Query(route, lambda p=prep, w=w: p(w)))

    def _routes(self, dec) -> dict[str, object]:
        """Set-up of every route; a failed step fails the routes that need it."""
        norm = self.guarded(lambda: normalize_decomposition(dec))
        if isinstance(norm, Failure):
            return dict.fromkeys(LASSO_ROUTES, norm)
        routes: dict[str, object] = {}
        direct = self.guarded(lambda: char_to_mixed(norm))
        routes["direct"] = direct if isinstance(direct, Failure) else _system_route(*direct)
        piped = self.guarded(lambda: pipeline_from_decomposition(norm))
        if isinstance(piped, Failure):
            routes.update(mixed=piped, folded=piped, automaton=piped)
            return routes
        _, mixed, sel, omega_sys, omega_sel, _ = piped
        self.nf_vars.append(len(omega_sys.variables))
        routes["mixed"] = _system_route(mixed, sel)
        unmixed = self.guarded(lambda: induce_mixed(omega_sys))
        if isinstance(unmixed, Failure):
            routes.update(folded=unmixed, automaton=unmixed)
            return routes
        routes["folded"] = _system_route(unmixed, omega_sel)
        auto = self.guarded(
            lambda: induced_omega_pda(unmixed, omega_sel.component, omega_sel.buchi_count)
        )
        routes["automaton"] = auto if isinstance(auto, Failure) else (
            lambda w: _lasso_answer(behavior_omega_lasso(auto, w))
        )
        return routes

    def judge(self, answers):
        """A conclusive answer is decided when every other conclusive route
        of the same input gave the same value."""
        out = []
        width = len(LASSO_ROUTES)
        for start in range(0, len(answers), width):
            group = answers[start : start + width]
            values = {a for a in group if not isinstance(a, Failure) and a[0] == "ok"}
            for a in group:
                if isinstance(a, Failure):
                    out.append(Verdict(FAILED, a.reason))
                elif a[0] != "ok":
                    out.append(Verdict(INCONCLUSIVE))
                elif len(values) == 1:
                    out.append(Verdict(DECIDED))
                else:
                    out.append(Verdict(FAILED, "disagree"))
        return out


def _lasso_answer(result) -> tuple:
    return (result.status, result.value if result.conclusive else None)


def _system_route(sys, sel):
    return lambda w: _lasso_answer(
        canonical_omega_lasso(sys, sel.buchi_count, sel.component, w)
    )


# -- normal form ----------------------------------------------------------------------


class NormalForm(Workload):
    """The compile path of `staromega gnf --target omega`, in-process, from
    generated grammar text: parse, decompose, GNF pipeline, format.

    `build-pda` on the output is left out: the automaton construction took
    12 times as long as the normal form and 600 MB, and 7 of 30 systems ran
    past any limit that fits a run, which made the median latency and peak
    memory move by 30% from run to run.  The lasso workload builds the same
    automata in its set-up.

    Corpus: 150 mixed systems cycling through Boolean, tropical and arctic;
    2 x-variables with 1-3 monomials of length 0-2 (empty-word and chain
    rules allowed); m = 2 or 3 z-variables, alternating in blocks of three
    systems, with 1-3 right-linear monomials, each a letter or x-variable
    followed by a z-variable; the last z-variable is the start, the Buchi
    count is drawn from 1..m."""

    name = "normal-form"
    limit = 2.0
    pass_seconds = 11.1
    instances = (BOOLEAN, TROPICAL, ARCTIC)

    def build(self) -> None:
        rng = Random(f"normal-form/corpus/{CORPUS_SEED}")
        names = Names("normal-form", self.seed)
        n_systems = 3 if self.smoke else 150
        for i in range(n_systems):
            inst = self.instances[i % len(self.instances)]
            text = random_mixed_grammar(rng, inst, 2, 2 + (i // 3) % 2, names)
            self.inputs.append(text)
            self.queries.append(Query("compile", lambda t=text: compile_path(t)))

    def judge(self, answers):
        self.nf_vars = [len(a[0].system.variables) for a in answers if not isinstance(a, Failure)]
        return judge_each(answers, lambda i, a: _compiled_ok(*a))


def _compiled_ok(g: GrammarFile, text: str) -> bool:
    return is_gnf_omega(g.system) and format_grammar(parse_grammar(text)) == text


def random_mixed_grammar(rng: Random, inst, n_x: int, n_z: int, names: Names) -> str:
    """Grammar text of a random mixed system, spelled with `names`."""
    xs = [f"x{i}" for i in range(1, n_x + 1)]
    zs = [f"z{i}" for i in range(1, n_z + 1)]
    letters = ["a", "b"]
    coeffs = coefficients(inst)

    def alternative(word):
        c = rng.choice(coeffs)
        body = " ".join(names(s) for s in word) if word else "eps"
        return body if c == inst.one_raw() else f"({c}) {body}"

    lines = [
        f"@semiring {inst.name}",
        "@alphabet " + " ".join(letters),
        "@sort x " + " ".join(names(x) for x in xs),
        "@sort z " + " ".join(names(z) for z in zs),
        f"@start {names(zs[-1])}",
        f"@buchi {rng.randint(1, n_z)}",
    ]
    for x in xs:
        alts = [
            alternative([rng.choice(letters + xs) for _ in range(rng.randint(0, 2))])
            for _ in range(rng.randint(1, 3))
        ]
        lines.append(f"{names(x)} = " + " | ".join(alts))
    for z in zs:
        alts = [
            alternative([rng.choice(letters + xs), rng.choice(zs)])
            for _ in range(rng.randint(1, 3))
        ]
        lines.append(f"{names(z)} = " + " | ".join(alts))
    return "\n".join(lines) + "\n"


def compile_path(text: str):
    """`gnf --target omega`: the folded system and its grammar text."""
    g = parse_grammar(text)
    comp = g.system.z_vars.index(g.start)
    dec = decompose_canonical(g.system, g.buchi, comp)
    _, _, _, omega_sys, omega_sel, _ = pipeline_from_decomposition(dec)
    out = GrammarFile(
        g.instance,
        omega_sys.terminals,
        "omega",
        omega_sys,
        omega_sys.variables[omega_sel.component],
        omega_sel.buchi_count,
    )
    return out, format_grammar(out)


# -- matrix ---------------------------------------------------------------------------


class Matrix(Workload):
    """The matrix API: Lehmann star at n = 20-60 and the Buchi-restricted
    omega at n = 6-11, two matrices with t = n (the full omega) and two with
    t = ceil(n/2), for each of the four instances; entries drawn from each
    instance's value grid with the corpus seed, issued in an order shuffled
    with `--seed`."""

    name = "matrix"
    limit = 5.0
    pass_seconds = 4.65
    instances = (BOOLEAN, TROPICAL, ARCTIC, COUNTING)

    def build(self) -> None:
        rng = Random(f"matrix/corpus/{CORPUS_SEED}")
        star_sizes = (4, 6) if self.smoke else (20, 30, 40, 50, 60)
        omega_sizes = (3, 4) if self.smoke else (6, 7, 8, 9, 10, 11)
        self.checks: list[Callable[[object], bool]] = []
        for inst in self.instances:
            for n in star_sizes:
                m = self._matrix(rng, inst, n)
                self.queries.append(Query("star", lambda m=m: mat_star(m)))
                self.checks.append(lambda s, m=m: _star_unfolds(m, s))
            for n in omega_sizes:
                for t in (n, n, (n + 1) // 2, (n + 1) // 2):
                    m = self._matrix(rng, inst, n)
                    self.queries.append(Query("omega_t", lambda m=m, t=t: mat_omega_t(m, t)))
                    self.checks.append(lambda v, m=m, t=t: _omega_checks(m, t, v))
        order = list(range(len(self.queries)))
        Random(f"matrix/order/{self.seed}").shuffle(order)
        self.queries = [self.queries[i] for i in order]
        self.checks = [self.checks[i] for i in order]
        self.inputs = [self.inputs[i] for i in order]

    def _matrix(self, rng: Random, inst, n: int) -> SemiringMatrix:
        grid = inst.grid()
        raw = [[rng.choice(grid) for _ in range(n)] for _ in range(n)]
        self.inputs.append(f"{inst.name} {raw!r}")
        return mat_from_raw(inst, raw)

    def judge(self, answers):
        return judge_each(answers, lambda i, a: self.checks[i](a))


def _star_unfolds(m: SemiringMatrix, s: SemiringMatrix) -> bool:
    """M* = I + M M*."""
    return mat_add(mat_identity(m.instance, m.n), mat_mul(m, s)).rows == s.rows


def _omega_checks(m: SemiringMatrix, t: int, v) -> bool:
    """M omega = omega, and for n <= 6 every coarser split gives the same vector."""
    if mat_vec_mul(m, v).entries != v.entries:
        return False
    if m.n <= 6:
        return all(mat_omega_t_alt(m, t, k).entries == v.entries for k in range(t, m.n + 1))
    return True


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Words, Lasso, NormalForm, Matrix)
}
