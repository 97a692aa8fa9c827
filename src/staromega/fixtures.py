"""Worked example systems and automata used by the check suites and tests."""

from __future__ import annotations

from importlib import resources

from .cli import parse_grammar
from .semiring import TROPICAL
from .series import Polynomial, parse_polynomial
from .system import AlgebraicSystem, MixedSystem
from .pda import ResetPDMatrix, SimpleOmegaPDA, transpose


def _p(inst, text: str) -> Polynomial:
    return parse_polynomial(text, inst)


def _packaged(name: str) -> AlgebraicSystem | MixedSystem:
    """The system of a grammar file shipped in `staromega/data`."""
    return parse_grammar(resources.files("staromega").joinpath("data", name).read_text()).system


def tropical_mixed_system() -> MixedSystem:
    """x1 = 1 a x1 b + 1 a b;  z1 = c z1;  z2 = x1 z1 + z1  (min-plus weights)."""
    return _packaged("tropical_mixed.grm")


def boolean_omega_system() -> AlgebraicSystem:
    """y1 = y2 y1 + eps;  y2 = a y2 b + eps over the Boolean semiring."""
    return _packaged("boolean_omega.grm")


def pair_example_systems() -> tuple[AlgebraicSystem, AlgebraicSystem]:
    """Greibach systems for s = a^n b^n -> n and t = (dd)*c -> 0 (min-plus)."""
    t = TROPICAL
    s_sys = AlgebraicSystem(
        t,
        ("a", "b", "c", "d"),
        ("x1", "x2"),
        (_p(t, "(1) a x2 | (1) a x1 x2"), _p(t, "b")),
    )
    t_sys = AlgebraicSystem(
        t,
        ("a", "b", "c", "d"),
        ("x1", "x2"),
        (_p(t, "c | d x2 x1"), _p(t, "d")),
    )
    return s_sys, t_sys


def arctic_block_system() -> AlgebraicSystem:
    """Max-plus system whose S-component weighs a^{n1}b^{n1}...a^{nk}b^{nk} by max n_i.

    Variables: T, S, R, Q, B; component S (index 1) is the interesting one.
    """
    return _packaged("arctic_blocks.grm").x


def tropical_omega_automaton() -> SimpleOmegaPDA:
    """Four-state min-plus automaton with behavior a^n b^n c^omega -> n.

    State 1 loops on c and is the only repeated state; reading a pushes with
    weight 1, reading b pops with weight 0.
    """
    t = TROPICAL
    n = 4

    def block(entries):
        rows = {}
        for (i, j, letter, weight) in entries:
            rows.setdefault(i, {}).setdefault(j, {})[letter] = t.value(weight)
        return rows

    matrix = ResetPDMatrix(
        t,
        n,
        ("a", "b", "c"),
        ("Z0", "X"),
        block([(0, 0, "c", 0), (1, 0, "c", 0)]),
        {"Z0": block([(1, 2, "a", 1)]), "X": block([(2, 2, "a", 1)])},
        {
            "X": transpose(block([(2, 3, "b", 0), (3, 3, "b", 0)])),
            "Z0": transpose(block([(2, 0, "b", 0), (3, 0, "b", 0)])),
        },
    )
    initial = tuple(t.one if q == 1 else t.zero for q in range(n))
    final = tuple(t.zero for _ in range(n))
    return SimpleOmegaPDA(matrix, initial, final, 1, ("1", "2", "3", "4"))


def contrast_mixed_system() -> MixedSystem:
    """x1 = a + c x1; x2 = a x1 x2 + a x1; z1 = c z1; z2 = a z1 + a x1 z2."""
    return _packaged("contrast_mixed.grm")
