"""Reference for the finite least solution: truncated Kleene iteration.

`_kleene` and `kleene_rounds` are how the series of a system were computed
before `least_solution_finite` solved them one word length at a time.
They raise RoundsDidNotSettle where the rounds still move after max_iter
rounds, as an arctic cycle that gains weight makes them, so the tests
compare the exact solution with them only where they settle.
"""

from staromega.series import TruncatedSeries, substitute
from staromega.system import AlgebraicSystem


class RoundsDidNotSettle(RuntimeError):
    """Kleene iteration did not reach a fixed point within the allowed rounds."""


def _kleene(sys: AlgebraicSystem, max_len: int, max_iter: int):
    zero = TruncatedSeries(sys.instance, max_len, {})
    current = [zero] * len(sys.variables)
    for it in range(1, max_iter + 1):
        assignment = dict(zip(sys.variables, current))
        nxt = [substitute(p, assignment, max_len) for p in sys.rhs]
        if nxt == current:
            return current, it
        current = nxt
    raise RoundsDidNotSettle(
        f"solution not stabilized after {max_iter} rounds at truncation {max_len}"
    )


def kleene_rounds(sys: AlgebraicSystem, max_len: int, max_iter: int = 256) -> int:
    """Rounds of truncated Kleene iteration until stabilization.  `_kleene`
    is the reference that the tests compare `least_solution_finite` with."""
    _, rounds = _kleene(sys, max_len, max_iter)
    return rounds
