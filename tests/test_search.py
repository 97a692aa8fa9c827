import random

import pytest

from staromega._search import lasso_value
from staromega.matrix import SemiringMatrix, mat_omega_t
from staromega.semiring import ARCTIC, BOOLEAN, COUNTING, INF, TROPICAL


def random_hit_graph(rng, inst):
    """1-4 nodes with up to eight edges (target, weight, hit), parallel edges
    and self-loops allowed, and one or two weighted sources; weights come
    from the instance's grid, weighted towards the unit."""
    n = rng.randint(1, 4)
    weights = list(inst.grid()) + [inst.one_raw()] * 3
    edges = {i: [] for i in range(n)}
    for _ in range(rng.randint(0, 8)):
        edges[rng.randrange(n)].append(
            (rng.randrange(n), inst.value(rng.choice(weights)), rng.random() < 0.5)
        )
    sources = {rng.randrange(n): inst.value(rng.choice(weights)) for _ in range(rng.randint(1, 2))}
    return n, edges, sources


def split_graph_value(inst, n, edges, sources):
    """The source vector times mat_omega_t of the whole split graph: node
    (i, hit) is index i + n for no hit and i for a hit, so the n hit copies,
    the Buchi nodes, come first."""
    zero = inst.zero
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for i, outs in edges.items():
        for j, w, hit in outs:
            col = j if hit else j + n
            for row in (i, i + n):
                rows[row][col] = rows[row][col] + w
    m = SemiringMatrix(inst, 2 * n, tuple(tuple(r) for r in rows))
    omega = mat_omega_t(m, n).entries
    total = zero
    for i, w in sources.items():
        total = total + w * omega[i + n]
    return total


@pytest.mark.parametrize("inst", [BOOLEAN, TROPICAL, ARCTIC, COUNTING], ids=lambda i: i.name)
def test_lasso_value_is_omega_t_of_the_whole_split_graph(inst):
    # the per-component read-off against the matrix operator on all of it
    rng = random.Random(f"read-off/{inst.name}")
    seen = set()
    for _ in range(400):
        n, edges, sources = random_hit_graph(rng, inst)
        want = split_graph_value(inst, n, edges, sources)
        assert lasso_value(inst, edges, sources) == want, (edges, sources)
        seen.add(want.value)
    # zero, the unit and inf all occur, and over tropical, arctic and
    # counting some other value too
    assert {inst.zero_raw(), inst.one_raw()} <= seen, seen
    if inst is not BOOLEAN:
        assert INF in seen and len(seen) >= 4, seen
