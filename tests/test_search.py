import random

import pytest

from staromega._search import lasso_value
from staromega.matrix import SemiringMatrix, mat_omega_t
from staromega.semiring import ARCTIC, BOOLEAN, COUNTING, INF, TROPICAL


def random_hit_graph(rng, inst):
    """1-4 nodes with up to eight edges (target, weight, hit, letter),
    parallel edges and self-loops allowed, and one or two weighted sources;
    weights come from the instance's grid, weighted towards the unit, and
    about one edge in three is letter-free."""
    n = rng.randint(1, 4)
    weights = list(inst.grid()) + [inst.one_raw()] * 3
    edges = {i: [] for i in range(n)}
    for _ in range(rng.randint(0, 8)):
        edges[rng.randrange(n)].append(
            (
                rng.randrange(n),
                inst.value(rng.choice(weights)),
                rng.random() < 0.5,
                rng.random() < 0.7,
            )
        )
    sources = {rng.randrange(n): inst.value(rng.choice(weights)) for _ in range(rng.randint(1, 2))}
    return n, edges, sources


def split_graph_value(inst, n, edges, sources):
    """The source vector times mat_omega_t of the whole three-copy split
    graph: node i's Buchi copy (entered by a letter edge with a hit since the
    last letter) is index i, its copy with nothing pending i + n, and its
    copy with a hit pending after letter-free edges i + 2n, so the n Buchi
    copies come first."""
    zero = inst.zero
    rows = [[zero] * (3 * n) for _ in range(3 * n)]
    for i, outs in edges.items():
        for j, w, hit, letter in outs:
            fresh = (j if letter else j + 2 * n) if hit else j + n
            pending = j if letter else j + 2 * n
            for row, col in ((i, fresh), (i + n, fresh), (i + 2 * n, pending)):
                rows[row][col] = rows[row][col] + w
    m = SemiringMatrix(inst, 3 * n, tuple(tuple(r) for r in rows))
    omega = mat_omega_t(m, n).entries
    total = zero
    for i, w in sources.items():
        total = total + w * omega[i + n]
    return total


def raw_graph(edges, sources):
    """The graph as `lasso_value` reads it: raw weights, with the zero edges
    and sources left out."""
    raw_edges = {
        i: [(j, w.value, hit, letter) for j, w, hit, letter in outs if not w.is_zero()]
        for i, outs in edges.items()
    }
    return raw_edges, {i: w.value for i, w in sources.items() if not w.is_zero()}


@pytest.mark.parametrize("inst", [BOOLEAN, TROPICAL, ARCTIC, COUNTING], ids=lambda i: i.name)
def test_lasso_value_is_omega_t_of_the_whole_split_graph(inst):
    # the per-component read-off against the matrix operator on all of it
    rng = random.Random(f"read-off/{inst.name}")
    seen = set()
    letter_free_counts = 0
    for _ in range(400):
        n, edges, sources = random_hit_graph(rng, inst)
        want = split_graph_value(inst, n, edges, sources).value
        raw_edges, raw_sources = raw_graph(edges, sources)
        assert lasso_value(inst, raw_edges, raw_sources) == want, (edges, sources)
        seen.add(want)
        all_letters = {i: [e[:3] + (True,) for e in outs] for i, outs in raw_edges.items()}
        letter_free_counts += lasso_value(inst, all_letters, raw_sources) != want
    # on some graphs the letter-free edges change the value
    assert letter_free_counts >= 10, letter_free_counts
    # zero, the unit and inf all occur, and over tropical, arctic and
    # counting some other value too
    assert {inst.zero_raw(), inst.one_raw()} <= seen, seen
    if inst is not BOOLEAN:
        assert INF in seen and len(seen) >= 4, seen
