import random

import pytest
from hypothesis import given, settings, strategies as st

from staromega.checks import SuiteResult, _scalar_laws, plain_sweep
from staromega.matrix import (
    OmegaVector,
    _add_identity,
    SemiringMatrix,
    mat_add,
    mat_from_raw,
    mat_identity,
    mat_mul,
    mat_omega,
    mat_omega_blocks,
    mat_omega_t,
    mat_omega_t_alt,
    mat_omega_t_blocks,
    mat_star,
    mat_star_blocks,
    mat_vec_mul,
)
from staromega.semiring import (
    ARCTIC,
    BOOLEAN,
    COUNTING,
    INF,
    TROPICAL,
    SemiringError,
    SemiringInstance,
)

ALL = [BOOLEAN, TROPICAL, ARCTIC, COUNTING]
# the instances whose sweep runs the generic body with its saturated-row skip
SATURATING = [TROPICAL, ARCTIC, COUNTING]


def raw(m):
    return [[v.value for v in row] for row in m.rows]


def vraw(v):
    return [e.value for e in v.entries]


def rand_matrix(rng, inst, n):
    return mat_from_raw(inst, [[rng.choice(inst.grid()) for _ in range(n)] for _ in range(n)])


def matrices(max_n):
    """Square matrices up to max_n over any instance, entries from its grid."""

    def over(inst):
        entries = st.sampled_from(inst.grid())
        return st.integers(0, max_n).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
            )
        ).map(lambda rows: mat_from_raw(inst, rows))

    return st.sampled_from(ALL).flatmap(over)


# -- plumbing -------------------------------------------------------------------


def test_add_mul_identities():
    rng = random.Random(3)
    for inst in ALL:
        m = rand_matrix(rng, inst, 3)
        assert mat_mul(mat_identity(inst, 3), m).rows == m.rows
        assert mat_add(SemiringMatrix(inst, 3, ((inst.zero,) * 3,) * 3), m).rows == m.rows


def test_min_plus_product_example():
    m = mat_from_raw(TROPICAL, [[0, 1], [INF, 0]])
    v = OmegaVector(TROPICAL, (TROPICAL.value(0), TROPICAL.value(0)))
    assert vraw(mat_vec_mul(m, v)) == [0, 0]


def test_dimension_mismatch():
    a = mat_from_raw(TROPICAL, [[INF] * 2] * 2)
    b = mat_from_raw(TROPICAL, [[INF] * 3] * 3)
    with pytest.raises(SemiringError):
        mat_mul(a, b)
    with pytest.raises(SemiringError):
        mat_add(a, b)


# -- star ------------------------------------------------------------------------


def test_star_examples():
    for inst in ALL:
        for n in (0, 1, 2, 3):
            zero = SemiringMatrix(inst, n, ((inst.zero,) * n,) * n)
            assert raw(mat_star(zero)) == raw(mat_identity(inst, n))
    assert raw(mat_star(mat_from_raw(BOOLEAN, [[0, 1], [0, 0]]))) == [[1, 1], [0, 1]]
    assert raw(mat_star(mat_from_raw(TROPICAL, [[5]]))) == [[0]]


def test_star_partition_independence():
    rng = random.Random(11)
    for inst in ALL:
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, inst, n)
            base = mat_star(m)
            for n1 in range(n + 1):
                for variant in (1, 2):
                    assert mat_star_blocks(m, n1, variant).rows == base.rows


@settings(max_examples=150, deadline=None)
@given(matrices(6))
def test_star_matches_every_block_split(m):
    base = mat_star(m)
    for n1 in range(m.n + 1):
        for variant in (1, 2):
            assert mat_star_blocks(m, n1, variant).rows == base.rows


# -- omega -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(matrices(6))
def test_omega_t_matches_block_oracle(m):
    assert mat_omega(m).entries == mat_omega_blocks(m).entries
    for t in range(m.n + 1):
        assert mat_omega_t(m, t).entries == mat_omega_t_blocks(m, t).entries, t


def test_omega_examples():
    assert vraw(mat_omega(mat_from_raw(BOOLEAN, [[1]]))) == [1]
    assert vraw(mat_omega(mat_from_raw(TROPICAL, [[0]]))) == [0]
    assert vraw(mat_omega(mat_from_raw(TROPICAL, [[INF, 1], [1, INF]]))) == [INF, INF]


def test_omega_t_edges_and_example():
    rng = random.Random(5)
    m = mat_from_raw(BOOLEAN, [[0, 1], [1, 0]])
    assert vraw(mat_omega_t(m, 1)) == [1, 1]
    for inst in ALL:
        for _ in range(20):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, inst, n)
            assert vraw(mat_omega_t(a, 0)) == [inst.zero.value] * n
            assert mat_omega_t(a, n).entries == mat_omega(a).entries
    with pytest.raises(SemiringError):
        mat_omega_t(m, 3)


def test_omega_t_alt_matches_all_partitions():
    rng = random.Random(17)
    for inst in ALL:
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, inst, n)
            for t in range(n + 1):
                want = mat_omega_t(m, t)
                for k in range(t, n + 1):
                    assert mat_omega_t_alt(m, t, k).entries == want.entries
    with pytest.raises(SemiringError):
        mat_omega_t_alt(rand_matrix(rng, BOOLEAN, 3), 2, 1)


def test_omega_is_matrix_fixed_point():
    rng = random.Random(23)
    for inst in ALL:
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, inst, n)
            for t in range(n + 1):
                v = mat_omega_t(m, t)
                assert mat_vec_mul(m, v).entries == v.entries


# -- Boolean Buchi cross-check ----------------------------------------------------


def buchi_oracle(m, t):
    """Reachability of a cycle through one of the first t states."""
    n = m.n
    adj = [[not m.rows[i][j].is_zero() for j in range(n)] for i in range(n)]
    closure = [row[:] for row in adj]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                closure[i][j] = closure[i][j] or (closure[i][k] and closure[k][j])
    out = []
    for j in range(n):
        # j must reach some c among the first t states that lies on a
        # nonempty cycle; the closure holds paths of length >= 1
        ok = any(
            (j == c or closure[j][c]) and closure[c][c] for c in range(t)
        )
        out.append(1 if ok else 0)
    return out


def test_boolean_omega_matches_reachability_oracle():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = mat_from_raw(
            BOOLEAN, [[rng.choice([0, 0, 1]) for _ in range(n)] for _ in range(n)]
        )
        for t in range(n + 1):
            assert vraw(mat_omega_t(m, t)) == buchi_oracle(m, t), (raw(m), t)


# -- the bit-parallel Boolean sweep -------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 20),
    density=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
    reverse=st.booleans(),
)
def test_boolean_sweep_override_equals_the_generic_sweep(data, n, density, reverse):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    a = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    order = range(n - 1, -1, -1) if reverse else range(n)
    fast, generic = [list(row) for row in a], [list(row) for row in a]
    cols = BOOLEAN.sweep_raw(fast, order)
    assert cols == SemiringInstance.sweep_raw(BOOLEAN, generic, order)
    assert fast == generic and all(type(row) is list for row in fast)
    assert all(v in (0, 1) and type(v) is int for row in fast for v in row)


def reachability_closure(adj):
    """closure[i][j] = 1 iff a path i -> j of length >= 0, by BFS from each i."""
    n = len(adj)
    closure = []
    for i in range(n):
        seen, frontier = {i}, [i]
        while frontier:
            frontier = [j for k in frontier for j in range(n) if adj[k][j] and j not in seen]
            seen.update(frontier)
        closure.append([1 if j in seen else 0 for j in range(n)])
    return closure


def test_boolean_star_is_bfs_reachability():
    rng = random.Random(47)
    for n in list(range(0, 12)) + [17, 25, 33, 40]:
        for density in (0.5 / max(n, 1), 1.5 / max(n, 1), 0.3):
            adj = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
            assert raw(mat_star(mat_from_raw(BOOLEAN, adj))) == reachability_closure(adj), adj


def sparse_matrix(rng, inst, n, degree=1.5):
    """About `degree` nonzero entries per row, weighted towards the unit, so
    that omega vectors mix several values instead of saturating."""
    zero, one = inst.zero_raw(), inst.one_raw()
    weights = [one] * 3 + [v for v in inst.grid() if v not in (zero, one)]
    return mat_from_raw(
        inst,
        [[rng.choice(weights) if rng.random() < degree / n else zero for _ in range(n)]
         for _ in range(n)],
    )


@pytest.mark.parametrize("inst", ALL, ids=lambda inst: inst.name)
def test_large_omega_is_fixed_point_and_split_independent(inst):
    n = 40
    m = sparse_matrix(random.Random(f"large/{inst.name}"), inst, n)
    assert mat_omega(m).entries == mat_omega_t(m, n).entries
    seen = set()
    for t in (1, 7, 20, n):
        v = mat_omega_t(m, t)
        seen.update(vraw(v))
        assert mat_vec_mul(m, v).entries == v.entries
        for k in sorted({t, t + 3, 33, n} & set(range(t, n + 1))):
            assert mat_omega_t_alt(m, t, k).entries == v.entries, (t, k)
        if inst is BOOLEAN:
            assert vraw(v) == buchi_oracle(m, t), t
    assert len(seen) > 1


# -- the saturated-row skip of the generic sweep -------------------------------------


def never_saturating(rng, inst, n):
    """A raw matrix whose sweep reaches no top: tropical entries of at least
    1, or an acyclic (strictly upper triangular) finite counting or arctic
    matrix."""
    if inst is TROPICAL:
        return [[rng.choice((1, 2, 3, INF)) for _ in range(n)] for _ in range(n)]
    finite = [v for v in inst.grid() if v is not INF]
    zero = inst.zero_raw()
    return [[rng.choice(finite) if j > i else zero for j in range(n)] for i in range(n)]


def sweep_draw(rng, inst, n, kind):
    if kind == "never":
        return never_saturating(rng, inst, n)
    a = [[rng.choice(inst.grid()) for _ in range(n)] for _ in range(n)]
    if kind == "top-rows":
        for i in rng.sample(range(n), rng.randint(0, n)):
            a[i] = [inst.top_raw()] * n
    return a


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    inst=st.sampled_from(SATURATING),
    n=st.integers(0, 24),
    kind=st.sampled_from(["dense", "top-rows", "never"]),
    reverse=st.booleans(),
)
def test_sweep_equals_the_plain_lehmann_update(data, inst, n, kind, reverse):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    a = sweep_draw(rng, inst, n, kind)
    order = range(n - 1, -1, -1) if reverse else range(n)
    fast, plain = [list(row) for row in a], [list(row) for row in a]
    assert inst.sweep_raw(fast, order) == plain_sweep(inst, plain, order)
    assert fast == plain


def saturating_matrices(max_n):
    """Dense grid matrices over tropical, arctic and counting, some rows at
    the top from the start."""

    def over(inst):
        return st.tuples(st.integers(0, max_n), st.integers(0, 2**32 - 1)).map(
            lambda p: mat_from_raw(inst, sweep_draw(random.Random(p[1]), inst, p[0], "top-rows"))
        )

    return st.sampled_from(SATURATING).flatmap(over)


@settings(max_examples=60, deadline=None)
@given(saturating_matrices(8))
def test_saturating_star_and_omega_match_the_block_oracles(m):
    base = mat_star(m)
    for n1 in range(m.n + 1):
        assert mat_star_blocks(m, n1).rows == base.rows
    for t in range(m.n + 1):
        assert mat_omega_t(m, t).entries == mat_omega_t_blocks(m, t).entries, t


def test_a_saturated_row_is_never_updated_again(monkeypatch):
    # every cycle of the all-ones counting matrix weighs inf, so pivot 0
    # fills every row with inf, and no later pivot touches a row again
    n, calls = 10, []
    axpy = COUNTING.axpy_raw
    monkeypatch.setattr(COUNTING, "axpy_raw", lambda *args: calls.append(1) or axpy(*args))
    assert raw(mat_star(mat_from_raw(COUNTING, [[1] * n] * n))) == [[INF] * n] * n
    assert len(calls) == n


# -- the tropical pre-pass: Warshall's closure of the 0 entries ----------------------


def tropical_draw(rng, n, kind):
    """A raw tropical matrix: mostly 0 entries, none (entries from 1, 2, 3
    and inf), or sparse (mostly inf)."""
    values = {
        "zero-heavy": (0, 0, 0, 1, 2, INF),
        "zero-free": (1, 2, 3, INF),
        "sparse": (0, 1, 2, 3) + (INF,) * 12,
    }[kind]
    return [[rng.choice(values) for _ in range(n)] for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 24),
    kind=st.sampled_from(["zero-heavy", "zero-free", "sparse"]),
)
def test_tropical_star_equals_the_plain_sweep_and_every_block_split(seed, n, kind):
    a = tropical_draw(random.Random(seed), n, kind)
    plain = [list(row) for row in a]
    plain_sweep(TROPICAL, plain, range(n))
    m = mat_from_raw(TROPICAL, a)
    star = mat_star(m)
    assert raw(star) == _add_identity(TROPICAL, plain)
    for n1 in range(n + 1):
        assert mat_star_blocks(m, n1).rows == star.rows, n1


def test_a_cycle_of_zero_entries_leaves_the_sweep_no_row_to_update(monkeypatch):
    # the 0 entries i -> i+1 (mod n) join every pair of states, so the
    # pre-pass fills every row with 0 and the sweep skips them all
    n, calls = 12, []
    a = [[0 if j == (i + 1) % n else 1 + (i * j) % 3 for j in range(n)] for i in range(n)]
    axpy = TROPICAL.axpy_raw
    monkeypatch.setattr(TROPICAL, "axpy_raw", lambda *args: calls.append(1) or axpy(*args))
    assert raw(mat_star(mat_from_raw(TROPICAL, a))) == [[0] * n] * n
    assert calls == []


def test_a_pre_pass_past_the_closure_fails_the_identity_suite(monkeypatch):
    # a 0 written into the last cell of the first row, where M+ holds more
    # than 0 on some of the draws, breaks the star and no sweep
    def preclose(a):
        if len(a) > 1 and a[0][-1] != 0:
            a[0][-1] = 0

    monkeypatch.setattr(TROPICAL, "preclose_raw", preclose)
    result = SuiteResult()
    _scalar_laws(result, random.Random(0))
    lines = {name: ok for name, ok, _ in result.lines}
    assert not lines["raw-star[tropical]"] and lines["raw-sweep[tropical]"]


def sweep_lines(inst, top):
    """The identity suite's scalar lines for `inst` with `top` as its top."""
    result = SuiteResult()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(inst), "top_raw", lambda self: top)
        _scalar_laws(result, random.Random(0))
    return {name: ok for name, ok, _ in result.lines if name.endswith(f"[{inst.name}]")}


def test_a_wrong_top_fails_the_identity_suite():
    for inst in SATURATING:
        lines = sweep_lines(inst, inst.top_raw())
        assert lines[f"top-absorbs[{inst.name}]"] and lines[f"raw-sweep[{inst.name}]"]
    # the skip stops updating a row of ones that later pivots would raise
    for inst in (ARCTIC, COUNTING):
        lines = sweep_lines(inst, 1)
        assert not lines[f"top-absorbs[{inst.name}]"] and not lines[f"raw-sweep[{inst.name}]"]
    # a constant tropical row c is a fixed point of every update (its left
    # factor is c, and c + x >= c), so only the law check sees a wrong top
    lines = sweep_lines(TROPICAL, 1)
    assert not lines["top-absorbs[tropical]"] and lines["raw-sweep[tropical]"]
