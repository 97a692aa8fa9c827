"""Finite square matrices over a star-omega semiring.

Provides semiring matrix algebra plus the star, omega and Buchi-restricted
omega operators.  Every kernel works on raw values through the instance's
`add_raw` / `mul_raw` / `star_raw` / `omega_raw` and the fused row kernel
`axpy_raw` (y + l z, cell by cell); `SemiringValue` wrappers are unpacked
and built only at the public boundary.

One Lehmann elimination sweep does the work.  Eliminating pivot k replaces
A[i][j] by A[i][j] + A[i][k] (A[k][k])* A[k][j]; after every pivot, adding
the identity gives M*.  `mat_star` runs the sweep in the order 0..n-1.
The sweep is the instance method `sweep_raw(a, order)`: it updates the raw
list `a` in place and returns each column as it stood before its pivot.
Its generic body in `SemiringInstance` updates each row by one `axpy_raw`
call, and skips a row for good once all its cells equal the instance's
absorbing top T (`top_raw()`, T + x = T: 0 in tropical, inf in arctic and
counting).  Every update adds to a cell, so an all-T row is a fixed point
and the skip is exact.  Answers saturate often (any cycle gives inf in
counting, a positive cycle inf in arctic, a zero-weight path 0 in
tropical), and a row filled with T costs nothing at later pivots; a
matrix that never saturates pays a flag test per row and a comparison
with T per update.
Before the sweep, `_star` hands the raw list to the instance's
`preclose_raw`, which may raise cells toward M+ = M M*: in an idempotent
semiring M <= a <= M+ gives a+ = M+, so the star is unchanged.  Only
tropical needs the step.  Its top 0 is also its one, so the skip fires
only after a left factor of exactly 0 and rows fill late; its pre-pass
closes the 0 entries by Warshall's OR sweep on bit rows and writes 0 into
every cell that a path of 0 entries joins, and the sweep, which tests
every row for T when it starts, then skips each filled row.  In arctic
and counting T is inf, and a row fills at the first update whose left
factor is inf; Boolean's bit sweep closes the matrix at once.  Omega does
not take the step: it reads the sweep's pre-pivot columns, path sums over
restricted intermediate states, which a pre-filled cell would change.
Boolean overrides the sweep with Warshall's bit-vector closure: each row
packed into one int, and eliminating pivot k ORs row k into every row with
bit k set, so a sweep costs n^2 word operations instead of n^3 cell
updates.  A result's scalars are built by the trusted `_scalar`, which
does not revalidate what the kernels computed, one per distinct value.

Omega and its Buchi restriction come from the same sweep run in the order
n-1..0 (a path decomposition, O(n^3) in total).  Just before pivot j is
eliminated, column j holds C_j[i], the weight of the paths i -> j of length
>= 1 whose intermediate states all exceed j.  Every infinite path has a
least state j that it visits infinitely often; it splits uniquely at its
last visit k < j (if any) into a finite path i -> k, a path k -> j above j,
and an infinite sequence of first-return loops at j inside the states >= j,
each of weight summed by L_j = C_j[j].  Hence, with S = M*,

    A[i][j]  = [i=j] + [i>j] C_j[i] + sum_{k<j} S[i][k] C_j[k]
    omega_t  = sum_{j<t} A[:, j] L_j^omega,     mat_omega = omega_n.

The decomposition counts each path once, so it also holds in the counting
semiring, which is not idempotent.  The paper's recursive two-by-two block
formulas are kept as oracles (`mat_star_blocks`, `mat_omega_blocks`,
`mat_omega_t_blocks`): they are partition independent in every Conway
semiring, and the identity suite and the tests check the sweep against them.
`mat_omega_blocks` makes two recursive calls per level and costs 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semiring import SemiringError, SemiringInstance, SemiringValue, _scalar


@dataclass(frozen=True)
class SemiringMatrix:
    instance: SemiringInstance
    n: int
    rows: tuple[tuple[SemiringValue, ...], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise SemiringError(f"expected {self.n} rows, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != self.n:
                raise SemiringError("matrix is not square")
            for v in row:
                if v.instance is not self.instance:
                    raise SemiringError("matrix entries must share one instance")


@dataclass(frozen=True)
class OmegaVector:
    instance: SemiringInstance
    entries: tuple[SemiringValue, ...]

    @property
    def n(self) -> int:
        return len(self.entries)


# Kernels work on rectangular blocks of raw values (sequences of sequences).
Rect = tuple[tuple, ...]


def mat_from_raw(instance: SemiringInstance, raw_rows) -> SemiringMatrix:
    rows = tuple(tuple(instance.value(v) for v in row) for row in raw_rows)
    return SemiringMatrix(instance, len(rows), rows)


def _unwrap(m: SemiringMatrix) -> Rect:
    return tuple(tuple(v.value for v in row) for row in m.rows)


def _scalars(instance: SemiringInstance, values):
    """Lookup from each of the raw `values` to one shared scalar: a result
    holds few distinct values, and the scalars are immutable."""
    return {v: _scalar(instance, v) for v in values}.__getitem__


def _wrap(instance: SemiringInstance, raw: Rect) -> SemiringMatrix:
    scalar = _scalars(instance, set().union(*raw))
    rows = tuple(tuple(map(scalar, row)) for row in raw)
    return SemiringMatrix(instance, len(rows), rows)


def _wrap_vector(instance: SemiringInstance, raw) -> OmegaVector:
    raw = tuple(raw)
    return OmegaVector(instance, tuple(map(_scalars(instance, raw), raw)))


def mat_identity(instance: SemiringInstance, n: int) -> SemiringMatrix:
    z, o = instance.zero, instance.one
    return SemiringMatrix(
        instance, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
    )


def _check_same(a: SemiringMatrix, b: SemiringMatrix) -> None:
    if a.instance is not b.instance:
        raise SemiringError("matrices over different instances")


def _rect_add(instance: SemiringInstance, a: Rect, b: Rect) -> Rect:
    add = instance.add_raw
    return tuple(tuple(map(add, ra, rb)) for ra, rb in zip(a, b))


def _rect_mul(instance: SemiringInstance, a: Rect, b: Rect) -> Rect:
    if a and b and len(a[0]) != len(b):
        raise SemiringError(f"dimension mismatch: {len(a[0])} vs {len(b)}")
    cols = tuple(zip(*b)) if b else ()
    return tuple(tuple(_dot(instance, row, col) for col in cols) for row in a)


def _dot(instance: SemiringInstance, row, col):
    add, mul = instance.add_raw, instance.mul_raw
    acc = instance.zero_raw()
    for x, y in zip(row, col):
        acc = add(acc, mul(x, y))
    return acc


def mat_add(a: SemiringMatrix, b: SemiringMatrix) -> SemiringMatrix:
    _check_same(a, b)
    if a.n != b.n:
        raise SemiringError(f"dimension mismatch: {a.n} vs {b.n}")
    return _wrap(a.instance, _rect_add(a.instance, _unwrap(a), _unwrap(b)))


def mat_mul(a: SemiringMatrix, b: SemiringMatrix) -> SemiringMatrix:
    _check_same(a, b)
    if a.n != b.n:
        raise SemiringError(f"dimension mismatch: {a.n} vs {b.n}")
    return _wrap(a.instance, _rect_mul(a.instance, _unwrap(a), _unwrap(b)))


def mat_vec_mul(a: SemiringMatrix, v: OmegaVector) -> OmegaVector:
    if a.instance is not v.instance:
        raise SemiringError("matrix and vector over different instances")
    if a.n != v.n:
        raise SemiringError(f"dimension mismatch: {a.n} vs {v.n}")
    col = tuple(x.value for x in v.entries)
    return _wrap_vector(a.instance, (_dot(a.instance, row, col) for row in _unwrap(a)))


def _add_identity(instance: SemiringInstance, a: list[list]) -> list[list]:
    add, one = instance.add_raw, instance.one_raw()
    for i, row in enumerate(a):
        row[i] = add(row[i], one)
    return a


def _star(instance: SemiringInstance, m: Rect) -> list[list]:
    a = [list(row) for row in m]
    instance.preclose_raw(a)
    instance.sweep_raw(a, range(len(a)))
    return _add_identity(instance, a)


def mat_star(m: SemiringMatrix) -> SemiringMatrix:
    """Reflexive-transitive closure: sum of all finite matrix powers.

    The instance's `preclose_raw`, one Lehmann sweep in the pivot order
    0..n-1, then the identity is added.
    Agrees with the recursive block definition in every Conway semiring,
    which the identity suite checks explicitly.
    """
    return _wrap(m.instance, _star(m.instance, _unwrap(m)))


def _split(m: Rect, n1: int):
    top, bottom = m[:n1], m[n1:]
    return (
        tuple(row[:n1] for row in top),
        tuple(row[n1:] for row in top),
        tuple(row[:n1] for row in bottom),
        tuple(row[n1:] for row in bottom),
    )


def mat_star_blocks(m: SemiringMatrix, n1: int, variant: int = 1) -> SemiringMatrix:
    """Star via one two-block step at the given split point.

    variant 1 composes the closures as (a + b d* c)* b d* in the upper right
    corner; variant 2 uses the alternative a* b (d + c a* b)*.  Both agree
    with `mat_star` in Conway semirings.
    """
    n, inst = m.n, m.instance
    if not 0 <= n1 <= n:
        raise SemiringError("split point out of range")
    if n1 == 0 or n1 == n:
        return mat_star(m)
    if variant not in (1, 2):
        raise SemiringError("variant must be 1 or 2")
    a, b, c, d = _split(_unwrap(m), n1)
    dstar = _star(inst, d)
    astar = _star(inst, a)
    fstar = _star(inst, _rect_add(inst, a, _rect_mul(inst, _rect_mul(inst, b, dstar), c)))
    gstar = _star(inst, _rect_add(inst, d, _rect_mul(inst, _rect_mul(inst, c, astar), b)))
    if variant == 1:
        tr = _rect_mul(inst, _rect_mul(inst, fstar, b), dstar)
        bl = _rect_mul(inst, _rect_mul(inst, gstar, c), astar)
    else:
        tr = _rect_mul(inst, _rect_mul(inst, astar, b), gstar)
        bl = _rect_mul(inst, _rect_mul(inst, dstar, c), fstar)
    rows = [tuple(fstar[i]) + tr[i] for i in range(n1)]
    rows += [bl[i] + tuple(gstar[i]) for i in range(n - n1)]
    return _wrap(inst, rows)


def _omega_t(instance: SemiringInstance, m: Rect, t: int) -> tuple:
    """Raw Buchi-restricted omega by the path decomposition of the module
    docstring, for 0 <= t <= n.

    The sums over j are regrouped so that only vectors remain after the
    sweep: omega_t = v + S u with
    u[k] = sum_{k<j<t} C_j[k] w_j and v[i] = [i<t] w_i + sum_{j<min(i,t)} C_j[i] w_j,
    where w_j = L_j^omega.
    """
    add, mul, zero = instance.add_raw, instance.mul_raw, instance.zero_raw()
    n = len(m)
    if t == 0:
        return (zero,) * n
    a = [list(row) for row in m]
    cols = instance.sweep_raw(a, range(n - 1, -1, -1))
    s = _add_identity(instance, a)
    u = [zero] * n
    v = [zero] * n
    for j in range(t):
        c = cols[j]
        w = instance.omega_raw(c[j])
        if w == zero:
            continue
        v[j] = add(v[j], w)
        for k in range(j):
            u[k] = add(u[k], mul(c[k], w))
        for k in range(j + 1, n):
            v[k] = add(v[k], mul(c[k], w))
    return tuple(add(v[i], _dot(instance, s[i], u)) for i in range(n))


def _check_t(t: int, n: int) -> None:
    if not 0 <= t <= n:
        raise SemiringError(f"repeated-state count {t} out of range 0..{n}")


def mat_omega(m: SemiringMatrix) -> OmegaVector:
    """Omega of a matrix: per-state weight of infinite paths, all states repeated."""
    return _wrap_vector(m.instance, _omega_t(m.instance, _unwrap(m), m.n))


def mat_omega_t(m: SemiringMatrix, t: int) -> OmegaVector:
    """Buchi-restricted omega: infinite paths that revisit states 1..t forever."""
    _check_t(t, m.n)
    return _wrap_vector(m.instance, _omega_t(m.instance, _unwrap(m), t))


def _coarse_split(instance: SemiringInstance, m: Rect, k: int, top_omega) -> tuple:
    """(f^omega_t ; d* c f^omega_t) with f = a + b d* c, for the split whose
    top block has size k; `top_omega` computes f^omega_t."""
    a, b, c, d = _split(m, k)
    dstar = _star(instance, d)
    top = top_omega(_rect_add(instance, a, _rect_mul(instance, _rect_mul(instance, b, dstar), c)))
    bottom = tuple(_dot(instance, row, top) for row in _rect_mul(instance, dstar, c))
    return tuple(top) + bottom


def mat_omega_t_alt(m: SemiringMatrix, t: int, k: int) -> OmegaVector:
    """Same operator computed through a coarser split of size k >= t."""
    n, inst = m.n, m.instance
    if not 0 <= t <= k <= n:
        raise SemiringError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    if k == n:
        return mat_omega_t(m, t)
    raw = _coarse_split(inst, _unwrap(m), k, lambda f: _omega_t(inst, f, t))
    return _wrap_vector(inst, raw)


# -- block-recursion oracles -------------------------------------------------


def _omega_blocks(instance: SemiringInstance, m: Rect) -> tuple:
    """Recursive two-block definition of omega with the 1/(n-1) split."""
    add, mul = instance.add_raw, instance.mul_raw
    star, omega = instance.star_raw, instance.omega_raw
    n = len(m)
    if n == 0:
        return ()
    if n == 1:
        return (omega(m[0][0]),)
    a, b, c, d = _split(m, 1)
    a_s = a[0][0]
    dstar = _star(instance, d)
    f_s = add(a_s, _rect_mul(instance, _rect_mul(instance, b, dstar), c)[0][0])
    astar_s = star(a_s)
    cab = tuple(tuple(mul(mul(ci[0], astar_s), bj) for bj in b[0]) for ci in c)
    g = _rect_add(instance, d, cab)
    d_om = _omega_blocks(instance, d)
    g_om = _omega_blocks(instance, g)
    gstar = _star(instance, g)
    first = add(omega(f_s), mul(star(f_s), _dot(instance, b[0], d_om)))
    a_om = omega(a_s)
    # second block is (d + c a* b)^omega + (d + c a* b)* c a^omega
    c_a_om = tuple(mul(ci[0], a_om) for ci in c)
    rest = tuple(add(g_om[i], _dot(instance, gstar[i], c_a_om)) for i in range(n - 1))
    return (first,) + rest


def mat_omega_blocks(m: SemiringMatrix) -> OmegaVector:
    """Omega by the paper's recursive block formulas; exponential, an oracle
    for `mat_omega`."""
    return _wrap_vector(m.instance, _omega_blocks(m.instance, _unwrap(m)))


def mat_omega_t_blocks(m: SemiringMatrix, t: int) -> OmegaVector:
    """Buchi-restricted omega by the block formulas: split with the repeated
    block of size t, ((a + b d* c)^omega ; d* c (a + b d* c)^omega).  An
    oracle for `mat_omega_t`."""
    n, inst = m.n, m.instance
    _check_t(t, n)
    if t == 0:
        return _wrap_vector(inst, (inst.zero_raw(),) * n)
    if t == n:
        return mat_omega_blocks(m)
    raw = _coarse_split(inst, _unwrap(m), t, lambda f: _omega_blocks(inst, f))
    return _wrap_vector(inst, raw)
