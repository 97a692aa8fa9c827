import pytest
from hypothesis import given, settings, strategies as st

from staromega.semiring import ARCTIC, BOOLEAN, COUNTING, TROPICAL, SemiringError
from staromega.series import (
    Alphabet,
    LassoWord,
    Monomial,
    Polynomial,
    SeriesError,
    TruncatedSeries,
    format_polynomial,
    parse_polynomial,
    split_px,
    substitute,
)

from lasso_reference import letter, segment, shift


def word_key(w):
    return (len(w), w)


def support(s: TruncatedSeries) -> list:
    """The words with a nonzero coefficient, shortest first."""
    return sorted(s.coeffs, key=word_key)


def poly(inst, text):
    return parse_polynomial(text, inst)


# -- basic shapes ----------------------------------------------------------------


def test_alphabet_disjointness():
    Alphabet(("a", "b"), ("x",))
    with pytest.raises(SeriesError):
        Alphabet(("a",), ("a",))
    with pytest.raises(SeriesError):
        Alphabet(("a", "a"))


def test_monomial_rejects_zero():
    with pytest.raises(SeriesError):
        Monomial(TROPICAL.zero, ("a",))


def test_polynomial_canonical_merge():
    t = TROPICAL
    p = Polynomial.build(t, [(t.value(2), ("a",)), (t.value(1), ("a",)), (t.value(3), ())])
    assert [(m.coeff.value, m.word) for m in p.monomials] == [(3, ()), (1, ("a",))]
    q = Polynomial.build(BOOLEAN, [(BOOLEAN.value(1), ("a",))])
    with pytest.raises(SemiringError):
        p + q


# Terms over every instance, zero coefficients and repeated words included.
# The symbols mix terminals with variables that a prefix moves past them in
# length-lex order: a1 < b, but t.a1 > b.
SYMBOLS = ("a", "b", "a1", "x2", "z")


def terms_over(inst):
    zero = inst.zero_raw()
    value = st.sampled_from((zero,) + inst.grid()).map(inst.value)
    word = st.lists(st.sampled_from(SYMBOLS), max_size=3).map(tuple)
    return st.lists(st.tuples(value, word), max_size=8)


instance_terms = st.sampled_from([BOOLEAN, TROPICAL, ARCTIC, COUNTING]).flatmap(
    lambda inst: st.tuples(st.just(inst), terms_over(inst))
)


@given(instance_terms)
def test_build_merges_words_drops_zeros_and_sorts(case):
    inst, terms = case
    p = Polynomial.build(inst, terms)
    words = [m.word for m in p.monomials]
    assert words == sorted(set(words), key=word_key)
    for m in p.monomials:
        assert not m.coeff.is_zero()
        assert m.coeff == sum((c for c, w in terms if w == m.word), inst.zero)
    dropped = {w for _c, w in terms} - set(words)
    assert all(sum((c for c, w in terms if w == d), inst.zero).is_zero() for d in dropped)


def test_build_rejects_a_coefficient_from_another_instance():
    with pytest.raises(SemiringError):
        Polynomial.build(TROPICAL, [(TROPICAL.one, ("a",)), (COUNTING.one, ("b",))])


renamings = st.one_of(
    # injective: a prefix on some symbols, which can reorder words
    st.sets(st.sampled_from(SYMBOLS)).map(lambda syms: {s: "t." + s for s in syms}),
    # merging: several symbols onto one
    st.dictionaries(st.sampled_from(SYMBOLS), st.sampled_from(("a", "b", "m"))),
)


@given(instance_terms, renamings)
def test_rename_symbols_equals_build_of_the_renamed_terms(case, mapping):
    inst, terms = case
    p = Polynomial.build(inst, terms)
    renamed = [(m.coeff, tuple(mapping.get(s, s) for s in m.word)) for m in p.monomials]
    assert p.rename_symbols(mapping) == Polynomial.build(inst, renamed)


def test_rename_symbols_reorders_and_merges():
    b = BOOLEAN
    p = poly(b, "a1 b | b a1")
    assert [m.word for m in p.monomials] == [("a1", "b"), ("b", "a1")]
    q = p.rename_symbols({"a1": "t.a1"})
    assert [m.word for m in q.monomials] == [("b", "t.a1"), ("t.a1", "b")]
    t = TROPICAL
    assert poly(t, "(2) a1 | (1) a").rename_symbols({"a1": "a"}) == poly(t, "(1) a")


# -- substitution ----------------------------------------------------------------


def test_substitute_epsilon():
    t = TROPICAL
    out = substitute(poly(t, "eps"), {}, 3)
    assert out.coeff(()) == t.one and support(out) == [()]


def test_substitute_single_concatenation():
    t = TROPICAL
    assignment = {"x": TruncatedSeries(t, 3, {("b",): t.value(1)})}
    out = substitute(poly(t, "a x"), assignment, 3)
    assert out.coeff(("a", "b")).value == 1
    assert support(out) == [("a", "b")]


def test_substitute_one_iteration_step():
    # one unfolding of x = 1 a x b + 1 a b with x bound to {ab -> 1}
    t = TROPICAL
    assignment = {"x": TruncatedSeries(t, 6, {("a", "b"): t.value(1)})}
    out = substitute(poly(t, "(1) a x b | (1) a b"), assignment, 6)
    assert out.coeff(("a", "b")).value == 1
    assert out.coeff(("a", "a", "b", "b")).value == 2


def test_substitute_truncates():
    b = BOOLEAN
    assignment = {"x": TruncatedSeries(b, 4, {("a", "a", "a"): b.one})}
    out = substitute(poly(b, "a x"), assignment, 3)
    assert support(out) == []


words = st.lists(
    st.tuples(st.sampled_from("ab"), st.sampled_from("ab")).map(tuple), max_size=4
)


@settings(max_examples=60)
@given(words, words, st.sampled_from(["a x x | b x | a", "a x b", "x x"]))
def test_substitute_monotone_in_assignment(lo_words, extra, ptext):
    # growing the assignment in the natural order can only grow the result
    b = BOOLEAN
    p = poly(b, ptext)
    small = TruncatedSeries(b, 3, dict.fromkeys(lo_words, b.one))
    big = TruncatedSeries(b, 3, dict.fromkeys(lo_words + extra, b.one))
    lo = substitute(p, {"x": small}, 5)
    hi = substitute(p, {"x": big}, 5)
    for w, c in lo.coeffs.items():
        assert hi.coeff(w) + c == hi.coeff(w)


# -- x/z splitting ----------------------------------------------------------------


def test_split_px_variable_free_vanishes():
    b = BOOLEAN
    out = split_px(poly(b, "a"), ("y1",), {"y1": "x1"}, {"y1": "z1"})
    assert out.is_zero()


def test_split_px_formula_instances():
    b = BOOLEAN
    x_of = {"y1": "x1", "y2": "x2"}
    z_of = {"y1": "z1", "y2": "z2"}
    out = split_px(poly(b, "a y1 y2"), ("y1", "y2"), x_of, z_of)
    assert out == poly(b, "a z1 | a x1 z2")
    # s w0 y1 w1 y1 -> s w0 z1 + s w0 x1 w1 z1
    out = split_px(poly(b, "a y1 b y1"), ("y1", "y2"), x_of, z_of)
    assert out == poly(b, "a z1 | a x1 b z1")


@settings(max_examples=40)
@given(st.integers(0, 3), st.integers(0, 3))
def test_split_px_linear_over_monomials(i, j):
    b = BOOLEAN
    x_of, z_of = {"y1": "x1"}, {"y1": "z1"}
    p = poly(b, ["a", "a y1", "a y1 y1", "b y1 a"][i])
    q = poly(b, ["b", "b y1", "a y1 b", "eps"][j])
    lhs = split_px(p + q, ("y1",), x_of, z_of)
    rhs = split_px(p, ("y1",), x_of, z_of) + split_px(q, ("y1",), x_of, z_of)
    assert lhs == rhs


# -- truncated series ----------------------------------------------------------------


def test_coeff_lookup_and_range_error():
    t = TROPICAL
    s = TruncatedSeries(t, 2, {("a", "b"): t.value(1)})
    assert s.coeff(()).value is not None and s.coeff(()).is_zero()
    assert s.coeff(("a", "b")).value == 1
    assert s.coeff(("b", "a")).is_zero()
    with pytest.raises(SeriesError):
        s.coeff(("a", "b", "a"))


def test_negative_truncation_is_refused():
    # a series truncated below the empty word has no coefficient to read,
    # so neither the constructor nor substitute builds one
    t = TROPICAL
    with pytest.raises(SeriesError):
        TruncatedSeries(t, -1, {})
    with pytest.raises(SeriesError):
        substitute(poly(t, "a"), {}, -1)


def test_series_zero_coeffs_dropped():
    # substitution keeps no zero coefficient, even where the assignment holds one
    t = TROPICAL
    s = substitute(poly(t, "x"), {"x": TruncatedSeries(t, 2, {("a",): t.zero})}, 2)
    assert support(s) == []


# -- lasso words ----------------------------------------------------------------------


def test_lasso_word_basics():
    w = LassoWord(("a", "b"), ("c", "d"))
    assert [letter(w, i) for i in range(6)] == ["a", "b", "c", "d", "c", "d"]
    assert segment(w, 1, 3) == ("b", "c", "d")
    assert str(w) == "a b:c d"
    with pytest.raises(SeriesError):
        LassoWord(("a",), ())


def test_lasso_shift():
    w = LassoWord(("a", "b"), ("c", "d"))
    assert shift(w, 1) == LassoWord(("b",), ("c", "d"))
    assert shift(w, 2) == LassoWord((), ("c", "d"))
    assert shift(w, 3) == LassoWord((), ("d", "c"))
    assert shift(w, 4) == LassoWord((), ("c", "d"))


# -- text syntax ------------------------------------------------------------------------


def test_polynomial_text_round_trip():
    t = TROPICAL
    for text in ["0", "a x1 b", "(1) a x1 b | (1) a b", "(2) eps | a", "eps"]:
        p = poly(t, text)
        assert poly(t, format_polynomial(p)) == p


def test_polynomial_parse_errors():
    with pytest.raises(SeriesError):
        poly(TROPICAL, "a | | b")
    with pytest.raises(SeriesError):
        poly(TROPICAL, "(1 a")
    with pytest.raises(SemiringError):
        poly(TROPICAL, "(x) a")
    with pytest.raises(SeriesError):
        poly(TROPICAL, "a eps b")
    with pytest.raises(SeriesError):
        parse_polynomial("a q", TROPICAL, lambda s: s == "a")
