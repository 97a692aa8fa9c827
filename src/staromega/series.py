"""Words, monomials, polynomials, truncated series and lasso words.

Words are tuples of symbol strings over a mixed alphabet of terminals and
variables.  Polynomials are kept canonical: monomials merged by word,
length-lex sorted, zero coefficients dropped.  `canonical_terms` does that
on raw (coefficient, word) terms; `Polynomial.build_raw` wraps its result,
and `Polynomial.build`, which every arithmetic operation goes through,
checks the coefficients' instance and hands their raw values to it.  Other
paths trust an input that is canonical already and skip that
work: `Polynomial.rename_symbols` reuses the coefficients and only re-sorts
(it falls back to `build` when two renamed words coincide); `_monomial`
makes a monomial without the zero test of `Monomial`, for coefficients its
callers have just tested; and the plain `Polynomial(instance, monomials)`
constructor checks nothing, so callers hand it only a subsequence of a
canonical polynomial's monomials, which is canonical itself.  Infinite
series are only ever materialised as truncations; ultimately periodic
omega-words are handled by the LassoWord value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .semiring import Ext, SemiringError, SemiringInstance, SemiringValue, _scalar

Word = tuple[str, ...]
EPSILON: Word = ()


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Terminal symbols plus the declared variable names, kept disjoint."""

    terminals: tuple[str, ...]
    variables: tuple[str, ...] = ()

    def __post_init__(self):
        symbols = self.terminals + self.variables
        if len(set(symbols)) == len(symbols):
            return
        overlap = set(self.terminals) & set(self.variables)
        if overlap:
            raise SeriesError(f"symbols both terminal and variable: {sorted(overlap)}")
        seen = set()
        for s in self.terminals + self.variables:
            if s in seen:
                raise SeriesError(f"duplicate symbol {s!r}")
            seen.add(s)


@dataclass(frozen=True, slots=True)
class Monomial:
    coeff: SemiringValue
    word: Word

    def __post_init__(self):
        if self.coeff.is_zero():
            raise SeriesError("zero monomials are not stored")


_new = object.__new__
_set_coeff = Monomial.coeff.__set__
_set_word = Monomial.word.__set__


def _monomial(coeff: SemiringValue, word: Word) -> Monomial:
    """A Monomial without the zero test: the caller has checked the coefficient."""
    m = _new(Monomial)
    _set_coeff(m, coeff)
    _set_word(m, word)
    return m


def canonical_terms(
    instance: SemiringInstance, terms: Iterable[tuple[Ext, Word]]
) -> list[tuple[Ext, Word]]:
    """Raw (coefficient, word) terms in canonical form: merged by word with
    `add_raw`, zeros dropped, length-lex sorted."""
    add = instance.add_raw
    acc: dict[Word, Ext] = {}
    for c, w in terms:
        prev = acc.get(w)
        acc[w] = c if prev is None else add(prev, c)
    zero = instance.zero_raw()
    # (length, word, coefficient): distinct words never compare coefficients
    items = sorted([(len(w), w, c) for w, c in acc.items()])
    return [(c, w) for _n, w, c in items if c != zero]


@dataclass(frozen=True)
class Polynomial:
    """A finite sum of monomials in canonical form.

    `build` canonicalises any terms; `rename_symbols` trusts that self is
    canonical and keeps it so without re-merging or re-testing coefficients.
    """

    instance: SemiringInstance
    monomials: tuple[Monomial, ...]

    @staticmethod
    def build(
        instance: SemiringInstance, terms: Iterable[tuple[SemiringValue, Word]]
    ) -> "Polynomial":
        raw = []
        for coeff, word in terms:
            if coeff.instance is not instance:
                raise SemiringError("monomial coefficient from a different instance")
            raw.append((coeff.value, word))
        return Polynomial.build_raw(instance, raw)

    @staticmethod
    def build_raw(instance: SemiringInstance, terms: Iterable[tuple[Ext, Word]]) -> "Polynomial":
        """The polynomial of raw (coefficient, word) terms, which the
        library computed itself from valid values."""
        return Polynomial(
            instance,
            tuple([_monomial(_scalar(instance, c), w) for c, w in canonical_terms(instance, terms)]),
        )

    @staticmethod
    def zero(instance: SemiringInstance) -> "Polynomial":
        return Polynomial(instance, ())

    @staticmethod
    def of_word(instance: SemiringInstance, word: Word) -> "Polynomial":
        return Polynomial.build(instance, [(instance.one, word)])

    def is_zero(self) -> bool:
        return not self.monomials

    def coeff_of(self, word: Word) -> SemiringValue:
        for m in self.monomials:
            if m.word == word:
                return m.coeff
        return self.instance.zero

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if other.instance is not self.instance:
            raise SemiringError("polynomials over different instances")
        return Polynomial.build(
            self.instance,
            [(m.coeff, m.word) for m in self.monomials]
            + [(m.coeff, m.word) for m in other.monomials],
        )

    def scale(self, c: SemiringValue) -> "Polynomial":
        if c.is_zero():
            return Polynomial.zero(self.instance)
        return Polynomial.build(
            self.instance, [(c * m.coeff, m.word) for m in self.monomials]
        )

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for m in self.monomials:
            out.update(m.word)
        return out

    def rename_symbols(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename symbols in every word, absent symbols stay.

        The coefficients are nonzero and the words distinct already, so only
        the order can change (a renamed variable may pass a terminal);
        `build` merges when the mapping sends two words to one.
        """
        get = mapping.get
        items = [
            (len(m.word), tuple([get(s, s) for s in m.word]), m.coeff) for m in self.monomials
        ]
        if len(items) > 1:
            if len({w for _n, w, _c in items}) < len(items):
                return Polynomial.build(self.instance, [(c, w) for _n, w, c in items])
            items.sort()
        return Polynomial(self.instance, tuple([_monomial(c, w) for _n, w, c in items]))


def split_px(
    p: Polynomial,
    y_vars: Iterable[str],
    x_of: Mapping[str, str],
    z_of: Mapping[str, str],
) -> Polynomial:
    """Omega-part expansion of a polynomial over terminals and y-variables.

    A monomial s w0 y1 w1 ... yk wk turns into the k-term sum with one z-variable
    at each cut and the preceding variables renamed to their x-copies; the
    trailing word past the cut is dropped.  Variable-free monomials vanish.
    """
    yset = set(y_vars)
    terms: list[tuple[SemiringValue, Word]] = []
    for m in p.monomials:
        var_positions = [i for i, s in enumerate(m.word) if s in yset]
        for cut in var_positions:
            prefix = tuple(
                x_of[s] if s in yset else s for s in m.word[:cut]
            )
            terms.append((m.coeff, prefix + (z_of[m.word[cut]],)))
    return Polynomial.build(p.instance, terms)


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite approximation of a series: coefficients of all words up to max_len."""

    instance: SemiringInstance
    max_len: int
    coeffs: Mapping[Word, SemiringValue] = field(default_factory=dict)

    def __post_init__(self):
        if self.max_len < 0:
            raise SeriesError(f"truncation {self.max_len} is negative")
        for w, c in self.coeffs.items():
            if len(w) > self.max_len:
                raise SeriesError(f"word {w} longer than truncation {self.max_len}")
            if c.instance is not self.instance:
                raise SemiringError("series coefficient from a different instance")

    def coeff(self, w: Word) -> SemiringValue:
        if len(w) > self.max_len:
            raise SeriesError(
                f"coefficient of word of length {len(w)} beyond truncation {self.max_len}"
            )
        c = self.coeffs.get(w)
        return self.instance.zero if c is None else c

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.instance is not other.instance or self.max_len != other.max_len:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeff(w) == other.coeff(w) for w in keys)

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")


def substitute(
    p: Polynomial,
    assignment: Mapping[str, TruncatedSeries],
    max_len: int,
    variables: Iterable[str] | None = None,
) -> TruncatedSeries:
    """Evaluate a polynomial under a variable assignment, truncated at max_len.

    Terminal symbols act as single-letter series.  When the variable set is
    supplied, unbound variables raise instead of being read as terminals.
    """
    if variables is not None:
        check_assignment_covers(p, assignment, variables)
    inst = p.instance
    out: dict[Word, SemiringValue] = {}
    for m in p.monomials:
        partial: dict[Word, SemiringValue] = {EPSILON: m.coeff}
        for sym in m.word:
            series = assignment.get(sym)
            nxt: dict[Word, SemiringValue] = {}
            if series is None:
                for w, c in partial.items():
                    if len(w) + 1 <= max_len:
                        key = w + (sym,)
                        prev = nxt.get(key)
                        nxt[key] = c if prev is None else prev + c
            else:
                for w, c in partial.items():
                    room = max_len - len(w)
                    for sw, sc in series.coeffs.items():
                        if len(sw) <= room:
                            key = w + sw
                            add = c * sc
                            prev = nxt.get(key)
                            nxt[key] = add if prev is None else prev + add
            partial = nxt
            if not partial:
                break
        for w, c in partial.items():
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
    return TruncatedSeries(
        inst, max_len, {w: c for w, c in out.items() if not c.is_zero()}
    )


def check_assignment_covers(p: Polynomial, assignment: Mapping[str, TruncatedSeries], variables: Iterable[str]) -> None:
    missing = [v for v in set(p.symbols()) & set(variables) if v not in assignment]
    if missing:
        raise SeriesError(f"unbound variables in substitution: {sorted(missing)}")


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic omega-word u v^omega with nonempty period v."""

    prefix: Word
    period: Word

    def __post_init__(self):
        if len(self.period) < 1:
            raise SeriesError("lasso period must be nonempty")

    def __str__(self) -> str:
        return f"{' '.join(self.prefix)}:{' '.join(self.period)}"


# -- polynomial text syntax --------------------------------------------------
#
#   poly      := '0' | alternative ('|' alternative)*
#   alternative := ['(' value ')'] (symbol* | 'eps')
#   value     := natural | 'inf' | '-inf'
#
# A missing coefficient means the multiplicative unit; 'eps' (or an empty
# symbol list after a coefficient) denotes the empty word.


def parse_polynomial(
    text: str,
    instance: SemiringInstance,
    symbol_check: Callable[[str], bool] | None = None,
) -> Polynomial:
    text = text.strip()
    if text == "0":
        return Polynomial.zero(instance)
    terms: list[tuple[SemiringValue, Word]] = []
    for alt in _split_alternatives(text):
        coeff, rest = _take_coeff(alt, instance)
        syms = rest.split()
        if syms == ["eps"] or not syms:
            word: Word = EPSILON
        else:
            word = tuple(syms)
            if "eps" in word:
                raise SeriesError("'eps' cannot be mixed with other symbols")
        if symbol_check is not None:
            for s in word:
                if not symbol_check(s):
                    raise SeriesError(f"undeclared symbol {s!r}")
        terms.append((coeff, word))
    return Polynomial.build(instance, terms)


def _split_alternatives(text: str) -> list[str]:
    parts = [p.strip() for p in text.split("|")]
    if any(p == "" for p in parts):
        raise SeriesError(f"empty alternative in polynomial {text!r}")
    return parts


def _take_coeff(alt: str, instance: SemiringInstance) -> tuple[SemiringValue, str]:
    alt = alt.strip()
    if alt.startswith("("):
        close = alt.find(")")
        if close < 0:
            raise SeriesError(f"unbalanced coefficient in {alt!r}")
        coeff = instance.parse_value(alt[1:close])
        return coeff, alt[close + 1 :]
    return instance.one, alt


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m in p.monomials:
        body = " ".join(m.word) if m.word else "eps"
        if m.coeff.is_one():
            parts.append(body)
        else:
            parts.append(f"({SemiringInstance.format_value(m.coeff)}) {body}")
    return " | ".join(parts)
