"""A lasso word u v^omega read letter by letter, for the reference unfoldings
that split a value at its first letters."""

from staromega.series import LassoWord, Word


def letter(w: LassoWord, pos: int) -> str:
    if pos < len(w.prefix):
        return w.prefix[pos]
    return w.period[(pos - len(w.prefix)) % len(w.period)]


def segment(w: LassoWord, pos: int, length: int) -> Word:
    return tuple(letter(w, pos + i) for i in range(length))


def shift(w: LassoWord, k: int) -> LassoWord:
    """The same omega-word with the first k letters consumed."""
    if k <= len(w.prefix):
        return LassoWord(w.prefix[k:], w.period)
    r = (k - len(w.prefix)) % len(w.period)
    return LassoWord((), w.period[r:] + w.period[:r])
