"""Text normalization shared by document indexing and query processing.

Documents and queries must pass through the identical code path so that
term statistics line up: index builds, queries, query expansion, external
rewrites and ``analyze bleu`` (``cli.cmd_analyze_bleu``, through a
:class:`TokenizerConfig`) all call :func:`tokenize`.

ASCII text takes a translate-and-split path, other text the regex
:data:`_TOKEN_RE`; both give the same tokens, so an index build gains speed
in proportion to the collection's share of ASCII passages.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass

# Letters and digits only: underscores and all punctuation split tokens,
# so "physician's" becomes ["physician", "s"].
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# On ASCII, [^\W_] matches exactly [A-Za-z0-9]: map everything else to a space.
_ASCII_SPLIT = str.maketrans({chr(c): " " for c in range(128) if not chr(c).isalnum()})

# Lucene's default English stop set (33 words).
ENGLISH_STOPWORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)


def tokenize(text: str, stem: bool = False, remove_stopwords: bool = False) -> list[str]:
    """Lowercase *text* and split it on runs of non-alphanumeric characters.

    Stopword removal happens before stemming, mirroring the classic analyzer
    ordering. Both switches default to off: the plain rule is deterministic
    and needs no language resources. Empty input yields an empty list.
    """
    if text.isascii():
        tokens = text.lower().translate(_ASCII_SPLIT).split()
    else:
        tokens = _TOKEN_RE.findall(text.lower())
    if remove_stopwords:
        tokens = [t for t in tokens if t not in ENGLISH_STOPWORDS]
    if stem:
        tokens = [porter_stem(t) for t in tokens]
    return tokens


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenizer switches carried alongside an index so queries reuse them."""

    stem: bool = False
    remove_stopwords: bool = False

    def __call__(self, text: str) -> list[str]:
        return tokenize(text, stem=self.stem, remove_stopwords=self.remove_stopwords)

    def to_dict(self) -> dict:
        return {"stem": self.stem, "remove_stopwords": self.remove_stopwords}

    @classmethod
    def from_dict(cls, d: Mapping) -> "TokenizerConfig":
        if not isinstance(d, Mapping):
            raise ValueError(f"tokenizer must be a mapping of stem and remove_stopwords, got {d!r}")
        # Real booleans only: bool("false") is True and would stem silently.
        for key in ("stem", "remove_stopwords"):
            if not isinstance(d.get(key, False), bool):
                raise ValueError(f"tokenizer.{key} must be true or false, got {d[key]!r}")
        return cls(stem=d.get("stem", False), remove_stopwords=d.get("remove_stopwords", False))


# ---------------------------------------------------------------------------
# Porter stemmer (the classic 1980 algorithm). Self-contained because no
# stemming package is guaranteed in the target environment; only active when
# tokenize(..., stem=True) is requested.
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        # y is a consonant at the start or after a vowel.
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel→consonant transitions: the m of [C](VC)^m[V]."""
    n = len(stem)
    i = 0
    while i < n and _is_cons(stem, i):
        i += 1
    m = 0
    while i < n:
        while i < n and not _is_cons(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_cons(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant with the final consonant not w, x or y.
    if len(word) < 3:
        return False
    n = len(word)
    return (
        _is_cons(word, n - 3)
        and not _is_cons(word, n - 2)
        and _is_cons(word, n - 1)
        and word[-1] not in "wxy"
    )


_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def porter_stem(word: str) -> str:
    """Stem one lowercase token. Tokens of length <= 2 are left unchanged."""
    if len(word) <= 2:
        return word

    # Step 1a: plurals.
    if word.endswith("sses") or word.endswith("ies"):
        word = word[:-2]
    elif not word.endswith("ss") and word.endswith("s"):
        word = word[:-1]

    # Step 1b: -eed / -ed / -ing.
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        stripped = False
        if word.endswith("ed") and _has_vowel(word[:-2]):
            word = word[:-2]
            stripped = True
        elif word.endswith("ing") and _has_vowel(word[:-3]):
            word = word[:-3]
            stripped = True
        if stripped:
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_cons(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c: y → i after a vowel.
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2: only the first (longest) matching suffix is attempted.
    for suffix, repl in _STEP2:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                word = stem + repl
            break

    # Step 3.
    for suffix, repl in _STEP3:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                word = stem + repl
            break

    # Step 4: drop the suffix entirely when the stem is long enough.
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 1 and (suffix != "ion" or stem.endswith(("s", "t"))):
                word = stem
            break

    # Step 5a: trailing e.
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # Step 5b: -ll → -l for long stems.
    if _measure(word) > 1 and _ends_double_cons(word) and word.endswith("l"):
        word = word[:-1]

    return word
