import random
from pathlib import Path

import pytest

from convpr.tokenization import (
    _TOKEN_RE,
    ENGLISH_STOPWORDS,
    TokenizerConfig,
    porter_stem,
    tokenize,
)

FIXTURES = Path(__file__).parent / "fixtures"
ALL_ASCII = "".join(map(chr, range(128)))
# Non-ASCII letters (é; İ, whose lowercase grows a combining dot; ß, Ω, ж),
# an Arabic-Indic digit, an em dash, a no-break space and a combining accent.
NON_ASCII = "éİß٣—\u00a0\u0301Ωж"


def test_splits_on_non_alphanumeric_and_lowercases():
    assert tokenize("What is a physician's assistant?") == [
        "what", "is", "a", "physician", "s", "assistant",
    ]


def test_empty_input():
    assert tokenize("") == []
    assert tokenize("   \t\n") == []


def test_duplicates_preserved():
    assert tokenize("BM25 BM25") == ["bm25", "bm25"]


def test_underscore_and_punctuation_split():
    assert tokenize("foo_bar, baz--qux!") == ["foo", "bar", "baz", "qux"]


def test_unicode_letters_kept():
    assert tokenize("Café au lait") == ["café", "au", "lait"]


@pytest.mark.parametrize(
    "text",
    ["Hello, world!", "What's the average starting salary in the UK?", "a b a b", ""],
)
def test_idempotent_on_joined_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def _equivalence_inputs() -> list[str]:
    """Texts on which the ASCII fast path and the Unicode regex must agree:
    every ASCII character, random ASCII, random mixed text and the fixture
    corpus. Seeded, so a failure reproduces."""
    rng = random.Random(20)
    ascii_pool = ALL_ASCII + "aeiou etn  " * 4
    mixed_pool = ascii_pool + NON_ASCII * 3
    texts = [ALL_ASCII, ALL_ASCII.upper()]
    texts += ["".join(rng.choices(ascii_pool, k=rng.randint(0, 60))) for _ in range(3000)]
    texts += ["".join(rng.choices(mixed_pool, k=rng.randint(1, 60))) for _ in range(1000)]
    lines = (FIXTURES / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    texts += [line.split("\t", 1)[1] for line in lines if line]
    return texts


@pytest.mark.parametrize("stem,remove_stopwords", [(False, False), (True, True)])
def test_ascii_fast_path_matches_the_regex(stem, remove_stopwords):
    texts = _equivalence_inputs()
    assert any(t.isascii() for t in texts) and any(not t.isascii() for t in texts)
    for text in texts:
        expected = _TOKEN_RE.findall(text.lower())
        if remove_stopwords:
            expected = [t for t in expected if t not in ENGLISH_STOPWORDS]
        if stem:
            expected = [porter_stem(t) for t in expected]
        assert tokenize(text, stem=stem, remove_stopwords=remove_stopwords) == expected, text


def test_documents_and_queries_share_the_code_path():
    config = TokenizerConfig()
    text = "Tell me more about tiger sharks."
    assert config(text) == tokenize(text)


def test_stopword_removal_flag():
    assert tokenize("the cat and the hat", remove_stopwords=True) == ["cat", "hat"]
    assert "the" in ENGLISH_STOPWORDS and "and" in ENGLISH_STOPWORDS


def test_stemming_flag():
    assert tokenize("running runs", stem=True) == ["run", "run"]
    assert tokenize("running runs") == ["running", "runs"]


# End-to-end outputs of the classic stemming algorithm (all steps applied).
@pytest.mark.parametrize(
    "word,stemmed",
    [
        ("caresses", "caress"),
        ("flies", "fli"),
        ("dies", "di"),
        ("mules", "mule"),
        ("denied", "deni"),
        ("died", "di"),
        ("agreed", "agre"),
        ("owned", "own"),
        ("humbled", "humbl"),
        ("sized", "size"),
        ("meeting", "meet"),
        ("stating", "state"),
        ("itemization", "item"),
        ("sensational", "sensat"),
        ("traditional", "tradit"),
        ("reference", "refer"),
        ("colonizer", "colon"),
        ("plotted", "plot"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("plastered", "plaster"),
        ("bled", "bled"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("hopping", "hop"),
        ("tanned", "tan"),
        ("falling", "fall"),
        ("hissing", "hiss"),
        ("failing", "fail"),
        ("filing", "file"),
        ("happy", "happi"),
        ("sky", "sky"),
        ("rational", "ration"),
        ("feudalism", "feudal"),
        ("triplicate", "triplic"),
        ("formative", "form"),
        ("formaliti", "formal"),
        ("callousness", "callous"),
        ("hopeful", "hope"),
        ("hopefulness", "hope"),
        ("goodness", "good"),
        ("revival", "reviv"),
        ("allowance", "allow"),
        ("inference", "infer"),
        ("replacement", "replac"),
        ("adoption", "adopt"),
        ("adjustment", "adjust"),
        ("probate", "probat"),
        ("rate", "rate"),
        ("cease", "ceas"),
        ("controll", "control"),
        ("roll", "roll"),
        ("by", "by"),
    ],
)
def test_porter_reference_pairs(word, stemmed):
    assert porter_stem(word) == stemmed
