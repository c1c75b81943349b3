import pytest

from convpr import _bm25
from convpr.corpus import Passage
from convpr.index import build_index


@pytest.fixture(params=[_bm25.get_backend()])
def kernel(request):
    """The BM25 scoring kernel the index tests run under. There is one
    (numpy); the parameter keeps those tests' ids (``[numpy]``) stable."""
    return request.param


def passages_from(docs: dict[str, list[str]]) -> list[Passage]:
    """Turn oracle-style token-list corpora into Passage objects whose text
    tokenizes back to exactly those tokens."""
    return [Passage(doc_id, " ".join(tokens)) for doc_id, tokens in docs.items()]


def index_from(docs: dict[str, list[str]]):
    return build_index(passages_from(docs))
