"""The synthetic corpora are pure functions of their seeds."""

import hashlib

import pytest

from bytepatch.data import markov_word_docs


@pytest.mark.parametrize("kwargs, sha256", [
    ({}, "abaf66ae4afb0583073f1f667b6a83d95f263ddf117017e3fdff1cbe294bf1d4"),
    ({"sentences_per_doc": (13, 17)}, "37e399acc1933db25f7449adb958c3a697cea07cfc3d9384aec0c3c08c6013b0"),
    ({"transition_seed": 7}, "084b7630a6eebf68e40bc925aa11cb31b793d1a6ac4959b07ba2adeff716cd7c"),
])
def test_markov_word_docs_are_pinned(kwargs, sha256):
    docs = markov_word_docs(seed=1, n_docs=50, **kwargs)
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == sha256
