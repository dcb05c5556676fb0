"""Corpus ingestion and the synthetic desk-scale corpora.

Documents are UTF-8 text files (one document per .txt file) or line-delimited
records with a "text" field. Loading order is sorted paths followed by a
seeded shuffle, so splits are reproducible. Every document gets a trailing
`EOT` (0x00) byte; the same byte starts every training window as its BOS and
ends generation.

The synthetic generators produce three families used throughout the tests:
a word-graph corpus with low conditional entropy (teacher food), a
compound-word corpus whose token boundaries are ambiguous without one byte of
lookahead, and a shifted-transition variant of the word graph for fine-tuning
experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tokenizer import utf8_to_bytes

EOT = 0  # document terminator, every window's BOS byte and generate's stop byte
MIN_WINDOW_BYTES = 16  # shortest document tail kept as a training window


class DataError(ValueError):
    pass


@dataclass
class CorpusManifest:
    train: list[bytes] = field(default_factory=list)
    heldout: list[bytes] = field(default_factory=list)


def load_corpus(path: str | Path, seed: int = 0, holdout_frac: float = 0.1) -> CorpusManifest:
    """Read .txt and .jsonl documents under `path`, append the terminator
    byte, shuffle deterministically, and split off a `holdout_frac` share,
    in [0, 1), of the documents. A .jsonl line is blank or a JSON object
    with a string "text"."""
    if not 0 <= holdout_frac < 1:
        raise DataError(f"holdout_frac must be in [0, 1), got {holdout_frac}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"corpus path {path} does not exist")
    docs: list[bytes] = []
    files = sorted(path.rglob("*.txt")) + sorted(path.rglob("*.jsonl"))
    if path.is_file():
        files = [path]
    for f in files:
        if f.suffix == ".txt":
            text = f.read_text(encoding="utf-8")
            if text.strip():
                docs.append(utf8_to_bytes(text) + bytes([EOT]))
        else:
            for lineno, line in enumerate(f.read_text(encoding="utf-8").splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as e:
                    raise DataError(f"{f}:{lineno}: not JSON: {e}") from None
                if not isinstance(rec, dict) or not isinstance(rec.get("text"), str):
                    raise DataError(f"{f}:{lineno}: not a JSON object with a string \"text\"")
                if rec["text"].strip():
                    docs.append(utf8_to_bytes(rec["text"]) + bytes([EOT]))
    if not docs:
        raise DataError(f"no documents under {path}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(docs))
    docs = [docs[i] for i in order]
    n_hold = max(1, int(round(holdout_frac * len(docs)))) if len(docs) > 1 else 0
    return CorpusManifest(train=docs[n_hold:], heldout=docs[:n_hold])


def write_corpus(path: str | Path, docs: list[str]) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    width = len(str(len(docs)))
    for i, text in enumerate(docs):
        (path / f"doc{i:0{width}d}.txt").write_text(text, encoding="utf-8")


# -- synthetic corpora ----------------------------------------------------------

# prefix-free (no word is a prefix of another), so subword merges stay clean
WORD_LIST = """cat dog sun sky tree bird fish rock lake rain snow fire leaf moon star cloud
river stone grass house mouse horse sheep plant bread water light night dream smile storm
garden window basket yellow purple orange silver copper autumn winter spring summer""".split()


def markov_word_docs(
    seed: int,
    n_docs: int = 200,
    branching: int = 4,
    sentences_per_doc: tuple[int, int] = (4, 9),
    words_per_sentence: tuple[int, int] = (5, 11),
    transition_seed: int | None = None,
) -> list[str]:
    """Low-entropy word-graph text: every word has `branching` possible
    successors, so a competent model reaches ~log(branching) nats per word.
    `transition_seed` reshuffles only the graph edges, giving a shifted
    distribution over the same vocabulary for fine-tuning experiments."""
    rng = np.random.default_rng(seed)
    words = WORD_LIST
    trng = np.random.default_rng(transition_seed if transition_seed is not None else 1235)
    successors = {w: trng.choice(words, size=branching, replace=False) for w in words}
    docs = []
    for _ in range(n_docs):
        parts = []
        for _ in range(int(rng.integers(*sentences_per_doc))):
            w = words[int(rng.integers(len(words)))]
            sent = [w]
            for _ in range(int(rng.integers(*words_per_sentence)) - 1):
                w = str(rng.choice(successors[w]))
                sent.append(w)
            parts.append(" ".join(sent) + ".")
        docs.append(" ".join(parts))
    return docs


COMPOUND_PAIRS = [
    ("flower", "flowerbed"),
    ("rain", "rainbow"),
    ("sun", "sunflower"),
    ("book", "bookshelf"),
    ("fire", "firefly"),
    ("water", "waterfall"),
]
FILLERS = ["the", "a", "near", "saw", "old", "grew", "by", "under"]


def compound_docs(seed: int, n_docs: int = 150, words_per_doc: tuple[int, int] = (30, 60)) -> list[str]:
    """Text where a word is a bare stem or its compound with equal odds, so
    whether a token boundary falls after the stem depends on the next byte."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        out = []
        for _ in range(int(rng.integers(*words_per_doc))):
            if rng.random() < 0.4:
                out.append(FILLERS[int(rng.integers(len(FILLERS)))])
            else:
                stem, compound = COMPOUND_PAIRS[int(rng.integers(len(COMPOUND_PAIRS)))]
                out.append(compound if rng.random() < 0.5 else stem)
        docs.append(" ".join(out) + ".")
    return docs


# -- fixed-length training windows ---------------------------------------------

def make_windows(docs: list[bytes], content_bytes: int) -> list[bytes]:
    """Chunk documents into windows of `content_bytes`; each window later gets
    its own BOS byte, so recurrent state resets at window boundaries. Short
    tails survive down to `MIN_WINDOW_BYTES` so terminator bytes stay in
    training."""
    if content_bytes < MIN_WINDOW_BYTES:
        raise DataError(f"{content_bytes}-byte windows are below the {MIN_WINDOW_BYTES}-byte minimum")
    out = []
    for doc in docs:
        for start in range(0, len(doc), content_bytes):
            w = doc[start : start + content_bytes]
            if len(w) >= MIN_WINDOW_BYTES:
                out.append(w)
    if not out:
        raise DataError(f"no training windows: every document is shorter than the "
                        f"{MIN_WINDOW_BYTES}-byte minimum")
    return out
