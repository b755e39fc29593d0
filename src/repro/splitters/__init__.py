"""Splitters: unary spanners that segment documents (Section 3).

Builders for the Introduction's catalogue of splitters plus the
disjointness decision procedure of Proposition 5.5.
"""

from repro.splitters.builders import (
    SPLIT_VAR,
    build_named,
    executor_named,
    char_ngram_splitter,
    known_splitter_names,
    registry,
    consecutive_sentence_pairs,
    fixed_window_splitter,
    paragraph_splitter,
    record_splitter,
    sentence_splitter,
    separator_splitter,
    token_ngram_splitter,
    token_splitter,
    whole_document_splitter,
)
from repro.splitters.disjointness import (
    is_disjoint,
    overlap_witness,
    overlap_witness_exists,
)

__all__ = [
    "SPLIT_VAR",
    "build_named",
    "executor_named",
    "char_ngram_splitter",
    "known_splitter_names",
    "registry",
    "consecutive_sentence_pairs",
    "fixed_window_splitter",
    "paragraph_splitter",
    "record_splitter",
    "sentence_splitter",
    "separator_splitter",
    "token_ngram_splitter",
    "token_splitter",
    "whole_document_splitter",
    "is_disjoint",
    "overlap_witness",
    "overlap_witness_exists",
]
