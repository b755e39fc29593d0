"""The premise E1-E4 time under: every workload extractor, split by
sentences, returns exactly what it returns on the whole document.

Collected by tier-1 (unlike the ``bench_*`` files), on a small sample
of the corpus generator each benchmark uses.
"""

import pytest

from benchmarks.corpora import (
    reuters_like_corpus,
    review_corpus,
    skewed_prose_corpus,
)
from benchmarks.workloads import (
    EventExtractor,
    SentimentTargetExtractor,
    TokenNgramExtractor,
    sentence_splitter_fast,
)
from repro.runtime import evaluate_whole, split_by

PROSE = skewed_prose_corpus(n_documents=8, total_sentences=120, seed=11,
                            head_fraction=0.6)

WORKLOADS = [
    pytest.param(TokenNgramExtractor(2, work=1), PROSE, id="e1-e2-bigrams"),
    pytest.param(TokenNgramExtractor(3, work=1), PROSE, id="e1-trigrams"),
    pytest.param(EventExtractor(work=1),
                 reuters_like_corpus(n_articles=12, mean_sentences=8,
                                     seed=37),
                 id="e3-events"),
    pytest.param(SentimentTargetExtractor(work=1),
                 review_corpus(n_reviews=12, mean_sentences=3, seed=41),
                 id="e4-sentiment"),
]


@pytest.mark.parametrize("extractor, documents", WORKLOADS)
def test_sentence_split_plan_equals_whole_document(extractor, documents):
    sentences = sentence_splitter_fast()
    whole = [evaluate_whole(extractor, d) for d in documents]
    assert [split_by(extractor, sentences, d) for d in documents] == whole
    assert any(whole)  # the sample actually exercises the extractor
