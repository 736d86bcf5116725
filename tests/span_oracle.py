"""List-based BIO decoding and span matching, one document at a time.

These are the reference implementations that the array code in
``fedlora.metrics`` is tested against: ``decode_bio`` walks one document's
tags token by token, and ``span_counts`` runs a general maximum bipartite
matching over one document's span lists.  ``to_spans`` and ``to_lists``
convert between per-document span lists and the flat ``Spans`` arrays.
"""

import numpy as np

from fedlora.metrics import Scheme, Span, Spans, _max_matching, _span_compatible


def tag_entity_type(tag: int) -> int:
    return 0 if tag == 0 else (tag - 1) // 2 + 1


def tag_opens(tag: int) -> bool:
    return tag != 0 and (tag - 1) % 2 == 0


def decode_bio(tags) -> list[Span]:
    """One document's spans; a continuation tag without a live span of its
    type opens a new one."""
    tags = [int(t) for t in tags]
    spans: list[Span] = []
    open_start = None
    open_type = None
    for i, tag in enumerate(tags):
        etype = tag_entity_type(tag)
        if etype == 0:
            if open_start is not None:
                spans.append(Span(open_start, i, open_type))
                open_start = None
            continue
        if tag_opens(tag) or open_start is None or open_type != etype:
            if open_start is not None:
                spans.append(Span(open_start, i, open_type))
            open_start, open_type = i, etype
    if open_start is not None:
        spans.append(Span(open_start, len(tags), open_type))
    return spans


def span_counts(gold: list[Span], pred: list[Span], scheme: Scheme) -> tuple[int, int, int]:
    """One document's (tp, fp, fn) under a maximum one-to-one matching."""
    tp = _max_matching(len(gold), len(pred), lambda i, j: _span_compatible(gold[i], pred[j], scheme))
    return tp, len(pred) - tp, len(gold) - tp


def to_spans(docs: list[list[Span]]) -> Spans:
    """Per-document span lists as flat ``Spans``."""
    rows = [(d, s.start, s.end, s.entity_type) for d, spans in enumerate(docs) for s in spans]
    columns = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return Spans(*columns, docs=len(docs))


def to_lists(spans: Spans) -> list[list[Span]]:
    """Flat ``Spans`` as per-document span lists, each in ``Spans`` order."""
    docs = [[] for _ in range(spans.docs)]
    for d, start, end, etype in zip(*(column.tolist() for column in spans[:4])):
        docs[d].append(Span(start, end, etype))
    return docs
