"""Aspect extraction end to end on a synthetic corpus.

Trains the BiGRU-CRF tagger until it tags every synthetic sentence
perfectly, decodes BIO label paths into spans, and exports the frozen
per-token transfer rows that the sentiment models consume.
"""

import numpy as np

from absalab.ae import AeModel, ae_forward, ae_loss, decode_spans
from absalab.crf import viterbi
from absalab.harness import corpus_span_f1, export_transfer_cache
from absalab.optim import AdamConfig, ParamStore, adam_step, forward_backward
from absalab.synthetic import synthetic_tagging_corpus, synthetic_vocabulary

vocab = synthetic_vocabulary(dim=12)
corpus = synthetic_tagging_corpus(num_sentences=10, seed=3)
items = [(vocab.ids(tokens), bio) for tokens, bio in corpus]

print("corpus:")
for tokens, bio in corpus[:4]:
    print("  ", list(zip(tokens, bio)))

store = ParamStore()
model = AeModel.create(store, vocab.matrix, hidden_dim=8, rng=np.random.default_rng(0))
print("transfer width:", model.transfer_dim)

cfg = AdamConfig(lr=0.01)
order = np.random.default_rng(1)
steps = 0
while corpus_span_f1(model, items) < 100.0 and steps < 500:
    for i in order.permutation(len(items)):
        ids, bio = items[i]
        forward_backward(store, lambda: ae_loss(model, ids, bio))
        adam_step(store, cfg)
        steps += 1
print(f"span F1 = {corpus_span_f1(model, items):.1f} after {steps} steps")

tokens, bio = corpus[0]
emissions, _ = ae_forward(model, vocab.ids(tokens))
decoded = viterbi(emissions, model.crf)
print("sentence:", tokens)
print("gold:   ", bio)
print("decoded:", decoded)
print("spans:  ", decode_spans(decoded))

# The trained tagger's per-token states, exported per sentence id.
cache = export_transfer_cache(model, [(f"sent-{i}", ids) for i, (ids, _) in enumerate(items)])
first = cache["sent-0"]
print("exported transfer rows for sent-0:", first.shape)
print("rows are frozen numpy data, detached from the graph:", type(first).__name__)
