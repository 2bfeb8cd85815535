"""Knowledge transfer and its ablations, end to end on synthetic data.

Pipeline: train the tagger, export its per-token transfer rows, then train
the same classifier three ways - plain, transfer-widened (-T), and
noise-widened (-R) - plus the multi-task model and the majority baseline.
Synthetic data is too easy to separate the variants by score; the point
here is the moving parts: widened inputs, frozen rows, shared encoders.
"""

import numpy as np

from absalab.ae import AeModel, ae_loss
from absalab.alsa import InputMode, MultitaskModel, alsa_loss, create_alsa_model, multitask_loss
from absalab.ae import encode_spans
from absalab.harness import export_transfer_cache, fit, majority_report, training_accuracy
from absalab.metrics import format_report
from absalab.optim import AdamConfig, ParamStore
from absalab.synthetic import synthetic_alsa_samples, synthetic_vocabulary

samples, vocab = synthetic_alsa_samples(num_samples=20, seed=5)

# 1) train a small tagger on the same sentences (aspect word = span gold)
store = ParamStore()
tagger = AeModel.create(store, vocab.matrix, hidden_dim=6, rng=np.random.default_rng(0))
tagging_items = [(s.token_ids, encode_spans([s.span], len(s.token_ids))) for s in samples]
fit(store, tagging_items, lambda item: ae_loss(tagger, *item), AdamConfig(lr=0.01), epochs=10, seed=0)

# 2) export frozen transfer rows, keyed by sentence id
cache = export_transfer_cache(tagger, [(s.sentence_id, s.token_ids) for s in samples])
width = tagger.transfer_dim
print(f"exported {len(cache)} transfer matrices of width {width}")

# 3) one classifier per input mode
modes = {
    "plain": (InputMode.plain(), vocab.dim),
    "transfer (-T)": (InputMode.transfer(cache, width), vocab.dim + width),
    "noise (-R)": (InputMode.noise(width, seed=9), vocab.dim + width),
}
for name, (mode, d_in) in modes.items():
    st = ParamStore()
    model = create_alsa_model(st, "atae", d_in=d_in, hidden=12, rng=np.random.default_rng(4))
    fit(st, samples, lambda s: alsa_loss(model, s, mode, vocab.matrix), AdamConfig(lr=0.01), epochs=12, seed=1)
    acc = training_accuracy(model, samples, mode, vocab.matrix)
    print(f"{name:>14s}: input width {d_in:>2d}, training accuracy {acc:.2f}")

# 4) the multi-task model shares one BiGRU between tagging and classification
st = ParamStore()
mt = MultitaskModel.create(st, vocab.matrix, shared_hidden=6, alsa_hidden=12,
                           rng=np.random.default_rng(5))
fit(st, list(zip(samples, tagging_items)),
    lambda item: multitask_loss(mt, *item[1], item[0].span, item[0].label),  # item = (sample, (ids, bio))
    AdamConfig(lr=0.01), epochs=12, seed=1)
mt_acc = training_accuracy(mt, samples, InputMode.plain(), vocab.matrix)
print(f"{'multi-task':>14s}: joint tagging+classification, training accuracy {mt_acc:.2f}")

# 5) majority baseline and sliced metrics
report = majority_report(samples, samples)
print()
print(format_report(report, "majority baseline on the synthetic set"))
