"""The three aspect-level sentiment architectures on synthetic samples.

Each model maps (word matrix, aspect span) to three class logits. The two
attention models also return their attention weights, which make useful
diagnostics: after training, the mass should sit on the sentiment markers.
"""

import numpy as np

from absalab.alsa import InputMode, alsa_forward, alsa_loss, build_input, create_alsa_model
from absalab.harness import fit, training_accuracy
from absalab.optim import AdamConfig, ParamStore
from absalab.synthetic import synthetic_alsa_samples

samples, vocab = synthetic_alsa_samples(num_samples=20, seed=5)
print("sample sentences:")
for s in samples[:3]:
    print("  ", " ".join(s.tokens), "| aspect:", s.tokens[s.span.start:s.span.end + 1],
          "| label:", ("positive", "negative", "neutral")[s.label])

mode = InputMode.plain()
for arch in ("tclstm", "atae", "ian"):
    store = ParamStore()
    model = create_alsa_model(store, arch, d_in=vocab.dim, hidden=16,
                              rng=np.random.default_rng(2))
    log, _, _ = fit(store, samples, lambda s: alsa_loss(model, s, mode, vocab.matrix),
                    AdamConfig(lr=0.01), epochs=15, seed=3)
    acc = training_accuracy(model, samples, mode, vocab.matrix)
    print(f"{arch:>7s}: {len(store.names())} parameter tensors, "
          f"final epoch loss {log[-1]['train_loss']:.4f}, training accuracy {acc:.2f}")

    if arch == "atae":
        sample = samples[0]
        words, _ = build_input(sample, mode, vocab.matrix)
        _, alphas = alsa_forward(model, words, sample.span)
        weights = alphas["sentence"].data
        ranked = sorted(zip(sample.tokens, weights), key=lambda kv: -kv[1])
        print("          attention after training:",
              [(token, round(float(w), 3)) for token, w in ranked[:3]])
