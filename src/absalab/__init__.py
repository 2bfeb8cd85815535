"""Aspect-based sentiment analysis laboratory.

A self-contained numpy implementation of an aspect-extraction tagger
(BiGRU + linear-chain CRF), three aspect-level sentiment classifiers,
and the knowledge-transfer scheme that concatenates the extractor's
per-token representations onto classifier inputs, together with noise
and multi-task ablations, a majority baseline, and a macro-F1 harness.
"""

__version__ = "0.1.0"
