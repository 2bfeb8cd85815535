"""Dataset ingestion and the file-based experiment harness on the fixtures.

Parses SemEval-style XML, shows tokenization and the BIO gold, the
class/SA/MA distributions, the processed-dataset cache, and a complete
train -> checkpoint -> evaluate round trip through the harness. Point
`data_dir` at the real SemEval-2014 files to run the same flow at scale.
"""

import json
import tempfile
from pathlib import Path

from absalab.ae import encode_spans
from absalab.data import (
    Vocabulary,
    build_dataset,
    collect_tokens,
    parse_semeval,
    polarity_counts,
    read_dataset_cache,
    split_sa_ma,
    tokenize,
    write_dataset_cache,
)
from absalab.harness import ExperimentConfig, evaluate, load_domain, train
from absalab.metrics import format_report

data_dir = Path(__file__).parent.parent / "tests" / "fixtures"

parsed = parse_semeval((data_dir / "laptop_train.xml").read_text(encoding="utf-8"))
print(f"parsed {len(parsed)} sentences")

record = parsed[0]
tokens = tokenize(record.text)
print("text:     ", record.text)
print("tokens:   ", [t.text for t in tokens])
print("offsets:  ", [(t.char_start, t.char_end) for t in tokens])
print("BIO gold: ", encode_spans(record.spans, len(tokens)))

vocab = Vocabulary.random(collect_tokens(parsed), dim=8)
dataset = build_dataset(parsed, "laptop", vocab)
sa, ma = split_sa_ma(dataset.samples)
print("polarity counts (pos, neg, neu):", polarity_counts(dataset.samples))
print(f"single-aspect {len(sa)}, multi-aspect {len(ma)} of {len(dataset.samples)} samples")

with tempfile.TemporaryDirectory() as tmp:
    cache_path = Path(tmp) / "laptop_train.jsonl"
    write_dataset_cache(cache_path, dataset)
    print("cache record:", json.dumps(json.loads(cache_path.read_text().splitlines()[0]))[:110], "...")
    reloaded = read_dataset_cache(cache_path, vocab)
    assert reloaded.samples == dataset.samples

    # full harness round trip on the fixture corpus
    config = ExperimentConfig(
        task="alsa", architecture="atae", domain="laptop",
        data_dir=str(data_dir), checkpoint_dir=str(Path(tmp) / "runs"),
        embedding_dim=8, alsa_hidden=6, epochs=3, seed=11, dev_fraction=0.2, lr=0.01,
    )
    result = train(config)
    print("epoch log:", [round(r["train_loss"], 3) for r in result.log])
    print("checkpoint:", Path(result.best_checkpoint).name)

    datasets, vocab_full = load_domain(config)
    report = evaluate(result.best_checkpoint, datasets["test"].samples, vocab_full.matrix)
    print()
    print(format_report(report, "fixture test split"))
