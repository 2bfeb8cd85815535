"""Command-line surface over the experiment harness.

Every subcommand accepts ``--config FILE`` (plain ``key = value`` lines)
plus flags mirroring the config fields; flags win over the file. Exit
code is 0 on success; failures print one machine-parseable JSON line
``{"error": ...}`` to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .checkpoint import load_archive, save_archive
from .data import Vocabulary, build_dataset, polarity_counts, split_sa_ma
from .harness import (
    ConfigError,
    ExperimentConfig,
    cross_domain_run,
    dump_attention,
    evaluate,
    grid_search,
    input_mode_from_meta,
    load_corpus,
    load_domain,
    load_model,
    majority_report,
    parse_kv_file,
    train,
    transfer_rows,
    transfer_width,
)
from .metrics import format_report


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, metavar=f.name.upper())


def _config_from_args(args: argparse.Namespace, **forced) -> ExperimentConfig:
    mapping: dict = {}
    if args.config:
        mapping.update(parse_kv_file(args.config))
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            mapping[f.name] = value
    mapping.update(forced)
    return ExperimentConfig.from_mapping(mapping)


def _load_split(config: ExperimentConfig, split: str):
    """The split's dataset, its vocabulary, and the transfer rows of `st_cache_path` if set."""
    datasets, vocab = load_domain(config, require=(split,))
    return datasets[split], vocab, load_archive(config.st_cache_path) if config.st_cache_path else None


def _print_report(report, title: str) -> None:
    print(format_report(report, title))
    print(json.dumps(report.to_record(), sort_keys=True))


def _cmd_train(args) -> int:
    config = _config_from_args(args, **args.forced)
    result = train(config)
    for record in result.log:
        print(json.dumps(record, sort_keys=True))
    if result.best_dev is not None and result.dev_key == "dev_macro_f1":
        print(f"best dev macro F1: {result.best_dev:.2f}")
    if result.best_checkpoint:
        print(f"checkpoint: {result.best_checkpoint}")
    return 0


def _cmd_export_st(args) -> int:
    datasets, vocab = load_domain(_config_from_args(args), require=())
    cache, _ = transfer_rows(args.checkpoint, datasets, vocab)
    width = transfer_width(cache, args.checkpoint)
    save_archive(args.out, cache)
    print(f"wrote {len(cache)} transfer matrices (width {width}) to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = _config_from_args(args)
    dataset, vocab, st_source = _load_split(config, args.split)
    report = evaluate(args.checkpoint, dataset.samples, vocab.matrix, st_source=st_source)
    _print_report(report, f"{args.checkpoint} on {config.domain} {args.split}")
    return 0


def _cmd_grid_search(args) -> int:
    config = _config_from_args(args)
    grid: dict[str, list] = {}
    for spec in args.grid:
        if "=" not in spec:
            raise ConfigError(f"--grid expects key=v1,v2,... got {spec!r}")
        key, values = (part.strip() for part in spec.split("=", 1))
        if key in grid:
            raise ConfigError(f"--grid key {key!r} given twice")
        grid[key] = [v.strip() for v in values.split(",") if v.strip()]
    rows = grid_search(config, grid)
    for rank, row in enumerate(rows, start=1):
        print(json.dumps({"rank": rank, **row}, sort_keys=True))
    return 0


def _cmd_cross_domain(args) -> int:
    config = _config_from_args(args)
    report = cross_domain_run(config, args.checkpoint)
    _print_report(report, f"extractor {report.extras['ae_domain']} -> classifier {config.domain}")
    return 0


def _cmd_dump_attention(args) -> int:
    config = _config_from_args(args)
    dataset, vocab, st_source = _load_split(config, args.split)
    model, _, meta = load_model(args.checkpoint, vocab.matrix)
    mode = input_mode_from_meta(meta, st_source, args.checkpoint)
    records = dump_attention(model, dataset.samples, mode, vocab.matrix, path=args.out)
    print(f"wrote {len(records)} attention records to {args.out}")
    return 0


def _cmd_majority(args) -> int:
    config = _config_from_args(args)
    datasets, _ = load_domain(config)
    report = majority_report(datasets["train"].samples, datasets["test"].samples)
    _print_report(report, f"majority baseline on {config.domain} test")
    return 0


def _cmd_ingest(args) -> int:
    """Print each found split's class/SA/MA distribution, one JSON line per split; reads no vector file."""
    config = _config_from_args(args)
    for split, records in load_corpus(config, require=()).items():
        dataset = build_dataset(records, config.domain, Vocabulary.random((), dim=1))  # the counts read no token id
        pos, neg, neu = polarity_counts(dataset.samples)
        sa, ma = split_sa_ma(dataset.samples)
        summary = {"split": split, "sentences": len(dataset.sentences), "samples": len(dataset.samples),
                   "positive": pos, "negative": neg, "neutral": neu, "sa": len(sa), "ma": len(ma)}
        print(json.dumps(summary, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="absalab",
                                     description="Aspect-based sentiment analysis laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-ae", help="train the BiGRU-CRF aspect extractor")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_train, forced={"task": "ae"})

    p = sub.add_parser("export-st", help="export frozen transfer rows for a dataset")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True, help="AE checkpoint to export from")
    p.add_argument("--out", required=True, help="output transfer-row archive, one entry per sentence of every split")
    p.set_defaults(fn=_cmd_export_st)

    p = sub.add_parser("train-alsa", help="train a sentiment classifier")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_train, forced={})

    p = sub.add_parser("eval", help="evaluate a sentiment checkpoint")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("grid-search", help="train one run per grid point, rank by dev score")
    _add_config_flags(p)
    p.add_argument("--grid", action="append", required=True, metavar="KEY=V1,V2,...")
    p.set_defaults(fn=_cmd_grid_search)

    p = sub.add_parser("cross-domain", help="transfer from --checkpoint's extractor to --domain's classifier")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True, help="AE checkpoint whose transfer rows widen the classifier's input")
    p.set_defaults(fn=_cmd_cross_domain)

    p = sub.add_parser("dump-attention", help="write per-sample attention records")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dump_attention)

    p = sub.add_parser("majority", help="score the constant majority-class baseline")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_majority)

    p = sub.add_parser("ingest", help="print each dataset split's distribution")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as err:
        print(json.dumps({"error": f"{type(err).__name__}: {err}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
