"""Command-line entry point for the query-answering workbench.

Subcommands: generate (benchmark sampling), linearize (token inspection),
answer (exact symbolic answering), train, eval, inspect (dataset summary).
Exit codes: 0 success, 1 usage error, 2 data error (also when a dataset's
universe is too large to allocate). Every run prints the hash of its
resolved configuration to stderr so outputs can be tied back to the exact
invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .encoders import ARCHITECTURES
from .evaluation import MODES, evaluate
from .files import write_lines
from .graph import GraphLayers, layer_graphs, load_dictionary
from .linearize import Vocabulary, build_vocabulary, linearize, render_tokens
from .queries import (
    QuerySyntaxError,
    QueryStructureError,
    builtin_query_types,
    parse_formula,
    parse_grounded,
    query_ids,
)
from .sampler import GroundingError, SamplerConfig, read_dataset, sample_dataset, write_dataset
from .symbolic import answer
from .training import (
    Checkpoint,
    TrainingDivergedError,
    config_from_mapping,
    parse_config_file,
    train,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse default of 2 is reserved for data errors)
    def error(self, message):
        raise UsageError(message)


class DataError(Exception):
    pass


def _kg_dir(path_str: str) -> GraphLayers:
    """Load train.txt/valid.txt/test.txt (+ optional dictionaries) from a directory."""
    root = Path(path_str)
    files = [root / name for name in ("train.txt", "valid.txt", "test.txt")]
    for f in files:
        if not f.exists():
            raise DataError(f"missing triple file {f}")
    dicts = [root / "entities.dict", root / "relations.dict"]
    return layer_graphs(*files, *(load_dictionary(path) if path.exists() else None for path in dicts))


def _print_config_hash(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    digest = hashlib.sha256(json.dumps(resolved, sort_keys=True, default=str).encode()).hexdigest()
    print(f"config-hash: {digest[:16]}", file=sys.stderr)


def _resolve_types(selector: str, include_ood: bool):
    builtin = builtin_query_types()
    if selector == "fol":
        types = list(builtin.in_distribution)
        if include_ood:
            types += list(builtin.out_of_distribution)
        return types
    if selector == "conj":
        types = list(builtin.conjunctive_in)
        if include_ood:
            types += list(builtin.conjunctive_out)
        return types
    path = Path(selector)
    if not path.exists():
        raise DataError(f"--types must be 'fol', 'conj', or a formula file; {selector!r} not found")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    types = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            types.append(parse_formula(line))
        except (QuerySyntaxError, QueryStructureError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return types


def cmd_generate(args) -> int:
    cfg = SamplerConfig(  # refuses bad bounds before the graph is read
        per_type_count=args.count,
        seed=args.seed,
        max_retries=args.max_retries,
        source_layer=args.source_layer,
    )
    layers = _kg_dir(args.kg)
    types = _resolve_types(args.types, args.ood)
    dataset = sample_dataset(layers, types, cfg, kg_name=Path(args.kg).name)
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} records across {len(dataset.records)} types to {args.out}")
    return 0


def cmd_linearize(args) -> int:
    if args.kg:
        vocab = build_vocabulary(_kg_dir(args.kg).test)
        query = parse_grounded(args.query, vocab)
    else:
        query = parse_grounded(args.query)
        max_rel = max((n.relation for n in query.walk() if n.relation is not None), default=-1)
        max_ent = max((n.entity for n in query.walk() if n.entity is not None), default=-1)
        vocab = Vocabulary(num_relations=max_rel + 1, num_entities=max_ent + 1)
    print(render_tokens(linearize(query, vocab), vocab))
    return 0


def cmd_answer(args) -> int:
    layers = _kg_dir(args.kg)
    layer = layers.layer(args.layer)
    query = parse_grounded(args.query, layer)
    print(" ".join(map(str, answer(layer, query, query_ids(query)))))  # ascending ids
    return 0


def cmd_train(args) -> int:
    mapping = parse_config_file(args.config) if args.config else {}
    for override in args.set or []:
        if "=" not in override:
            raise UsageError(f"--set expects key=value, got {override!r}")
        key, value = override.split("=", 1)
        mapping[key.strip()] = value.strip()
    cfg = config_from_mapping(mapping)
    dataset = read_dataset(args.data)
    if dataset.num_entities <= 0 or dataset.num_relations <= 0:
        raise DataError(f"{args.data}: header lacks the entity/relation universe")
    vocab = Vocabulary(dataset.num_relations, dataset.num_entities)
    ckpt = train(cfg, dataset, vocab)
    ckpt.save(args.out)
    if args.log:
        write_lines(args.log, (json.dumps(entry, sort_keys=True, separators=(",", ":")) for entry in ckpt.history))
    final = ckpt.history[-1]["loss"] if ckpt.history else float("nan")
    print(f"trained {cfg.arch} for {cfg.epochs} epochs ({ckpt.step} steps), final loss {final:.6f}")
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = Checkpoint.load(args.ckpt).model
    dataset = read_dataset(args.data)
    vocab = model.vocab
    if (dataset.num_entities, dataset.num_relations) != (vocab.num_entities, vocab.num_relations):
        raise DataError(
            f"{args.data}: dataset universe ({dataset.num_entities} entities, "
            f"{dataset.num_relations} relations) differs from the checkpoint's "
            f"({vocab.num_entities} entities, {vocab.num_relations} relations)"
        )
    report = evaluate(model, dataset, mode=args.mode)
    print(report.table())
    if args.out:
        write_lines(args.out, report.lines())
        print(f"report rows written to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    dataset = read_dataset(args.data)
    print(f"dataset {args.data}: {len(dataset)} records, {len(dataset.records)} types, "
          f"kg={dataset.provenance.kg_name} seed={dataset.provenance.seed}")

    for formula, group in dataset.records.items():
        print(f"type {formula}: {len(group)} queries")
    for layer_name in ("train", "valid", "test"):
        # power-of-two buckets keyed by their lower bound: 0, 1, 2-3, 4-7, 8-15, ...
        buckets = Counter((1 << len(r.answers(layer_name)).bit_length()) >> 1 for r in dataset.iter_records())
        labels = {lo: str(lo) if lo <= 1 else f"{lo}-{2 * lo - 1}" for lo in buckets}
        line = " ".join(f"{labels[lo]}:{n}" for lo, n in sorted(buckets.items()))
        print(f"answer-size histogram [{layer_name}]: {line}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="cqakit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cqakit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a benchmark dataset from a knowledge graph")
    p.add_argument("--kg", required=True, help="directory with train.txt/valid.txt/test.txt")
    p.add_argument("--types", required=True, help="'fol' (29 types), 'conj' (12), or a formula file")
    p.add_argument("--ood", action="store_true", help="also include the out-of-distribution types")
    p.add_argument("--count", type=int, required=True, help="queries per type")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-retries", type=int, default=64)
    p.add_argument("--source-layer", choices=("train", "test"), default="train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("linearize", help="print the token sequence of a grounded query")
    p.add_argument("--query", required=True, help="grounded query string, e.g. (p,(0),(e,(5)))")
    p.add_argument("--kg", help="optional graph directory for id validation")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("answer", help="exact answer set of a query on one graph layer")
    p.add_argument("--kg", required=True)
    p.add_argument("--layer", choices=("train", "valid", "test"), default="test")
    p.add_argument("--query", required=True)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("train", help="train an encoder on a generated dataset")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--data", required=True, help="dataset file from 'generate'")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="JSONL metrics log, one line per epoch; an existing file is replaced")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help=f"config overrides (arch one of {', '.join(ARCHITECTURES)})")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="entailment/inference metrics of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=MODES + ("both",), default="both")
    p.add_argument("--out", help="machine-readable JSONL report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="per-type counts and answer-set-size histograms")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    _print_config_hash(args)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (
        DataError,
        GroundingError,
        TrainingDivergedError,
        ValueError,  # also the package's format, checkpoint and query errors
        OSError,
        MemoryError,  # e.g. a dataset header's universe too large for the embedding table
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
