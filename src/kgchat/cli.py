"""Command-line driver for the whole pipeline.

One binary, seven subcommands:

  ingest    dialogues.jsonl + graph.tsv (+ alias tsv) -> bundle directory
  stats     corpus statistics table, path-length histogram, GED summary
  synth     generate the synthetic social-world corpus and ingest it
  train     fit a model on a bundle and write a checkpoint
  eval      score a checkpoint on a bundle split: report.json (every
            metric in metrics.METRIC_NAMES, plus the per-turn records
            they derive from) and metrics.csv
  perturb   graph-edit experiment: decode, perturb, re-decode, rates
  chat      interactive REPL with live /swap graph edits; --bundle
            reads only the bundle's graph.tsv and meta.json. Each
            message binds the part of the graph the model's walk can
            reach from the message's entities (kgraph.out_neighbourhood)

Configuration is a line-oriented key=value file (--config) plus
per-key command-line overrides (--key value); overrides win. Each
subcommand takes only the keys it reads (COMMAND_KEYS), each by its
exact name: any other key, as a flag (an abbreviated one too) or in the
file, is a usage error, and so is a value the key does not accept
(CONFIG_KEYS), such as --split bogus, --seed -1 or --hidden 0, refused
before anything is written. Every command that writes artifacts writes
the keys it read, resolved, beside them as config.json once it
succeeds, so runs are self-describing. config.json, model.ckpt,
report.json, metrics.csv, perturb.json and diff.log are written through
a temp file, so a failed write leaves the previous file in place.

Exit codes: 0 success, 2 usage error (flag, config key or value), 3
data/model error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from .corpus import (DataError, DialogueTurn, KNOWN_CORPUS_PROFILES,
                     SPLIT_NAMES, TOKENIZE_MODES, LexiconMatcher,
                     SyntheticConfig, atomic_open, compare_stats,
                     corpus_stats, detokenize, generate_synthetic, ingest,
                     load_bundle, load_dialogues_jsonl, load_lexicon,
                     load_meta, save_bundle, tokenize, write_json)
from .kgraph import (PERTURB_MODES, GraphError, KnowledgeGraph, Triple,
                     load_triples_tsv, out_edges, out_neighbourhood)
from .metrics import MetricError, evaluate_report, perturbation_report
from .numkernel import KernelError
from .qadpt import (MAX_DECODE_LEN, CheckpointError, Hyperparams,
                    ModelError, QadptModel, _decode_paths, greedy_decode,
                    load_checkpoint, make_example, make_examples,
                    perturb_and_decode, save_checkpoint, train)


class UsageError(ValueError):
    """Bad flags, bad config keys, bad values. A ValueError so argparse
    type callbacks report it as a usage problem too."""


# key -> (type, default, help, accepted). `model` through `seed` map onto
# Hyperparams, and `n_people` through `chitchat_rate` onto
# SyntheticConfig: those defaults are read off the fields that own them,
# and where `accepted` is None the owner checks the value. The rest
# configure the corpus pipeline and inference. `accepted` is an int
# key's floor, or a str key's (what the value names, its choices).
CONFIG_KEYS = {
    "model": (str, Hyperparams.kind, "model kind: qadpt or seq2seq", None),
    "hidden": (int, Hyperparams.hidden_dim, "hidden state width", None),
    "embed": (int, 0, "embedding width; 0 follows hidden", None),
    "hops": (int, Hyperparams.n_hops, "reasoning walk length", None),
    "lr": (float, Hyperparams.lr, "Adam learning rate", None),
    "batch_size": (int, Hyperparams.batch_size, "examples per update", None),
    "epochs": (int, Hyperparams.max_epochs, "max training epochs", None),
    "patience": (int, Hyperparams.patience,
                 "non-improving epochs tolerated", None),
    "clip_norm": (float, Hyperparams.clip_norm,
                  "global gradient norm ceiling", None),
    "seed": (int, Hyperparams.seed, "training / perturbation / world seed",
             0),
    "tokenize": (str, "word", "tokenizer mode: word or char",
                 ("tokenization mode", TOKENIZE_MODES)),
    "min_count": (int, 1, "vocabulary frequency cutoff", 1),
    "split_seed": (int, 0, "dialogue split seed", 0),
    "split": (str, "test", "bundle split for eval/perturb",
              ("split", SPLIT_NAMES)),
    "mode": (str, "last1", "perturbation protocol: all, last1, last2",
             ("perturbation mode", PERTURB_MODES)),
    "max_decode_len": (int, MAX_DECODE_LEN, "free-running decode cap", 1),
    "n_people": (int, SyntheticConfig.n_people, "synthetic: people", None),
    "n_places": (int, SyntheticConfig.n_places, "synthetic: places", None),
    "n_jobs": (int, SyntheticConfig.n_jobs, "synthetic: occupations", None),
    "n_turns": (int, SyntheticConfig.n_turns, "synthetic: total turns", None),
    "turns_per_dialogue": (int, SyntheticConfig.turns_per_dialogue,
                           "synthetic: dialogue length", None),
    "chitchat_rate": (float, SyntheticConfig.chitchat_rate,
                      "synthetic: ungrounded turn share", None),
}

_INGEST_KEYS = ("tokenize", "min_count", "split_seed")
# the SyntheticConfig fields, by name
_WORLD_KEYS = ("n_people", "n_places", "n_jobs", "n_turns",
               "turns_per_dialogue", "chitchat_rate")

# subcommand -> the config keys it reads. A command takes only these as
# flags and config-file keys, and writes only these to config.json.
COMMAND_KEYS = {
    "ingest": _INGEST_KEYS,
    "stats": (),
    "synth": ("seed", *_INGEST_KEYS, *_WORLD_KEYS),
    "train": ("model", "hidden", "embed", "hops", "lr", "batch_size",
              "epochs", "patience", "clip_norm", "seed"),
    "eval": ("split", "max_decode_len"),
    "perturb": ("seed", "split", "mode", "max_decode_len"),
    "chat": ("tokenize", "max_decode_len"),
}


def _coerce(key: str, raw: str):
    try:
        return CONFIG_KEYS[key][0](raw)
    except (TypeError, ValueError):
        raise UsageError(f"config key {key}: bad value {raw!r}") from None


def _read_config_file(path) -> list:
    pairs = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise UsageError(f"{path} line {lineno}: expected key=value")
        key, _, value = body.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def resolve_config(args: argparse.Namespace) -> dict:
    """The keys `args.command` reads: defaults, then the --config file,
    then the flags. A value its key does not accept (CONFIG_KEYS) is
    refused here, the one place every command's flags and config file
    meet."""
    keys = COMMAND_KEYS[args.command]
    cfg = {key: CONFIG_KEYS[key][1] for key in keys}
    if args.config:
        for key, raw in _read_config_file(args.config):
            if key not in cfg:
                raise UsageError(f"{args.command} reads no config key "
                                 f"{key!r} (in {args.config})")
            cfg[key] = _coerce(key, raw)
    for key in keys:
        override = getattr(args, key)
        if override is not None:
            cfg[key] = override
    for key, value in cfg.items():
        accepted = CONFIG_KEYS[key][3]
        if isinstance(accepted, int) and value < accepted:
            raise UsageError(f"{key} must be >= {accepted}, got {value}")
        if isinstance(accepted, tuple) and value not in accepted[1]:
            raise UsageError(f"unknown {accepted[0]} {value!r}; "
                             f"choose from {', '.join(accepted[1])}")
    return cfg


def hyper_from_config(cfg: dict) -> Hyperparams:
    try:
        return Hyperparams(
            kind=cfg["model"], hidden_dim=cfg["hidden"],
            embed_dim=cfg["embed"] or None, n_hops=cfg["hops"], lr=cfg["lr"],
            batch_size=cfg["batch_size"], max_epochs=cfg["epochs"],
            patience=cfg["patience"], clip_norm=cfg["clip_norm"],
            seed=cfg["seed"])
    except ModelError as exc:
        raise UsageError(str(exc)) from None


def _write_config(cfg: dict, args: argparse.Namespace, out_dir: Path) -> None:
    record = {"command": args.command, "config": cfg,
              "paths": {k: str(v) for k, v in vars(args).items()
                        if k.endswith(("dialogues", "kg", "lexicon", "bundle",
                                       "checkpoint", "out")) and v}}
    write_json(record, out_dir / "config.json")


def _write_path_hist(hist: dict, unreachable: int, path: Path) -> None:
    """The shortest-path histogram as CSV rows (hops, pairs), then the
    unreachable pair count."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hops", "pairs"])
        for hops in sorted(hist):
            writer.writerow([hops, hist[hops]])
        writer.writerow(["unreachable", unreachable])


def _write_diff_log(turns, path: Path) -> None:
    """One line per perturbation turn: id, verdict, original reply and
    perturbed reply, tab-separated."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for t in turns:
            tag = "skipped" if t.skipped else (
                "accurate" if t.accurate else
                ("changed" if t.changed else "unchanged"))
            fh.write(f"{t.turn_id}\t{tag}\t{' '.join(t.original)}\t"
                     f"{' '.join(t.perturbed)}\n")


def _print_table(rows) -> None:
    width = max((len(str(name)) for name, _ in rows), default=0)
    for name, value in rows:
        shown = "n/a" if value is None else value
        print(f"  {name:<{width}}  {shown}")


# ---------------------------------------------------------------------------
# Subcommands


def _ingest_to(out: Path, cfg, raw, graph, lexicon):
    """Ingest, write the bundle to `out` and report dropped entities."""
    bundle = ingest(raw, graph, lexicon, mode=cfg["tokenize"],
                    split_seed=cfg["split_seed"], min_count=cfg["min_count"])
    save_bundle(bundle, out)
    if bundle.meta["dropped_scene_entities"]:
        print(f"dropped {bundle.meta['dropped_scene_entities']} scene "
              f"entities not in the graph")
    return bundle


def cmd_ingest(args, cfg) -> int:
    raw = load_dialogues_jsonl(args.dialogues)
    graph = load_triples_tsv(args.kg)
    lexicon = None
    if args.lexicon:
        lexicon = load_lexicon(args.lexicon)
    else:
        print("no alias file given; matching canonical entity names only")
    out = Path(args.out)
    bundle = _ingest_to(out, cfg, raw, graph, lexicon)
    print(f"ingested {bundle.meta['n_dialogues']} dialogues, "
          f"{bundle.meta['n_turns']} turns")
    print(f"vocabulary: {len(bundle.vocab.generic)} generic words, "
          f"{bundle.vocab.n_entities} entities, "
          f"{len(bundle.vocab.relations)} relation types")
    for name in ("train", "test", "valid"):
        print(f"  split {name}: {len(getattr(bundle.splits, name))} dialogues")
    print(f"bundle written to {out}")
    return 0


def cmd_stats(args, cfg) -> int:
    bundle = load_bundle(args.bundle)
    st = corpus_stats(bundle)
    print("corpus statistics")
    _print_table(st.rows())
    print(f"  shortest-path histogram: "
          f"{ {k: v for k, v in sorted(st.path_length_hist.items())} }"
          f" unreachable={st.unreachable_pairs}")
    print(f"  scene GED between consecutive turns: "
          f"{st.ged_mean:.2f} +/- {st.ged_std:.2f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        blob = dataclasses.asdict(st)
        blob["path_length_hist"] = {str(k): v
                                    for k, v in st.path_length_hist.items()}
        write_json(blob, out / "stats.json")
        _write_path_hist(st.path_length_hist, st.unreachable_pairs,
                         out / "path_hist.csv")
        print(f"stats written to {out}")
    bad = 0
    if args.expect:
        rows = compare_stats(st, args.expect)
        print(f"comparison against the {args.expect!r} profile")
        for name, want, actual, ok in rows:
            flag = "ok" if ok else "MISMATCH"
            print(f"  {name:<24} want {want:>10} got {actual:>10}  {flag}")
        bad = sum(1 for r in rows if not r[3])
        print(f"{bad} of {len(rows)} rows deviate" if bad else
              "all rows match")
    return 0


def cmd_synth(args, cfg) -> int:
    try:
        sconf = SyntheticConfig(**{key: cfg[key] for key in _WORLD_KEYS})
    except DataError as exc:
        raise UsageError(str(exc)) from None
    syn = generate_synthetic(sconf, seed=cfg["seed"])
    out = Path(args.out)
    bundle = _ingest_to(out, cfg, syn.raw_turns, syn.graph, syn.lexicon)
    write_json({tid: [list(t) for t in path]
                for tid, path in syn.oracle_paths.items()},
               out / "oracle_paths.json")
    print(f"synthetic corpus: {bundle.meta['n_dialogues']} dialogues, "
          f"{bundle.meta['n_turns']} turns, "
          f"{len(syn.graph.entities)} entities, "
          f"{len(syn.graph.relations)} relation types")
    print(f"bundle written to {out}")
    return 0


def cmd_train(args, cfg) -> int:
    hyper = hyper_from_config(cfg)
    bundle = load_bundle(args.bundle)
    model = QadptModel(hyper, bundle.vocab)
    train_ex = make_examples(bundle, bundle.split_turns("train"))
    val_ex = make_examples(bundle, bundle.split_turns("valid"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = train(model, train_ex, val_ex,
                   log_path=out / "train_log.jsonl")
    save_checkpoint(model, out / "model.ckpt")
    print(f"trained {hyper.kind} for {result.epochs_run} epochs "
          f"({len(train_ex)} train / {len(val_ex)} validation turns)")
    print(f"best validation perplexity {result.best_val_ppl:.4f}")
    if result.unreachable_total:
        print(f"unreachable targets during training: "
              f"{result.unreachable_total}")
    print(f"checkpoint written to {out / 'model.ckpt'}")
    return 0


def _load_examples(args, cfg):
    bundle = load_bundle(args.bundle)
    model = load_checkpoint(args.checkpoint)
    if model.vocab != bundle.vocab:
        raise DataError("checkpoint vocabulary does not match the bundle; "
                        "was it trained on a different ingest?")
    turns = bundle.split_turns(cfg["split"])
    if not turns:
        raise DataError(f"split {cfg['split']!r} has no turns")
    return model, make_examples(bundle, turns)


def cmd_eval(args, cfg) -> int:
    model, examples = _load_examples(args, cfg)
    report = evaluate_report(model, examples,
                             max_len=cfg["max_decode_len"], config=cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(report.to_dict(), out / "report.json")
    report.save_csv(out / "metrics.csv")
    print(f"evaluated {report.n_turns} {cfg['split']} turns with "
          f"{model.kind}")
    _print_table(report.metric_rows())
    print(f"report written to {out / 'report.json'}")
    return 0


def cmd_perturb(args, cfg) -> int:
    model, examples = _load_examples(args, cfg)
    runs = perturb_and_decode(model, examples, cfg["mode"], seed=cfg["seed"],
                              max_len=cfg["max_decode_len"])
    report = perturbation_report(model.vocab.entities, runs, cfg["mode"],
                                 config=cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(report.to_dict(), out / "perturb.json")
    _write_diff_log(report.turns, out / "diff.log")
    print(f"perturbation mode {cfg['mode']}: {report.n_turns} turns scored, "
          f"{report.n_skipped} skipped")
    if report.n_turns == 0:
        print("zero denominator: no turn had a usable reasoning path")
    _print_table([("change_rate", report.change_rate),
                  ("accurate_change_rate", report.accurate_change_rate)])
    print(f"report written to {out / 'perturb.json'}")
    return 0


CHAT_USAGE = ("commands: /swap HEAD RELATION OLD_TAIL NEW_TAIL, "
              "/graph, /quit")


def cmd_chat(args, cfg) -> int:
    model = load_checkpoint(args.checkpoint)
    mode = cfg["tokenize"]
    if args.kg:
        graph = load_triples_tsv(args.kg)
    elif args.bundle:
        src = Path(args.bundle)
        graph = load_triples_tsv(src / "graph.tsv")
        mode = load_meta(src / "meta.json").get("mode", mode)
    else:
        raise DataError("chat needs --kg or --bundle for the knowledge graph")
    stray = (graph.entities - set(model.vocab.entities)) | \
        (graph.relations - set(model.vocab.relations))
    if stray:
        raise DataError(f"graph does not match the checkpoint vocabulary; "
                        f"unknown symbols include {sorted(stray)[:5]}")
    # the head index each message's neighbourhood reads is built with
    # the graph, here and on /swap, so no message pays for it
    out_edges(graph)
    lex = LexiconMatcher({e: e for e in graph.entities})
    print(f"{model.kind} loaded; {len(graph.triples)} triples. {CHAT_USAGE}")
    turn_no = 0
    while True:
        try:
            line = input("> ").strip()
        except EOFError:
            print()
            return 0
        if not line:
            continue
        if line in ("/quit", "/exit"):
            return 0
        if line == "/graph":
            for t in sorted(graph.triples):
                print(f"  {t.head} -{t.relation}-> {t.tail}")
            continue
        if line.startswith("/swap"):
            parts = line.split()
            if len(parts) != 5:
                print(CHAT_USAGE)
                continue
            _, head, rel, old_tail, new_tail = parts
            victim = Triple(head, rel, old_tail)
            if victim not in graph.triples:
                print(f"no such triple: {head} -{rel}-> {old_tail}")
                continue
            if new_tail not in model.vocab.entities:
                print(f"{new_tail!r} is outside the model's entity "
                      f"vocabulary; swap refused")
                continue
            triples = set(graph.triples)
            triples.remove(victim)
            triples.add(Triple(head, rel, new_tail))
            graph = KnowledgeGraph(triples,
                                   extra_entities=graph.entities | {new_tail})
            out_edges(graph)
            lex = LexiconMatcher({e: e for e in graph.entities})
            print(f"swapped: {head} -{rel}-> {new_tail}")
            continue
        if line.startswith("/"):
            print(CHAT_USAGE)
            continue
        turn = DialogueTurn(dialogue_id="chat", turn=turn_no, speaker="user",
                            scene_entities=(),
                            message=tuple(tokenize(line, mode, lex)),
                            response=())
        turn_no += 1
        # the walk from the message's entities reads nothing beyond its
        # n_hops out-neighbourhood, so binding that gives the whole
        # graph's reply and paths
        sources = turn.grounding(model.vocab.entity_set)[0]
        ex = make_example(turn, out_neighbourhood(graph, sources,
                                                  model.hyper.n_hops),
                          model.vocab)
        dec = greedy_decode(model, ex, max_len=cfg["max_decode_len"])
        print(detokenize(dec.tokens, mode) or "(empty reply)")
        for path in _decode_paths(model, ex, dec):
            hops = " ".join(f"-{t.relation}-> {t.tail}" for t in path.triples)
            print(f"  path: {path.start} {hops}" if hops
                  else f"  path: {path.start} (direct)")
    return 0


# ---------------------------------------------------------------------------
# Parser


# flag -> its add_argument keywords, for the flags that are not config
# keys
FLAGS = {
    "dialogues": {"metavar": "JSONL"},
    "kg": {"metavar": "TSV"},
    "lexicon": {"metavar": "TSV",
                "help": "surface -> canonical entity aliases"},
    "bundle": {"metavar": "DIR"},
    "checkpoint": {"metavar": "CKPT"},
    "out": {"metavar": "DIR"},
    "expect": {"choices": sorted(KNOWN_CORPUS_PROFILES),
               "help": "compare against a known corpus profile"},
}

# subcommand -> (help, {flag: required}). The flags come before
# --config and the command's config keys (COMMAND_KEYS). The handler is
# cmd_<subcommand>, looked up by name when it runs, so a wrapper bound
# over it (as bench/tracing.py binds one) is the one called. A command
# with an --out directory writes config.json there once it succeeds.
COMMANDS = {
    "ingest": ("preprocess a corpus into a bundle",
               {"dialogues": True, "kg": True, "lexicon": False,
                "out": True}),
    "stats": ("corpus statistics and histograms",
              {"bundle": True, "out": False, "expect": False}),
    "synth": ("generate the synthetic corpus", {"out": True}),
    "train": ("fit a model on a bundle", {"bundle": True, "out": True}),
    "eval": ("score a checkpoint on a split",
             {"bundle": True, "checkpoint": True, "out": True}),
    "perturb": ("graph-perturbation experiment",
                {"bundle": True, "checkpoint": True, "out": True}),
    "chat": ("interactive REPL with live graph edits",
             {"checkpoint": True, "kg": False, "bundle": False}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgchat",
        description="knowledge-grounded dialogue: corpus, training, "
                    "evaluation, graph-perturbation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in COMMANDS.items():
        # allow_abbrev=False: a flag is taken by its exact name only, as
        # a config-file key is
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for flag, required in flags.items():
            p.add_argument(f"--{flag}", required=required, **FLAGS[flag])
        p.add_argument("--config", metavar="FILE",
                       help="key=value config file")
        for key in COMMAND_KEYS[command]:
            kind, default, text, _ = CONFIG_KEYS[key]
            p.add_argument(f"--{key}", type=kind, default=None,
                           help=f"{text} (default {default})", metavar="V")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        cfg = resolve_config(args)
        code = globals()[f"cmd_{args.command}"](args, cfg)
        if code == 0 and getattr(args, "out", None):
            _write_config(cfg, args, Path(args.out))
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, GraphError, ModelError, CheckpointError,
            MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KernelError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
