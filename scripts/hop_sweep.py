#!/usr/bin/env python3
"""Sweep the reasoning-walk depth and report test-split metrics.

Trains one model per hop count on the same synthetic corpus and prints
a table of perplexity, entity accuracy, and generated-entity F1. Multi
hop templates (friend-of-friend questions) need depth >= 3, so the
table shows where the walk starts covering the corpus.

    python3 scripts/hop_sweep.py --hops 1 2 3 4 6 --epochs 12
"""

import argparse
import json
import time
from pathlib import Path

from kgchat.corpus import SyntheticConfig, generate_synthetic, ingest
from kgchat.metrics import evaluate_report
from kgchat.qadpt import Hyperparams, QadptModel, make_examples, train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hops", type=int, nargs="+", default=[1, 2, 3, 4, 6])
    ap.add_argument("--people", type=int, default=12)
    ap.add_argument("--turns", type=int, default=600)
    ap.add_argument("--hidden", type=int, default=48)
    ap.add_argument("--epochs", type=int, default=12)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", type=Path, default=None,
                    help="optional path for a JSON copy of the table")
    args = ap.parse_args()

    raw = generate_synthetic(
        SyntheticConfig(n_people=args.people, n_places=6, n_jobs=4,
                        n_turns=args.turns), seed=args.seed)
    bundle = ingest(raw.raw_turns, raw.graph, lexicon=raw.lexicon)
    tr = make_examples(bundle, bundle.split_turns("train"))
    va = make_examples(bundle, bundle.split_turns("valid"))
    te = make_examples(bundle, bundle.split_turns("test"))
    print(f"corpus: {len(tr)} train / {len(va)} valid / {len(te)} test turns, "
          f"{len(bundle.vocab.entities)} entities")

    rows = []
    for hops in args.hops:
        model = QadptModel(
            Hyperparams(kind="qadpt", hidden_dim=args.hidden, n_hops=hops,
                        max_epochs=args.epochs, patience=3, seed=0),
            bundle.vocab)
        t0 = time.perf_counter()
        result = train(model, tr, va)
        m = evaluate_report(model, te).metrics
        rows.append({"hops": hops, "epochs": result.epochs_run,
                     "seconds": round(time.perf_counter() - t0, 1),
                     "ppl": round(m["ppl"], 3),
                     "kw_acc": None if m["kw_acc"] is None
                     else round(m["kw_acc"], 3),
                     "generated_kw_f1": None if m["generated_kw"]["f1"] is None
                     else round(m["generated_kw"]["f1"], 3)})
        r = rows[-1]
        # None when the split or the decoded output has no entities at all
        cells = {k: "n/a" if r[k] is None else r[k]
                 for k in ("ppl", "kw_acc", "generated_kw_f1")}
        print(f"hops={r['hops']}  ppl={cells['ppl']:<7} "
              f"kw_acc={cells['kw_acc']:<6} f1={cells['generated_kw_f1']:<6} "
              f"({r['epochs']} epochs, {r['seconds']}s)")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"table written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
