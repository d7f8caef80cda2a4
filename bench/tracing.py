"""Span tracing for the benchmark's traced run.

`Tracer.install()` replaces kgchat functions with thin wrappers that
record one span per call: name, parent span, root span (the benchmark
operation the call belongs to), start and end. Nothing under `src/` is
edited; a function is rebound at every module attribute that holds it,
so `from .kgraph import build_adjacency` in `qadpt` is traced as well as
`kgraph.build_adjacency`. `Tape` ops are wrapped on the class.

Spans stay in flat in-memory arrays while the run is timed and are
written out once it ends. Per-layer metrics are aggregated from them:
a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

from kgchat import cli, corpus, kgraph, metrics, numkernel, qadpt

# Module functions traced by the span name "<module>.<function>". Each
# is listed under the module that defines it.
FUNCTIONS = {
    qadpt: ("batch_loss", "validation_perplexity", "teacher_force",
            "greedy_decode", "infer_path", "make_example",
            "perturb_and_decode", "save_checkpoint", "load_checkpoint"),
    kgraph: ("k_shortest_paths", "sample_subgraph", "shortest_path_lengths",
             "build_adjacency", "perturb_all", "perturb_last1",
             "perturb_last2"),
    corpus: ("generate_synthetic", "ingest", "corpus_stats", "save_bundle",
             "load_bundle", "tokenize"),
    metrics: ("evaluate_report", "bleu2_sentence", "perturbation_report"),
    numkernel: ("adam_update", "clip_global_norm"),
    cli: ("cmd_chat",),
}

# Every traced Tape method except backward is an op recording one node.
TAPE_NON_OPS = ("backward",)

# Span name -> layer group reported in the metrics. Names not listed
# here are their own group.
GROUPS = {
    "numkernel.Tape.gru": "numkernel.gru",
    "numkernel.Tape.kg_hop": "numkernel.kg_hop",
    "numkernel.Tape.row_softmax": "numkernel.relation_softmax",
    "numkernel.Tape.mask_renorm_rows": "numkernel.relation_softmax",
    "numkernel.Tape.backward": "numkernel.backward",
    "kgraph.perturb_all": "kgraph.perturb",
    "kgraph.perturb_last1": "kgraph.perturb",
    "kgraph.perturb_last2": "kgraph.perturb",
    "cli.cmd_chat": "cli.chat",
}
OTHER_OPS = "numkernel.other_ops"

# Declared per-layer metrics: (name, unit, better). BENCHMARK.json lists
# the same names; the self-test keeps the two in step.
PER_LAYER = (
    ("numkernel.gru.calls", "count", "lower"),
    ("numkernel.gru.self_s", "s", "lower"),
    ("numkernel.kg_hop.calls", "count", "lower"),
    ("numkernel.kg_hop.self_s", "s", "lower"),
    ("numkernel.relation_softmax.self_s", "s", "lower"),
    ("numkernel.other_ops.calls", "count", "lower"),
    ("numkernel.other_ops.self_s", "s", "lower"),
    ("numkernel.backward.self_s", "s", "lower"),
    ("numkernel.backward.nodes", "count", "lower"),
    ("numkernel.adam_update.self_s", "s", "lower"),
    ("numkernel.clip_global_norm.self_s", "s", "lower"),
    ("numkernel.nodes_per_token", "ratio", "lower"),
    ("qadpt.batch_loss.self_s", "s", "lower"),
    ("qadpt.validation_perplexity.self_s", "s", "lower"),
    ("qadpt.teacher_force.calls", "count", "lower"),
    ("qadpt.teacher_force.self_s", "s", "lower"),
    ("qadpt.greedy_decode.calls", "count", "lower"),
    ("qadpt.greedy_decode.tokens", "count", "lower"),
    ("qadpt.greedy_decode.self_s", "s", "lower"),
    ("qadpt.infer_path.calls", "count", "lower"),
    ("qadpt.infer_path.self_s", "s", "lower"),
    ("qadpt.make_example.calls", "count", "lower"),
    ("qadpt.make_example.self_s", "s", "lower"),
    ("qadpt.perturb_and_decode.self_s", "s", "lower"),
    ("qadpt.save_checkpoint.self_s", "s", "lower"),
    ("qadpt.load_checkpoint.self_s", "s", "lower"),
    ("qadpt.unreachable_targets", "count", "lower"),
    ("kgraph.k_shortest_paths.calls", "count", "lower"),
    ("kgraph.k_shortest_paths.self_s", "s", "lower"),
    ("kgraph.k_shortest_paths.distinct_ratio", "ratio", "higher"),
    ("kgraph.sample_subgraph.calls", "count", "lower"),
    ("kgraph.sample_subgraph.self_s", "s", "lower"),
    ("kgraph.shortest_path_lengths.self_s", "s", "lower"),
    ("kgraph.build_adjacency.calls", "count", "lower"),
    ("kgraph.build_adjacency.self_s", "s", "lower"),
    ("kgraph.perturb.calls", "count", "lower"),
    ("kgraph.perturb.self_s", "s", "lower"),
    ("kgraph.perturb.skipped_share", "ratio", "lower"),
    ("corpus.generate_synthetic.self_s", "s", "lower"),
    ("corpus.ingest.self_s", "s", "lower"),
    ("corpus.corpus_stats.self_s", "s", "lower"),
    ("corpus.save_bundle.self_s", "s", "lower"),
    ("corpus.load_bundle.self_s", "s", "lower"),
    ("corpus.tokenize.calls", "count", "lower"),
    ("corpus.tokenize.self_s", "s", "lower"),
    ("metrics.evaluate_report.self_s", "s", "lower"),
    ("metrics.bleu2_sentence.calls", "count", "lower"),
    ("metrics.bleu2_sentence.self_s", "s", "lower"),
    ("metrics.perturbation_report.self_s", "s", "lower"),
    ("cli.chat.self_s", "s", "lower"),
    ("cli.chat.swaps", "count", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    # quality guards of the traced operations, not layers: zero on a
    # workload that has none
    ("quality.train_loss", "nats/tok", "lower"),
    ("quality.eval_ppl", "ppl", "lower"),
    ("quality.eval_bleu2", "bleu", "higher"),
    ("quality.perturb_accurate_change_rate", "ratio", "higher"),
)


def _kgchat_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and name.split(".")[0] == "kgchat"]


class Tracer:
    """Records spans around kgchat calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.root = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list = []
        # counters filled by the hooks below
        self.backward_nodes = 0
        self.batch_nodes = 0
        self.batch_tokens = 0
        self.decode_steps = 0
        self.decode_ranges: list = []
        self.unreachable = 0
        self.ksp_calls = 0
        self._ksp_keys: set = set()

    # -- recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1])
        self.root.append(stack[1] if len(stack) > 1 else idx)
        stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, result, idx)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around one operation;
        the kgchat calls inside it share its root id."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- installation

    def _rebind(self, original, wrapper) -> int:
        sites = 0
        for mod in _kgchat_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))
                    sites += 1
        return sites

    def install(self) -> None:
        hooks = {
            "qadpt.batch_loss": self._on_batch,
            "qadpt.teacher_force": self._on_teacher_force,
            "qadpt.greedy_decode": self._on_decode,
            "kgraph.k_shortest_paths": self._on_ksp,
        }
        for mod, fnames in FUNCTIONS.items():
            short = mod.__name__.rsplit(".", 1)[-1]
            for fname in fnames:
                original = getattr(mod, fname)
                name = f"{short}.{fname}"
                wrapper = self._wrap(name, original, hooks.get(name))
                if not self._rebind(original, wrapper):
                    raise RuntimeError(f"cannot trace {name}: not bound "
                                       f"in any kgchat module")
        tape = numkernel.Tape
        for attr, value in list(vars(tape).items()):
            if attr.startswith("_") or attr == "value" or not callable(value):
                continue
            hook = self._on_backward if attr == "backward" else None
            setattr(tape, attr, self._wrap(f"numkernel.Tape.{attr}", value,
                                           hook))
            self._restore.append((tape, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- hooks: counters measured where the work happens

    def _on_backward(self, args, result, idx) -> None:
        self.backward_nodes += len(args[0])

    def _on_batch(self, args, result, idx) -> None:
        tape, _, n_tok, unreachable = result
        self.batch_nodes += len(tape)
        self.batch_tokens += n_tok
        self.unreachable += unreachable

    def _on_teacher_force(self, args, result, idx) -> None:
        self.unreachable += result.unreachable

    def _on_decode(self, args, result, idx) -> None:
        self.decode_steps += len(result.steps)
        self.decode_ranges.append((idx + 1, len(self.name)))

    def _on_ksp(self, args, result, idx) -> None:
        graph, source, target, k = args
        self.ksp_calls += 1
        self._ksp_keys.add((graph, source, target, k))

    # -- aggregation

    def arrays(self) -> dict:
        return {"name": np.asarray(self.name, dtype=np.int64),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "root": np.asarray(self.root, dtype=np.int64),
                "start": np.asarray(self.start, dtype=np.float64),
                "end": np.asarray(self.end, dtype=np.float64)}

    def by_group(self) -> dict:
        """Group -> (calls, self seconds) over every recorded span."""
        a = self.arrays()
        n = len(a["name"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=len(self.names))
        selfs = np.bincount(a["name"], weights=self_time,
                            minlength=len(self.names))
        out: dict = {}
        for nid, name in enumerate(self.names):
            group = GROUPS.get(name, name)
            if name.startswith("numkernel.Tape.") and group == name:
                group = OTHER_OPS
            c, s = out.get(group, (0, 0.0))
            out[group] = (c + int(calls[nid]), s + float(selfs[nid]))
        return out

    def calls_by_name(self) -> dict:
        calls = np.bincount(np.asarray(self.name, dtype=np.int64),
                            minlength=len(self.names))
        return {name: int(calls[nid]) for nid, name in enumerate(self.names)}

    def decode_nodes(self) -> int:
        """Tape nodes recorded inside greedy_decode calls; every Tape op
        records exactly one node."""
        op_ids = np.zeros(len(self.names), dtype=bool)
        for nid, name in enumerate(self.names):
            if name.startswith("numkernel.Tape.") and \
                    name.rsplit(".", 1)[-1] not in TAPE_NON_OPS:
                op_ids[nid] = True
        names = np.asarray(self.name, dtype=np.int64)
        is_op = op_ids[names] if len(names) else np.zeros(0, dtype=bool)
        prefix = np.concatenate(([0], np.cumsum(is_op)))
        return int(sum(prefix[hi] - prefix[lo]
                       for lo, hi in self.decode_ranges))

    def ksp_distinct_ratio(self) -> float:
        return len(self._ksp_keys) / self.ksp_calls if self.ksp_calls else 0.0

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), **a)


def layer_values(tracer: Tracer, counts: dict, overhead: float) -> dict:
    """Every PER_LAYER metric from a traced run. `counts` carries the
    figures the workload counted itself (swaps, skipped share, quality
    guards)."""
    groups = tracer.by_group()
    tokens = tracer.batch_tokens + tracer.decode_steps
    nodes = tracer.batch_nodes + tracer.decode_nodes()
    special = {
        "numkernel.backward.nodes": tracer.backward_nodes,
        "numkernel.nodes_per_token": nodes / tokens if tokens else 0.0,
        "qadpt.greedy_decode.tokens": tracer.decode_steps,
        "qadpt.unreachable_targets": tracer.unreachable,
        "kgraph.k_shortest_paths.distinct_ratio": tracer.ksp_distinct_ratio(),
        "bench.trace_overhead": overhead,
        **counts,
    }
    values = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            values[name] = special[name]
            continue
        if name.startswith("quality."):
            values[name] = 0.0
            continue
        group, _, stat = name.rpartition(".")
        calls, self_s = groups.get(group, (0, 0.0))
        values[name] = {"calls": calls, "self_s": self_s}[stat]
    return values
