"""The kgchat benchmark workloads: train, ingest and serve.

Each workload runs in one process as a closed loop: an operation starts
when the previous one has returned. Inputs are made from the workload
seed and from the world seeds pinned below, nothing else. Every
operation's output is checked, and a failed check counts as a failed
operation of its phase.

The train and serve workloads read a corpus bundle and a checkpoint that
`prepare` builds once per source tree with the kgchat CLI of the code
under test (`kgchat synth` and `kgchat train`), the way a compiled
program is built once per checkout. The cache key is a digest of every
file under `src/`, so a changed program never reuses another's model.
"""

from __future__ import annotations

import builtins
import contextlib
import dataclasses
import hashlib
import io
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from kgchat import cli, corpus, metrics, qadpt

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark could not set itself up."""


# name -> (unit, better). Every workload reports every one of these, for
# its own timed operations: a training round, an ingest world, or for
# serve the evaluation and perturbation chunks (throughput) and the chat
# message turns (latency).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p90": ("ms", "lower"),
}


@dataclasses.dataclass(frozen=True)
class Sizes:
    label: str
    world: dict            # SyntheticConfig fields other than the default
    world_seed: int        # world the train and serve workloads read
    ingest_world: dict     # SyntheticConfig fields of the ingest worlds
    ckpt_epochs: int       # training epochs of the serve checkpoint
    train_turns: int       # training turns per train round
    valid_turns: int       # validation turns per train round
    chat_min_lines: int    # p90 needs 100 message turns; every 5th line swaps
    decode_checks: int     # examples decoded a second time per eval chunk


FULL = Sizes(label="full", world={}, world_seed=7,
             ingest_world={"n_turns": 1000}, ckpt_epochs=3,
             train_turns=64, valid_turns=16, chat_min_lines=125,
             decode_checks=3)
TOY_WORLD = {"n_people": 8, "n_places": 4, "n_jobs": 3, "n_turns": 150}
TOY = Sizes(label="toy", world=TOY_WORLD, world_seed=3,
            ingest_world=TOY_WORLD, ckpt_epochs=15, train_turns=32,
            valid_turns=8, chat_min_lines=25, decode_checks=3)

# The ingest workload cycles through these synthetic worlds. Each bundle
# `save_bundle` writes for them is pinned byte for byte (SHA-256 over
# BUNDLE_FILES), computed with the kgchat sources this benchmark was
# introduced with.
INGEST_WORLD_SEEDS = tuple(range(4))
BUNDLE_FILES = ("turns.jsonl", "vocab.json", "graph.tsv", "subgraphs.jsonl",
                "splits.json", "meta.json")
BUNDLE_DIGESTS = {
    "full": {
        0: "11e0b7f33e389b56e94f52dbbc5eb8a1bc6e3bc4b248af37b086961d0deb712d",
        1: "d644083f6741701a7ed89d78824f744c4facc66e7396bf71116fc35d62a60753",
        2: "1b53b00bebb1f87e861cb602d033de232bccc905706cb88312888fb8b371de7f",
        3: "2b13185820e280dfe890fd03e13a743c60dbaa95ba300e1ffda3459c6cf85e69",
    },
    "toy": {
        0: "e96a48deb9733c8ebb1948aa23731b7b826ca6ab1404cc9c1da4ca970dabf835",
        1: "0fc799e0991df579a4d02cdb323339ee19c357d08aeff1c5927d52b06e0af16e",
        2: "fe63a69869399b00d7d3ca94909720c40b3f5d5182a0cd5afdcd0fca8bd81600",
        3: "2e010869126215ec17bac4e348e3567a759bf2dea92afb5e73c50e05d86c4699",
    },
}

PERTURB_SEED = 13
EVAL_CHUNK = 25
PERTURB_MODES = ("all", "last1", "last2")
CHAT_SWAP_EVERY = 5


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def bundle_digest(bundle_dir: Path) -> str:
    h = hashlib.sha256()
    for name in BUNDLE_FILES:
        h.update(name.encode() + b"\0")
        h.update((bundle_dir / name).read_bytes() + b"\0")
    return h.hexdigest()


@dataclasses.dataclass
class Context:
    root: Path             # checkout root, holding src/
    cache: Path            # everything the benchmark writes
    sizes: Sizes
    seed: int
    prep: Path | None = None
    speed: HostSpeed = dataclasses.field(default_factory=lambda: HostSpeed())

    @property
    def corpus_dir(self) -> Path:
        return self.prep / "corpus"

    @property
    def checkpoint(self) -> Path:
        return self.prep / "model" / "model.ckpt"

    def work(self, name: str) -> Path:
        path = self.cache / "work" / name
        path.mkdir(parents=True, exist_ok=True)
        return path


def prepare(ctx: Context) -> Path:
    """Build (or reuse) the corpus bundle and serve checkpoint of the
    code under test; returns their directory."""
    src = ctx.root / "src"
    recipe = repr(dataclasses.astuple(ctx.sizes)).encode()
    key = hashlib.sha256(source_digest(src).encode() + recipe).hexdigest()
    final = ctx.cache / f"prep-{ctx.sizes.label}-{key[:16]}"
    if (final / "model" / "model.ckpt").is_file():
        return final
    tmp = ctx.cache / f"prep-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    world = [a for k, v in ctx.sizes.world.items() for a in (f"--{k}", str(v))]
    steps = (
        ["synth", "--out", str(tmp / "corpus"),
         "--seed", str(ctx.sizes.world_seed), *world],
        ["train", "--bundle", str(tmp / "corpus"), "--out", str(tmp / "model"),
         "--epochs", str(ctx.sizes.ckpt_epochs)],
    )
    for step in steps:
        done = subprocess.run([sys.executable, "-m", "kgchat.cli", *step],
                              cwd=ctx.root, env=env, capture_output=True,
                              text=True, timeout=900)
        if done.returncode != 0:
            raise BenchError(f"kgchat {step[0]} exited {done.returncode}:\n"
                             f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final


# ---------------------------------------------------------------------------
# Run control


class Budget:
    """Iterates over the operations of one timed phase: until `seconds`
    have passed and at least `min_ops` operations ran, or, when
    replaying a run, exactly `count` operations."""

    def __init__(self, seconds: float = 0.0, min_ops: int = 1,
                 count: int | None = None):
        self.seconds = seconds
        self.min_ops = min_ops
        self.count = count
        self.done = 0
        self.t0 = clock()

    def __iter__(self):
        while self._more():
            yield self.done
            self.done += 1

    def _more(self) -> bool:
        if self.count is not None:
            return self.done < self.count
        return self.done < self.min_ops or clock() - self.t0 < self.seconds


class Plan:
    """How long each phase of a run lasts: a share of `seconds`, or the
    operation counts of an earlier run being replayed."""

    def __init__(self, seconds: float = 0.0, counts: dict | None = None):
        self.seconds = seconds
        self.counts = counts
        self.done: dict = {}

    def budget(self, phase: str, share: float, min_ops: int = 1) -> Budget:
        if self.counts is not None:
            b = Budget(count=self.counts[phase])
        else:
            b = Budget(seconds=self.seconds * share, min_ops=min_ops)
        self.done[phase] = b
        return b

    def counts_done(self) -> dict:
        return {phase: b.done for phase, b in self.done.items()}


@dataclasses.dataclass
class Phase:
    name: str
    sent: int = 0
    ok: int = 0
    failed: int = 0

    def record(self, passed: bool, what: str = "") -> None:
        self.sent += 1
        if passed:
            self.ok += 1
        else:
            self.failed += 1
            print(f"check failed in {self.name}: {what}", file=sys.stderr)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class HostSpeed:
    """How fast this process's core runs, measured next to every timed
    operation.

    On a host whose cores are shared with other tenants, a neighbour's
    load slows a core by 1.6x to 2.4x for stretches of a fraction of a
    second to tens of seconds, which swamps any change to kgchat. So
    before and after each operation the benchmark times a fixed
    pure-Python probe loop (it calls no kgchat code). Metrics use the
    repeats of an operation that ran while the core was fastest, and
    scale their wall time to a fixed reference speed: scaled = wall *
    REFERENCE_S / probe time around the operation. REFERENCE_S is the
    probe's time on an idle core of the host the benchmark was made on,
    so there scaled seconds are wall seconds at full speed. Raw wall
    times are kept in the result file.
    """

    SPIN = 20_000
    REPEATS = 3
    REFERENCE_S = 0.0006

    def __init__(self):
        self.fastest = math.inf

    def probe(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            t0 = clock()
            acc = 0
            for i in range(self.SPIN):
                acc += i
            times.append(clock() - t0)
        self.fastest = min(self.fastest, *times)
        return statistics.median(times)

    def scaled(self, sample: "Sample") -> float:
        return sample.wall * self.REFERENCE_S / sample.probe


@dataclasses.dataclass
class Sample:
    """One timed operation: work done, wall seconds, the mean probe time
    before and after it, and which of the workload's distinct
    operations it was (operations of one group do the same work)."""
    work: float = 0.0
    wall: float = 0.0
    probe: float = 0.0
    group: int = 0


class Workload:
    name = ""
    # span names a traced run of this workload must record at least once
    reach: tuple = ()

    def __init__(self, ctx: Context, span=None):
        self.ctx = ctx
        self.span = span or (lambda name: contextlib.nullcontext())
        self.phases: dict = {}
        self.samples: dict = {}       # kind -> [Sample]

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase(name))

    @contextlib.contextmanager
    def timed(self, kind: str, work: float = 0.0, group: int = 0):
        """Times the body as one operation; an operation that raises
        is not recorded."""
        speed = self.ctx.speed
        sample = Sample(work=work, group=group)
        before = speed.probe()
        t0 = clock()
        yield sample
        sample.wall = clock() - t0
        sample.probe = (before + speed.probe()) / 2
        self.samples.setdefault(kind, []).append(sample)

    def scaled(self, kind: str) -> list:
        return [self.ctx.speed.scaled(s) for s in self.samples.get(kind, ())]

    def per_operation(self, *kinds: str) -> list:
        """(work, scaled seconds) of each distinct operation of `kinds`,
        timed by the median scaled time of the third of its repeats
        that ran at the fastest core speed. Every run covers every
        distinct operation, so the mix of work is the same whatever the
        seed."""
        groups: dict = {}
        for kind in kinds:
            for sample in self.samples.get(kind, ()):
                groups.setdefault((kind, sample.group), []).append(sample)
        out = []
        for repeats in groups.values():
            fast = sorted(repeats, key=lambda x: x.probe)
            fast = fast[:math.ceil(len(fast) / 3)]
            out.append((fast[0].work,
                        _median([self.ctx.speed.scaled(x) for x in fast])))
        return out

    def rate(self, *kinds: str) -> float:
        """Work per scaled second over one of each distinct operation."""
        ops = self.per_operation(*kinds)
        seconds = sum(t for _, t in ops)
        return sum(w for w, _ in ops) / seconds if seconds else 0.0

    def busy(self) -> float:
        """Scaled seconds spent in timed operations, set-up excluded."""
        return sum(sum(self.scaled(kind)) for kind in self.samples
                   if kind != "setup")

    def timed_setup(self) -> None:
        with self.timed("setup"):
            self.setup()
        self.phase("setup").record(True)

    def setup_s(self) -> float:
        return _median(self.scaled("setup"))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, plan: Plan) -> None:
        raise NotImplementedError

    # sample kinds whose operations make the workload's throughput and,
    # unless latencies_ms is overridden, its latency
    work_kinds: tuple = ()

    def latencies_ms(self) -> list:
        """Scaled ms of each distinct operation of work_kinds."""
        return [1e3 * t for _, t in self.per_operation(*self.work_kinds)]

    def end_to_end(self) -> dict:
        """Throughput and latency, the metrics besides setup_s and
        peak_rss_mb."""
        lat = self.latencies_ms()
        return {
            "throughput_per_s": self.rate(*self.work_kinds),
            "latency_ms_p50": float(np.percentile(lat, 50)) if lat else 0.0,
            "latency_ms_p90": float(np.percentile(lat, 90)) if lat else 0.0,
        }

    def quality(self) -> dict:
        """Quality guards, deterministic per commit and workload seed;
        reported by the traced run, zero where a workload has none."""
        return {}

    def figures(self) -> dict:
        """Per-phase figures kept in the result file."""
        return {}

    def issued(self) -> dict:
        """Span name -> calls the workload issued, which a traced run
        must record exactly."""
        return {"qadpt.teacher_force": 0, "qadpt.greedy_decode": 0}

    def layer_counts(self) -> dict:
        """Per-layer figures the workload counts itself."""
        return {"cli.chat.swaps": 0, "kgraph.perturb.skipped_share": 0.0}

    def details(self) -> dict:
        return {kind: {"work": [x.work for x in samples],
                       "wall_s": [x.wall for x in samples],
                       "scaled_s": self.scaled(kind)}
                for kind, samples in self.samples.items()}


# ---------------------------------------------------------------------------
# train


class Train(Workload):
    """Rounds of `qadpt.train` with default Hyperparams for one epoch on
    a block of the training split, with the per-epoch validation pass on
    a block of the validation split, then `save_checkpoint`. Both splits
    are cut into blocks in seeded order and rounds walk through the
    blocks, so a run covers the whole training split. Every round starts
    from the same seeded model."""

    name = "train"
    work_kinds = ("train",)
    reach = ("corpus.load_bundle", "qadpt.make_example",
             "kgraph.build_adjacency", "qadpt.batch_loss",
             "qadpt.validation_perplexity", "qadpt.teacher_force",
             "qadpt.save_checkpoint", "numkernel.Tape.gru",
             "numkernel.Tape.kg_hop", "numkernel.Tape.row_softmax",
             "numkernel.Tape.mask_renorm_rows", "numkernel.Tape.backward",
             "numkernel.adam_update", "numkernel.clip_global_norm")

    def __init__(self, ctx: Context, span=None):
        super().__init__(ctx, span)
        self.batches: list = []      # (mean loss, target tokens, round)
        self.round = 0
        self.validated = 0

    def setup(self) -> None:
        bundle = corpus.load_bundle(self.ctx.corpus_dir)
        rng = np.random.default_rng(self.ctx.seed)

        def blocks(split: str, size: int) -> list:
            turns = bundle.split_turns(split)
            examples = qadpt.make_examples(
                bundle, [turns[int(i)] for i in rng.permutation(len(turns))])
            size = min(size, len(examples))
            return [examples[i:i + size]
                    for i in range(0, len(examples) - size + 1, size)]

        self.train_blocks = blocks("train", self.ctx.sizes.train_turns)
        self.valid_blocks = blocks("valid", self.ctx.sizes.valid_turns)
        self.vocab = bundle.vocab

    @contextlib.contextmanager
    def _recording_batches(self):
        inner = qadpt.batch_loss

        def recorded(model, examples):
            result = inner(model, examples)
            tape, loss, n_tok, _ = result
            self.batches.append((float(tape.value(loss)), n_tok, self.round))
            return result

        qadpt.batch_loss = recorded
        try:
            yield
        finally:
            qadpt.batch_loss = inner

    def run(self, plan: Plan) -> None:
        phase = self.phase("train")
        ckpt = self.ctx.work("train") / "model.ckpt"
        hyper = qadpt.Hyperparams(max_epochs=1, seed=self.ctx.seed)
        blocks = len(self.train_blocks)
        with self._recording_batches():
            for r in plan.budget("train", 1.0, blocks):
                train_ex = self.train_blocks[r % blocks]
                valid_ex = self.valid_blocks[r % len(self.valid_blocks)]
                self.round = r
                first = len(self.batches)
                try:
                    with self.timed("train", group=r % blocks) as sample, \
                            self.span("bench.train_round"):
                        model = qadpt.QadptModel(hyper, self.vocab)
                        qadpt.train(model, train_ex, valid_ex)
                        qadpt.save_checkpoint(model, ckpt)
                except (ValueError, OSError) as exc:
                    phase.record(False, f"round raised {exc!r}")
                    continue
                self.validated += len(valid_ex)
                batches = self.batches[first:]
                sample.work = sum(n for _, n, _ in batches)
                for loss, _, _ in batches:
                    phase.record(math.isfinite(loss), f"batch loss {loss}")

    def quality(self) -> dict:
        # one pass over the training split, so the loss does not depend
        # on how many rounds fit in the run
        first = [(l, n) for l, n, r in self.batches
                 if r < len(self.train_blocks)]
        tokens = sum(n for _, n in first)
        loss = sum(l * n for l, n in first) / tokens if tokens else 0.0
        return {"quality.train_loss": loss}

    def figures(self) -> dict:
        return {"train_tokens_per_s": self.rate("train"), **self.quality()}

    def issued(self) -> dict:
        return {"qadpt.teacher_force": self.validated,
                "qadpt.greedy_decode": 0}


# ---------------------------------------------------------------------------
# ingest


class Ingest(Workload):
    """Rounds of the synth and stats stages on one synthetic world each:
    generate_synthetic, ingest, save_bundle, load_bundle, corpus_stats.
    Round r of seed s reads world INGEST_WORLD_SEEDS[(s + r) % 4]; a run
    covers every world."""

    name = "ingest"
    work_kinds = ("ingest",)
    reach = ("corpus.generate_synthetic", "corpus.ingest", "corpus.tokenize",
             "kgraph.sample_subgraph", "kgraph.k_shortest_paths",
             "corpus.save_bundle", "corpus.load_bundle", "corpus.corpus_stats",
             "kgraph.shortest_path_lengths")

    def _round(self, config, world_seed: int, out: Path):
        syn = corpus.generate_synthetic(config, seed=world_seed)
        bundle = corpus.ingest(syn.raw_turns, syn.graph, syn.lexicon)
        corpus.save_bundle(bundle, out)
        loaded = corpus.load_bundle(out)
        return loaded, corpus.corpus_stats(loaded)

    def setup(self) -> None:
        # warm-up on the smallest world, so lazy set-up is paid before timing
        self._round(corpus.SyntheticConfig(**TOY_WORLD), 0,
                    self.ctx.work("ingest-warmup"))

    def run(self, plan: Plan) -> None:
        phase = self.phase("ingest")
        config = corpus.SyntheticConfig(**self.ctx.sizes.ingest_world)
        pins = BUNDLE_DIGESTS[self.ctx.sizes.label]
        out = self.ctx.work("ingest")
        for r in plan.budget("ingest", 1.0, len(INGEST_WORLD_SEEDS)):
            world = INGEST_WORLD_SEEDS[(self.ctx.seed + r) %
                                       len(INGEST_WORLD_SEEDS)]
            try:
                with self.timed("ingest", work=config.n_turns, group=world), \
                        self.span("bench.ingest_round"):
                    loaded, stats = self._round(config, world, out)
            except (ValueError, OSError) as exc:
                phase.record(False, f"world {world} raised {exc!r}")
                continue
            digest = bundle_digest(out)
            ok = (digest == pins.get(world) and
                  len(loaded.turns) == config.n_turns == stats.n_turns)
            phase.record(ok, f"world {world}: bundle sha256 {digest}, "
                             f"pinned {pins.get(world)}")

    def figures(self) -> dict:
        return {"ingest_turns_per_s": self.rate("ingest")}


# ---------------------------------------------------------------------------
# serve


class ChatClient:
    """A closed-loop chat user standing in for `input()`: the REPL asks
    for a line, the client checks the output of its previous line and
    sends the next. Every CHAT_SWAP_EVERY-th line is a `/swap`: a
    seeded edit of a triple, then the edit undone, in turn. The other
    lines are held-out messages in seeded order. The host-speed probe
    runs while the REPL waits, outside each line's latency."""

    def __init__(self, messages, graph, seed: int, budget: Budget,
                 out: io.StringIO, phase: Phase, speed: HostSpeed, span):
        self.rng = np.random.default_rng([seed, 2])
        self.messages = messages
        self.order = self.rng.permutation(len(messages))
        self.triples = set(graph.triples)
        tails: dict = {}
        for t in graph.triples:
            tails.setdefault(t.relation, set()).add(t.tail)
        self.tails = {r: sorted(ts) for r, ts in tails.items()}
        self.lines = iter(budget)
        self.out = out
        self.phase = phase
        self.speed = speed
        self.span = span
        self.sent = 0
        self.swaps = 0
        self.latency: list = []      # Sample per message turn
        self.swap_latency: list = []
        self._pending = None         # (kind, expected output, probe, sent at)
        self.edited = None           # (original triple, its swapped form)

    def __call__(self, prompt: str = "") -> str:
        now = clock()
        with self.span("bench.client"):
            probe = self.speed.probe()
            if self._pending is not None:
                self._finish(now, probe)
            else:
                self._take_output()     # the REPL's banner
            try:
                i = next(self.lines)
            except StopIteration:
                raise EOFError from None
            line, kind, expect = self._next_line(i)
        self._pending = (kind, expect, probe, clock())
        return line

    def _next_line(self, i: int) -> tuple:
        if (i + 1) % CHAT_SWAP_EVERY == 0:
            swap = self._restore() if self.edited else self._edit()
            if swap is not None:
                (h, r, old), (_, _, new) = swap
                self.triples.remove(swap[0])
                self.triples.add(swap[1])
                return (f"/swap {h} {r} {old} {new}", "swap",
                        f"swapped: {h} -{r}-> {new}\n")
        msg = self.messages[int(self.order[self.sent % len(self.messages)])]
        self.sent += 1
        return msg, "message", None

    def _edit(self):
        """Swap the tail of a seeded triple for another tail its
        relation has in the graph."""
        ordered = sorted(self.triples)
        victim = ordered[int(self.rng.integers(len(ordered)))]
        h, r, t = victim
        options = [e for e in self.tails[r]
                   if e not in (t, h) and (h, r, e) not in self.triples]
        if not options:
            return None
        new = options[int(self.rng.integers(len(options)))]
        self.edited = (victim, type(victim)(h, r, new))
        return self.edited

    def _restore(self):
        """Swap the last edit back, so the graph the REPL holds stays
        within one edit of the corpus graph."""
        victim, new = self.edited
        self.edited = None
        return new, victim

    def _take_output(self) -> str:
        text = self.out.getvalue()
        self.out.seek(0)
        self.out.truncate(0)
        return text

    def _finish(self, now: float, probe: float) -> None:
        kind, expect, before, sent_at = self._pending
        sample = Sample(work=1, wall=now - sent_at, probe=(before + probe) / 2)
        text = self._take_output()
        if kind == "swap":
            self.swap_latency.append(sample)
            self.swaps += 1
            self.phase.record(text == expect, f"swap answered {text!r}")
            return
        self.latency.append(sample)
        lines = text.splitlines()
        ok = (bool(lines) and not lines[0].startswith("  path: ") and
              all(x.startswith("  path: ") for x in lines[1:]))
        self.phase.record(ok, f"reply {text!r}")


@contextlib.contextmanager
def _console(client, out: io.StringIO):
    saved = builtins.input
    builtins.input = client
    try:
        with contextlib.redirect_stdout(out):
            yield
    finally:
        builtins.input = saved


class Serve(Workload):
    """Inference from the prepared checkpoint: evaluate_report over the
    held-out split in chunks, perturb_and_decode plus
    perturbation_report under all, last1 and last2 on the same chunks,
    then one closed-loop `kgchat chat` session. Quality metrics come
    from the first pass over every chunk."""

    name = "serve"
    work_kinds = ("eval", "perturb")
    reach = ("corpus.load_bundle", "qadpt.load_checkpoint",
             "qadpt.make_example", "kgraph.build_adjacency",
             "metrics.evaluate_report", "qadpt.teacher_force",
             "qadpt.greedy_decode", "qadpt.infer_path",
             "metrics.bleu2_sentence", "qadpt.perturb_and_decode",
             "kgraph.perturb_all", "kgraph.perturb_last1",
             "kgraph.perturb_last2", "metrics.perturbation_report",
             "cli.cmd_chat", "corpus.tokenize", "numkernel.Tape.gru",
             "numkernel.Tape.kg_hop", "numkernel.Tape.row_softmax",
             "numkernel.Tape.mask_renorm_rows")

    def __init__(self, ctx: Context, span=None):
        super().__init__(ctx, span)
        self.eval_turns: list = []   # per-turn records of the first cycle
        self.eval_report = None
        self.last1_runs: list = []   # last1 runs of the first cycle
        self.evaluated = 0
        self.check_decodes = 0
        self.perturb_sent = 0
        self.perturb_skipped = 0
        self.redecodes = 0
        self.client = None

    def setup(self) -> None:
        self.bundle = corpus.load_bundle(self.ctx.corpus_dir)
        self.model = qadpt.load_checkpoint(self.ctx.checkpoint)
        examples = qadpt.make_examples(self.bundle,
                                       self.bundle.split_turns("test"))
        # short operations, so the host-speed probe tracks each one
        parts = np.array_split(np.arange(len(examples)),
                               max(1, round(len(examples) / EVAL_CHUNK)))
        self.chunks = [[examples[int(i)] for i in part] for part in parts]

    def run(self, plan: Plan) -> None:
        chunks = len(self.chunks)
        self._eval(plan.budget("eval", 0.3, chunks))
        self._perturb(plan.budget("perturb", 0.45,
                                  chunks * len(PERTURB_MODES)))
        self._chat(plan.budget("chat", 0.25, self.ctx.sizes.chat_min_lines))

    def _eval(self, budget: Budget) -> None:
        phase = self.phase("eval")
        decode = self.phase("decode")
        rng = np.random.default_rng([self.ctx.seed, 1])
        chunks = self.chunks
        for op in budget:
            cycle, chunk = divmod(op, len(chunks))
            examples = chunks[chunk]
            try:
                with self.timed("eval", work=len(examples), group=chunk), \
                        self.span("bench.eval_pass"):
                    report = metrics.evaluate_report(self.model, examples)
            except (ValueError, OSError) as exc:
                phase.record(False, f"evaluate_report raised {exc!r}")
                continue
            self.evaluated += len(examples)
            replay = metrics.recompute_scalars(report)
            phase.record(replay == report.to_dict()["metrics"],
                         "recompute_scalars disagrees with the report")
            if cycle == 0:
                self.eval_turns.extend(report.turns)
                self.eval_report = report
            picks = rng.choice(len(examples), replace=False,
                               size=min(self.ctx.sizes.decode_checks,
                                        len(examples)))
            for i in picks:
                with self.span("bench.decode_check"):
                    dec = qadpt.greedy_decode(self.model, examples[i])
                self.check_decodes += 1
                first = report.turns[i]
                decode.record(dec.tokens == first.generated,
                              f"turn {first.turn_id} decoded "
                              f"{first.generated}, then {dec.tokens}")

    def _perturb(self, budget: Budget) -> None:
        phase = self.phase("perturb")
        entities = self.model.vocab.entities
        chunks = self.chunks
        for op in budget:
            cycle, pos = divmod(op, len(chunks) * len(PERTURB_MODES))
            chunk, mode = divmod(pos, len(PERTURB_MODES))
            mode = PERTURB_MODES[mode]
            examples = chunks[chunk]
            n = len(examples)
            try:
                with self.timed("perturb", work=n, group=pos), \
                        self.span("bench.perturb_pass"):
                    runs = qadpt.perturb_and_decode(
                        self.model, examples, mode, seed=PERTURB_SEED)
                    rep = metrics.perturbation_report(entities, runs, mode)
            except (ValueError, OSError) as exc:
                phase.record(False, f"{mode} raised {exc!r}")
                continue
            self.perturb_sent += n
            self.perturb_skipped += rep.n_skipped
            self.redecodes += rep.n_turns
            phase.record(rep.n_turns + rep.n_skipped == n,
                         f"{mode}: {rep.n_turns} scored + "
                         f"{rep.n_skipped} skipped != {n} sent")
            if cycle == 0 and mode == "last1":
                self.last1_runs.extend(runs)

    def _chat(self, budget: Budget) -> None:
        phase = self.phase("chat")
        messages = [" ".join(t.message)
                    for t in self.bundle.split_turns("test") if t.message]
        out = io.StringIO()
        self.client = ChatClient(messages, self.bundle.graph, self.ctx.seed,
                                 budget, out, phase, self.ctx.speed, self.span)
        argv = ["chat", "--checkpoint", str(self.ctx.checkpoint),
                "--bundle", str(self.ctx.corpus_dir)]
        with self.span("bench.chat_session"), _console(self.client, out):
            code = cli.main(argv)
        phase.record(code == 0, f"kgchat chat exited {code}")
        self.samples["chat"] = self.client.latency

    def latencies_ms(self) -> list:
        # every message turn: a chat session has hundreds, and keeping
        # only those at the fastest core speeds spread more between runs
        return [1e3 * t for t in self.scaled("chat")]

    def quality(self) -> dict:
        quality = {"ppl": 0.0, "bleu2": 0.0}
        if self.eval_turns:
            whole = dataclasses.replace(self.eval_report,
                                        turns=self.eval_turns,
                                        n_turns=len(self.eval_turns))
            quality = metrics.recompute_scalars(whole)
        acc = None
        if self.last1_runs:
            acc = metrics.perturbation_report(
                self.model.vocab.entities, self.last1_runs,
                "last1").accurate_change_rate
        return {
            "quality.eval_ppl": quality["ppl"],
            "quality.eval_bleu2": quality["bleu2"],
            "quality.perturb_accurate_change_rate":
                0.0 if acc is None else acc,
        }

    def figures(self) -> dict:
        lat = self.latencies_ms()
        return {
            "eval_turns_per_s": self.rate("eval"),
            "perturb_turns_per_s": self.rate("perturb"),
            "chat_turn_ms_p50": float(np.percentile(lat, 50)) if lat else 0.0,
            "chat_turn_ms_p90": float(np.percentile(lat, 90)) if lat else 0.0,
            **self.quality(),
        }

    def issued(self) -> dict:
        chat = self.client.sent if self.client else 0
        return {"qadpt.teacher_force": self.evaluated,
                "qadpt.greedy_decode": (self.evaluated + self.check_decodes +
                                        self.perturb_sent + self.redecodes +
                                        chat)}

    def layer_counts(self) -> dict:
        share = (self.perturb_skipped / self.perturb_sent
                 if self.perturb_sent else 0.0)
        return {"cli.chat.swaps": self.client.swaps if self.client else 0,
                "kgraph.perturb.skipped_share": share}

    def details(self) -> dict:
        out = super().details()
        if self.client:
            out["chat_swaps"] = self.client.swaps
            out["chat_swap_ms_p50"] = 1e3 * _median(
                [self.ctx.speed.scaled(s) for s in self.client.swap_latency])
        return out


WORKLOADS = {w.name: w for w in (Train, Ingest, Serve)}
