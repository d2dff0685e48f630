"""The benchmark's workloads: one pipeline over the motionbind library,
run on two input make-ups.

Every workload runs the same phases, so that every metric is measured on
every workload: set-up, `prepare_windows`, DeSPITE pre-training, a linear
point-cloud probe, window embedding, matching, EMB1 retrieval and moment
retrieval.  The make-up decides how much work the inputs share and where
the run's `--seconds` go:

- pretrain: many 48-frame training clips; one `alignment.train` call gets
  a quarter of the seconds.  Its timed embedding covers stride-24 windows of
  48-frame clips, so no frame is encoded twice.
- long_recordings: 344-frame recordings chaining all 8 activities, embedded
  at stride 1 (each frame encoded about 22 times, batches of 256 windows).

Each phase's whole work is split into slots (training: one epoch from the
initial model).  Preparing the inputs, the training call and embedding the
timed index give the first samples of the preparation, training and
embedding slots.  A first pass then runs every slot of the checked phases
once, the phases taking turns, and its outputs are checked.  After it,
slots are drawn until `--seconds` after the process started: the phase that
has used least of its share of the time goes next, with its next slot in
turn.  So every phase is sampled across the whole run rather than in one
stretch of it.  A metric is its phase's work over the sum of its slots'
times, a slot's time being a low percentile of its samples (`_slot_time`).

Untraced runs call the library's functions and time them from outside.
Traced runs also drive the parts of training, window preparation and
embedding themselves, with spans around each call, and report per-layer
metrics.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from motionbind.alignment import AlignedBatch, Temperature, TrainConfig, embed_batch, total_loss, train
from motionbind.cli import (
    RunConfig,
    load_checkpoint,
    load_store,
    restore_model,
    save_checkpoint,
    save_store,
)
from motionbind.encoders import EncoderSet
from motionbind.evalkit import (
    EmbeddingDatabase,
    class_retrieval_rate,
    db_retrieve,
    embed_clips,
    matching_benchmark,
    moment_retrieval_benchmark,
)
from motionbind.har import ClassifierHead, FinetuneSchedule, probe_train
from motionbind.motionsynth import (
    DEFAULT_CLASSES,
    DatasetSpec,
    build_vocabulary,
    generate_dataset,
    load_clips,
    make_sequence,
    save_clips,
    splitmix64,
)
from motionbind.optim import Adam
from motionbind.pipeline import (
    AugmentSpec,
    BatchLoader,
    WindowSpec,
    center_window,
    downsample_clip,
    make_batch,
    prepare_windows,
    sliding_windows,
)
from motionbind.tensor import Tensor, precision

import checks
from spans import NullTracer, Tracer

CLASSES = list(DEFAULT_CLASSES)
SENSING = ("pointcloud", "imu", "skeleton")
MATCH_PAIRS = [(a, b) for a in SENSING for b in SENSING]
MOMENT_PAIRS = [(a, b) for a in SENSING for b in SENSING if a != b] + [("pointcloud", "pointcloud")]
N_LIST = (2, 8, 16, 32)
K_LIST = (1, 10, 20, 50)
TOL = 10
RETRIEVE_K = 10
TRAIN_STRIDE = 12
EMBED_BATCH = 256          # evalkit.encode_windows' batch size
FD_ROWS = 16               # windows in the float64 finite-difference batch
SINGLE_WINDOWS = 6         # windows re-embedded alone per modality
CHUNKS = 8                 # slots for phases that split by clip or query
PASS_QUERIES = 600         # the retrieval slots repeat the query set up to this many queries
MATCH_SCENES = 50          # scenes per (pair, n) in one slot
MIN_EPOCHS = 3
# Phases whose outputs the first pass checks; training and window
# preparation are sampled first by the training call and by `prepare`.
CHECKED = ("probe", "embed", "match", "retrieve", "moment")


@dataclass(frozen=True)
class Workload:
    train_per_class: int   # 48-frame training clips per class (stride-12 windows)
    test_per_class: int    # 48-frame test clips per class
    clip_stride: int       # window stride of the test-clip index
    recordings: int        # 344-frame multi-activity recordings (stride 1)
    embed_set: str         # index whose embedding is timed: "clips" or "recordings"
    train_share: float     # share of --seconds given to training; the slots get the rest
    weights: tuple = ()    # (phase, weight) pairs; a phase's share of the slot time, 1 if unnamed


WORKLOADS = {
    "pretrain": Workload(12, 4, 24, 1, "clips", 0.25,
                         (("probe", 3), ("train", 2), ("prepare", 3), ("embed", 3), ("retrieve", 2))),
    "long_recordings": Workload(4, 4, 12, 4, "recordings", 0.05,
                                (("embed", 5), ("probe", 2), ("retrieve", 2), ("prepare", 3))),
}


def _epoch_seed(seed: int, epoch: int) -> int:
    """The per-epoch loader seed `alignment.train` uses."""
    return (seed * 1_000_003 + epoch) & 0xFFFFFFFF


def _split(items: list, n: int) -> list:
    """`items` in at most n contiguous, nearly equal, non-empty groups."""
    n = min(n, len(items))
    bounds = np.linspace(0, len(items), n + 1).round().astype(int)
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _slot_time(samples: list) -> float:
    """A slot's time: the 10th percentile of its samples.

    On a shared machine other tenants' load comes and goes over seconds and
    only ever adds time; a slot's median flips between the quiet and the
    loaded speed with the share of the run the load covers, while a low
    percentile stays with the quiet one unless the load covers the whole run.
    """
    return float(np.percentile(samples, 10))


def _tape_nodes(root: Tensor) -> int:
    """Tape nodes reachable from `root`, leaves and constants included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class Run:
    """One workload run; phases fill `metrics`, `per_layer` and `attempted`."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path, t0: float):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.t0 = t0
        self.tracer = Tracer() if trace else NullTracer()
        self.metrics: dict = {}
        self.per_layer: dict = {}
        self.attempted = 0
        self.passed: list = []
        self.failures: list = []
        self.overhead = {"traced": 0.0, "untraced": 0.0}
        self.samples = defaultdict(lambda: defaultdict(list))  # phase -> slot -> seconds
        self.done = defaultdict(int)     # phase -> units of work in timed slots

    def check(self, what: str, fn) -> None:
        """Run one correctness check; a failure is recorded, not raised."""
        try:
            fn()
        except checks.CheckFailed as exc:
            self.failures.append(f"{what}: {exc}")
        else:
            self.passed.append(what)

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        w, seed, span = self.w, self.seed, self.tracer.span
        with span("motionsynth.generate"):
            generate_dataset(DatasetSpec(train_per_class=w.train_per_class,
                                         test_per_class=w.test_per_class,
                                         text_coverage=0.37, length=48, n_raw=256),
                             seed=seed, out_dir=self.work)
            rng = np.random.default_rng(splitmix64(seed, 5))
            recs = [make_sequence([CLASSES[j] for j in rng.permutation(len(CLASSES))],
                                  2_000_000 + i, 20_000 + i, seed, seg_len=42, n_raw=256,
                                  fade=8)
                    for i in range(w.recordings)]
            save_clips(self.work / "recordings.mmc", recs)
        with span("motionsynth.load_clips"):
            self.train_clips = load_clips(self.work / "train.mmc")
            self.test_clips = load_clips(self.work / "test.mmc")
            self.recordings = load_clips(self.work / "recordings.mmc")
        with span("cli.checkpoint_roundtrip"):
            self.cfg = RunConfig(variant="DeSPITE", e=128, window=24, points=64,
                                 stride=TRAIN_STRIDE, hidden=128, batch=64, seed=seed,
                                 augment=True, data=str(self.work))
            graph = self.cfg.graph()
            enc = EncoderSet.build(self.cfg.encoder_config(), set(graph.modalities),
                                   seed=seed, vocab=build_vocabulary())
            save_checkpoint(self.work / "init.ckpt", self.cfg, enc,
                            Temperature(self.cfg.tau_init), {}, 0)
            self.ckpt = load_checkpoint(self.work / "init.ckpt")
            self.encoders, _, self.graph = restore_model(self.ckpt)
        self.metrics["setup_s"] = time.perf_counter() - self.t0
        self.attempted += 1
        if self.trace:
            for name in ("motionsynth.generate", "motionsynth.load_clips",
                         "cli.checkpoint_roundtrip"):
                self.per_layer[name + "_ms"] = 1e3 * self.tracer.total(name)

    # -- window preparation -----------------------------------------------------

    def prepare(self) -> None:
        fps_seed = splitmix64(self.seed, 11)
        train_spec = WindowSpec(length=24, stride=TRAIN_STRIDE)
        clip_spec = WindowSpec(length=24, stride=self.w.clip_stride)
        dense = WindowSpec(length=24, stride=1)
        self.jobs = ([(c, train_spec, fps_seed) for c in self.train_clips]
                     + [(c, clip_spec, None) for c in self.test_clips]
                     + [(c, dense, None) for c in self.recordings])
        # The first run of the prepare slots: the same groups as in `_chunks`.
        prepared = []
        for i, group in enumerate(_split(self.jobs, CHUNKS)):
            t = time.perf_counter()
            prepared.extend(self._prepare_one(*job) for job in group)
            self.samples["prepare"][i].append(time.perf_counter() - t)
        self.attempted += len(self.jobs)
        k, m = len(self.train_clips), len(self.test_clips)
        self.train_windows = [w for ws in prepared[:k] for w in ws]
        self.clip_windows = {c.clip_id: ws for c, ws in zip(self.test_clips, prepared[k:k + m])}
        self.rec_windows = {c.clip_id: ws for c, ws in zip(self.recordings, prepared[k + m:])}
        if self.trace:
            for name in ("pipeline.fps", "pipeline.window"):
                self.per_layer[name + "_ms_per_clip"] = 1e3 * self.tracer.total(name) / len(self.jobs)

    def _prepare_one(self, clip, spec, fps_seed):
        if not self.trace:
            return prepare_windows([clip], spec, self.cfg.points, fps_seed=fps_seed)
        with self.tracer.span("pipeline.fps"):
            ds = downsample_clip(clip, self.cfg.points, seed=fps_seed)
        with self.tracer.span("pipeline.window"):
            return [center_window(w) for w in sliding_windows(ds, spec)]

    # -- pre-training -------------------------------------------------------------

    def _train_config(self, epochs: int) -> TrainConfig:
        c = self.cfg
        return TrainConfig(batch_size=c.batch, lr=c.lr, epochs=epochs, alpha=c.alpha,
                           beta=c.beta, tau_init=c.tau_init, seed=self.seed)

    def pretrain(self) -> None:
        augment = AugmentSpec(enabled=True)
        self.loader = loader = BatchLoader(self.train_windows, augment=augment,
                                           text_embedder=self.encoders.text)
        batch = self.cfg.batch
        steps = len(self.train_windows) // batch

        # A one-step warm-up on a separate copy of the model; it also sizes the timed run.
        t = time.time()
        train(BatchLoader(self.train_windows[:batch], augment=augment,
                          text_embedder=self.encoders.text),
              self.graph, restore_model(self.ckpt)[0], self._train_config(1))
        epochs = max(MIN_EPOCHS, round(self.w.train_share * self.seconds / (steps * (time.time() - t))))

        first = next(loader.batches(_epoch_seed(self.seed, 0), batch))
        emb = embed_batch(self.encoders, self.graph, first).embeddings
        expected_step0 = checks.despite_loss(
            {k: v.data for k, v in emb.items()}, first["tm"], self.graph.sensing(),
            tau=self.cfg.tau_init, alpha=self.cfg.alpha, beta=self.cfg.beta)
        self._check_directional_gradient(first)

        log = self.work / "metrics.jsonl"
        t = time.time()
        res = train(loader, self.graph, self.encoders, self._train_config(epochs), metrics_path=log)
        ends = [t] + [m["time"] for m in res.metrics]
        self.samples["train"][0].extend(b - a for a, b in zip(ends, ends[1:]))  # the epoch slot
        self.done["train"] += epochs * steps * batch
        self.overhead["untraced"] += res.metrics[-1]["time"] - t
        losses = [json.loads(line)["total"] for line in log.read_text().splitlines()]
        self.attempted += len(losses) + 1

        self.check("step-0 loss equals a NumPy InfoNCE of the first batch",
                   lambda: checks.check_close("step-0 loss", losses[0], expected_step0))
        if steps >= 4:   # epoch means over a single batch or two are too noisy to compare
            self.check("last epoch loss below the first",
                       lambda: checks.check_loss_decreased([m["total"] for m in res.metrics]))
        if self.trace:
            traced = self._pretrain_traced(loader, epochs)
            self.attempted += len(traced)
            self.check("traced step losses equal untraced", lambda: checks.check_equal_sequences(
                "traced vs untraced step losses", traced, losses))

    def _check_directional_gradient(self, arrays: dict) -> None:
        """Tape gradient along one direction vs a float64 central difference."""
        sub = {k: v[:FD_ROWS] for k, v in arrays.items()}
        state = {name: enc.state() for name, enc in self.encoders.sensing().items()}
        with precision(np.float64):
            enc = EncoderSet.build(self.cfg.encoder_config(), set(self.graph.modalities),
                                   seed=self.seed, vocab=build_vocabulary())
            for name, module in enc.sensing().items():
                module.load_state(state[name])
            temp = Temperature(self.cfg.tau_init)
            params = list(enc.params().values()) + [temp.log_tau]

            def loss():
                return total_loss(embed_batch(enc, self.graph, sub), self.graph, temp.value(),
                                  self.cfg.alpha, self.cfg.beta)

            def unit(vs):
                norm = np.sqrt(sum((v * v).sum() for v in vs))
                return [v / norm for v in vs]

            loss().backward()
            # Half gradient, half random: along a purely random unit direction
            # the derivative is ~|g|/sqrt(#params), too small for a central
            # difference to resolve against the loss's float64 rounding.
            rng = np.random.default_rng(splitmix64(self.seed, 13))
            rand = [rng.standard_normal(p.data.shape) for p in params]
            dirs = [g + r for g, r in zip(unit([p.grad for p in params]), unit(rand))]
            analytic = float(sum((p.grad * d).sum() for p, d in zip(params, dirs)))
            base = [p.data.copy() for p in params]
            eps = 1e-6
            values = []
            for sign in (1.0, -1.0):
                for p, b0, d in zip(params, base, dirs):
                    p.data = b0 + sign * eps * d
                values.append(loss().item())
        self.check("tape gradient agrees with a float64 directional finite difference",
                   lambda: checks.check_close("directional derivative", analytic,
                                              (values[0] - values[1]) / (2 * eps), rtol=1e-5))

    def _pretrain_traced(self, loader, epochs: int) -> list:
        """Drive train()'s step loop with spans; same seeds, same initial model."""
        span = self.tracer.span
        encoders = restore_model(self.ckpt)[0]
        c = self.cfg
        temp = Temperature(c.tau_init)
        params = dict(encoders.params())
        params["temperature.log_tau"] = temp.log_tau
        opt = Adam(params, lr=c.lr)

        def step(arrays):
            opt.zero_grad()
            emb = {}
            for name in self.graph.sensing():
                with span(f"encoders.{name}.forward"):
                    emb[name] = encoders.modality(name)(arrays[name])
            emb["text"] = Tensor(arrays["text_emb"])
            with span("alignment.loss"):
                loss = total_loss(AlignedBatch(embeddings=emb, tm=np.asarray(arrays["tm"])),
                                  self.graph, temp.value(), c.alpha, c.beta)
            with span("tensor.backward"):
                loss.backward()
            with span("optim.adam"):
                opt.step()
            return loss

        losses = []
        t = time.perf_counter()
        for epoch in range(epochs):
            batches = loader.batches(_epoch_seed(self.seed, epoch), c.batch)
            while True:
                with span("pipeline.batch"):
                    arrays = next(batches, None)
                if arrays is None:
                    break
                loss = step(arrays)
                losses.append(loss.item())
                if len(losses) == 1:
                    nodes = _tape_nodes(loss)
        self.overhead["traced"] += time.perf_counter() - t
        for name in ("pipeline.batch", "alignment.loss", "tensor.backward", "optim.adam") + tuple(
                f"encoders.{m}.forward" for m in SENSING):
            self.per_layer[name + "_ms"] = 1e3 * self.tracer.total(name) / len(losses)
        self.per_layer["tensor.nodes_per_step"] = float(nodes)
        arrays = next(loader.batches(_epoch_seed(self.seed, epochs), c.batch))
        self.per_layer["tensor.step_peak_mb"] = _traced_peak_mb(lambda: step(arrays))
        return losses

    # -- embedding indexes ----------------------------------------------------------

    def index(self) -> None:
        """Embed the test clips and the recordings once, for the later phases."""
        clips = self.w.embed_set == "clips"
        timed, other = ((self.clip_windows, self.rec_windows) if clips
                        else (self.rec_windows, self.clip_windows))
        # The timed index is embedded in the embed slots' groups, a first sample of each.
        parts = {}
        for i, group in enumerate(_split(sorted(timed), CHUNKS)):
            t = time.perf_counter()
            part = embed_clips(self.encoders, {c: timed[c] for c in group}, SENSING)
            self.samples["embed"][i].append(time.perf_counter() - t)
            parts.update({(mod, cid): e for mod, table in part.items() for cid, e in table.items()})
        self.embed_index = {mod: {cid: parts[mod, cid] for cid in timed} for mod in SENSING}
        other_index = embed_clips(self.encoders, other, SENSING)
        self.clip_index, self.rec_index = ((self.embed_index, other_index) if clips
                                           else (other_index, self.embed_index))
        self.attempted += len(SENSING) * sum(
            len(ws) for d in (self.clip_windows, self.rec_windows) for ws in d.values())

        rng = np.random.default_rng(splitmix64(self.seed, 17))
        flat = [(cid, j) for cid, ws in timed.items() for j in range(len(ws))]
        picks = [flat[i] for i in rng.choice(len(flat), size=SINGLE_WINDOWS, replace=False)]
        for mod in SENSING:
            enc = self.encoders.modality(mod)
            single = [enc(make_batch([timed[cid][j]])[mod]).data[0] for cid, j in picks]
            rows = [self.embed_index[mod][cid].Z[j] for cid, j in picks]
            self.check(f"single-window {mod} embeddings equal their index rows",
                       lambda: checks.check_rows_match(f"{mod} embedding", single, rows))
        if self.trace:
            t = time.perf_counter()
            embed_clips(self.encoders, timed, SENSING)
            self.overhead["untraced"] += time.perf_counter() - t
            self._embed_traced(timed)

    def _embed_traced(self, timed: dict) -> None:
        """evalkit.encode_windows' loop over each clip, with spans."""
        span = self.tracer.span
        t = time.perf_counter()
        for mod in SENSING:
            enc = self.encoders.modality(mod)
            for ws in timed.values():
                for i in range(0, len(ws), EMBED_BATCH):
                    with span("pipeline.make_batch"):
                        arrays = make_batch(ws[i:i + EMBED_BATCH])
                    with span(f"encoders.{mod}.embed"):
                        enc(arrays[mod])
        self.overhead["traced"] += time.perf_counter() - t
        per = EMBED_BATCH / sum(len(ws) for ws in timed.values())
        self.per_layer["pipeline.make_batch_ms"] = \
            1e3 * self.tracer.total("pipeline.make_batch") * per / len(SENSING)
        first = make_batch(next(iter(timed.values()))[:EMBED_BATCH])
        nodes, peaks = 0, []
        for mod in SENSING:
            enc = self.encoders.modality(mod)
            self.per_layer[f"encoders.{mod}.embed_ms"] = \
                1e3 * self.tracer.total(f"encoders.{mod}.embed") * per
            nodes += _tape_nodes(enc(first[mod]))
            peaks.append(_traced_peak_mb(lambda: enc(first[mod])))
        self.per_layer["tensor.nodes_per_window"] = nodes / len(first["tm"])
        self.per_layer["encoders.embed_peak_mb"] = max(peaks)

    # -- timed passes -----------------------------------------------------------------

    def _chunks(self, p: int) -> dict:
        """phase -> [(function, units of work)], one entry per slot.

        Each function leaves what the checks need in `self.out`; `p` seeds
        the matching scenes.
        """
        span, out = self.tracer.span, self.out
        timed = self.clip_windows if self.w.embed_set == "clips" else self.rec_windows

        def prepare(jobs):
            for job in jobs:
                self._prepare_one(*job)

        test_w = [w for ws in self.clip_windows.values() for w in ws if w.start % TRAIN_STRIDE == 0]

        def probe():
            head = ClassifierHead("linear", self.cfg.hidden, len(CLASSES), hidden=256,
                                  rng=np.random.default_rng(self.seed))
            with span("har.probe_train"):
                out["probe"] = probe_train(self.encoders.pointcloud, "pointcloud", head,
                                           self.train_windows, test_w, CLASSES,
                                           sched=FinetuneSchedule(), seed=self.seed)
            out["probe_data"] = (head, test_w)

        def embed(cids):
            out.setdefault("embed", {}).update(
                embed_clips(self.encoders, {c: timed[c] for c in cids}, SENSING)["pointcloud"])

        def match(pair):
            with span("evalkit.matching_benchmark"):
                out.setdefault("match", []).extend(matching_benchmark(
                    self.clip_index, [pair], N_LIST, scenes=MATCH_SCENES,
                    seed=splitmix64(self.seed, 1000 + p)))

        def store(windows: dict, index: dict, mod: str) -> EmbeddingDatabase:
            ids = sorted(windows)
            return EmbeddingDatabase.from_windows(
                [w for cid in ids for w in windows[cid]],
                np.concatenate([index[mod][cid].Z for cid in ids]), mod)

        # Point-cloud queries from the labelled test clips against a skeleton
        # store of the test clips and the recordings.
        stores = {"skeleton": EmbeddingDatabase.merge([
                      store(self.clip_windows, self.clip_index, "skeleton"),
                      store(self.rec_windows, self.rec_index, "skeleton")]),
                  "pointcloud": store(self.clip_windows, self.clip_index, "pointcloud")}
        out["stores"] = stores
        n_queries = len(stores["pointcloud"])

        def stores_roundtrip():
            for mod, db in stores.items():
                with span("cli.save_store"):
                    save_store(self.work / f"{mod}.emb", db)
            for mod in stores:
                with span("cli.load_store"):
                    out[f"loaded_{mod}"] = load_store(self.work / f"{mod}.emb")

        def retrieve(rows):
            db, q = out["loaded_skeleton"], out["loaded_pointcloud"]
            found = out.setdefault("found", [])
            for i in rows:
                with span("evalkit.db_retrieve"):
                    found.append(db_retrieve(q.Z[i], db, k=RETRIEVE_K).indices)
            with span("evalkit.class_retrieval_rate"):
                class_retrieval_rate(q.Z[rows], q.class_ids[rows], db, k=RETRIEVE_K)

        def moment(pair):
            with span("evalkit.moment_retrieval_benchmark"):
                out.setdefault("moment", []).extend(
                    moment_retrieval_benchmark(self.rec_index, [pair], K_LIST, TOL))

        def train_epoch(model):
            train(self.loader, self.graph, model, self._train_config(1))

        n_rec = sum(len(ws) for ws in self.rec_windows.values())
        steps = len(self.train_windows) // self.cfg.batch
        return {
            "train": [(lambda m=restore_model(self.ckpt)[0]: train_epoch(m), steps * self.cfg.batch)],
            "prepare": [(lambda g=g: prepare(g), sum(c.length for c, _, _ in g))
                        for g in _split(self.jobs, CHUNKS)],
            "probe": [(probe, 1)],
            "embed": [(lambda g=g: embed(g), len(SENSING) * sum(len(timed[c]) for c in g))
                      for g in _split(sorted(timed), CHUNKS)],
            "match": [(lambda pr=pr: match(pr), len(N_LIST) * MATCH_SCENES)
                      for pr in MATCH_PAIRS],
            "retrieve": [(stores_roundtrip, 0)] + [
                (lambda g=g: retrieve(np.array(g)), len(g))
                for g in _split(list(range(n_queries)) * -(-PASS_QUERIES // n_queries), CHUNKS)],
            "moment": [(lambda pr=pr: moment(pr), n_rec) for pr in MOMENT_PAIRS],
        }

    def _run_slot(self, phases: dict, name: str, i: int) -> float:
        fn, units = phases[name][i]
        t = time.perf_counter()
        fn()
        dt = time.perf_counter() - t
        self.samples[name][i].append(dt)
        self.done[name] += units
        return dt

    def passes(self) -> None:
        """A checked first pass over the slots of the checked phases, then
        slots drawn by share until `--seconds` from the process's start."""
        self.out = {}
        phases = self._chunks(0)
        width = max(len(c) for c in phases.values())
        order = sorted((i * width // len(phases[name]), k, name, i)
                       for k, name in enumerate(CHECKED)
                       for i in range(len(phases[name])))
        for _, _, name, i in order:
            self._run_slot(phases, name, i)
        self._check_first_pass()

        if not self.trace:
            self.out = {}
            phases = self._chunks(1)
            weight = {name: 1.0 for name in phases} | dict(self.w.weights)
            used = dict.fromkeys(phases, 0.0)
            turn = dict.fromkeys(phases, 0)
            while True:
                name = min(phases, key=lambda n: used[n] / weight[n])
                i = turn[name]
                if time.perf_counter() + np.median(self.samples[name][i]) > self.t0 + self.seconds:
                    break
                used[name] += self._run_slot(phases, name, i)
                turn[name] = (i + 1) % len(phases[name])
                for key in ("embed", "match", "found", "moment"):   # unchecked outputs
                    self.out.pop(key, None)

        self.attempted += sum(self.done.values())
        rate = {name: sum(units for _, units in phases[name])
                / sum(_slot_time(self.samples[name][i]) for i in range(len(phases[name])))
                for name in phases}
        self.metrics.update({
            "train_windows_per_s": rate["train"],
            "prepare_frames_per_s": rate["prepare"],
            "probe_s": 1.0 / rate["probe"],
            "embed_windows_per_s": rate["embed"],
            "retrieve_queries_per_s": rate["retrieve"],
            "moment_queries_per_s": rate["moment"],
        })
        if self.trace:
            total = self.tracer.total
            roundtrips = len(self.samples["retrieve"][0])
            moments = sum(len(v) for v in self.samples["moment"].values())
            self.per_layer.update({
                "har.probe_train_ms": 1e3 * total("har.probe_train") / self.done["probe"],
                "evalkit.match_us_per_scene":
                    1e6 * total("evalkit.matching_benchmark") / self.done["match"],
                "cli.store_save_ms": 1e3 * total("cli.save_store") / (2 * roundtrips),
                "cli.store_load_ms": 1e3 * total("cli.load_store") / (2 * roundtrips),
                "evalkit.db_retrieve_ms": 1e3 * total("evalkit.db_retrieve") / self.done["retrieve"],
                "evalkit.moment_ms_per_clip": 1e3 * total("evalkit.moment_retrieval_benchmark")
                / (moments * len(self.rec_windows)),
            })

    def _check_first_pass(self) -> None:
        out = self.out
        res = out["probe"]
        head, test_w = out["probe_data"]
        enc = self.encoders.pointcloud
        with self.tracer.span("encoders.pointcloud.features"):
            feats = [np.concatenate([enc.features(make_batch(ws[i:i + EMBED_BATCH])["pointcloud"]).data
                                     for i in range(0, len(ws), EMBED_BATCH)])
                     for ws in (self.train_windows, test_w)]
        if self.trace:
            self.per_layer["encoders.pointcloud.features_ms"] = \
                1e3 * self.tracer.total("encoders.pointcloud.features")
        W, b = head.out.W.data, head.out.b.data
        self.check("probe accuracy recomputed from the head weights", lambda: [
            checks.check_probe_accuracy(acc, X, W, b, [c.id for c in CLASSES],
                                        [w.class_id for w in ws])
            for acc, X, ws in zip((res.train_accuracy, res.test_accuracy), feats,
                                  (self.train_windows, test_w))])
        self.check("re-embedding reproduces the index bit for bit", lambda: [
            checks.check_equal_sequences(f"clip {cid}", e.Z.tobytes(),
                                         self.embed_index["pointcloud"][cid].Z.tobytes())
            for cid, e in out["embed"].items()])
        self.check("self-pair matching is 1.0; cross-pair accuracy falls with n",
                   lambda: checks.check_matching(out["match"]))
        self.check("EMB1 round trip is bit-exact", lambda: [
            checks.check_store_roundtrip(db, out[f"loaded_{mod}"])
            for mod, db in out["stores"].items()])
        self.check("db_retrieve top-k equals a float64 stable argsort", lambda: checks.check_topk(
            out["loaded_pointcloud"].Z, out["loaded_skeleton"].Z, RETRIEVE_K,
            np.stack(out["found"][:len(out["loaded_pointcloud"])])))
        self.check("moment recall: self@1 is 1.0, monotone in k, equals brute force",
                   lambda: checks.check_moment_records(out["moment"], self.rec_index, K_LIST, TOL))

    # -- whole run ------------------------------------------------------------------------

    def run(self) -> None:
        with precision(np.float32):
            for phase in (self.setup, self.prepare, self.pretrain, self.index, self.passes):
                phase()
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.trace:
            o = self.overhead
            self.per_layer["trace.overhead_pct"] = 100.0 * (o["traced"] / o["untraced"] - 1.0)

    def summary(self) -> dict:
        return {"workload": self.name, "seed": self.seed, "seconds": self.seconds,
                "trace": self.trace, "workload_config": dataclasses.asdict(self.w),
                "checks_passed": self.passed, "checks_failed": self.failures,
                "metrics": self.metrics, "per_layer": self.per_layer,
                "slots": {"units": dict(self.done),
                          "samples_s": {name: [slots[i] for i in sorted(slots)]
                                        for name, slots in self.samples.items()}}}
