"""Command-line driver: dataset synthesis, training, embedding, evaluation.

Artifacts are binary files with 4-byte magics ("CKP1" checkpoints, "EMB1"
embedding stores) plus JSON configs and JSONL score records.  Exit codes:
0 success, 2 config error, 3 data error, 4 numerical abort.
"""

import argparse
import dataclasses
import json
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alignment import (
    ModalityGraph,
    Temperature,
    TrainConfig,
    TrainingAbort,
    VariantError,
    total_loss,
    embed_batch,
    train,
)
from .encoders import EncoderConfig, EncoderSet
from .evalkit import (
    EmbeddingDatabase,
    ProtocolError,
    class_retrieval_rate,
    db_retrieve,
    embed_clips,
    encode_windows,
    format_table,
    matching_benchmark,
    moment_retrieval_benchmark,
    text_retrieval,
    write_records,
)
from .har import (
    ClassifierHead,
    FinetuneSchedule,
    finetune,
    probe_train,
    segment_accuracy,
    zero_shot_classify,
)
from .motionsynth import (
    DEFAULT_CLASSES,
    DatasetSpec,
    build_vocabulary,
    generate_dataset,
    load_clips,
    splitmix64,
)
from .pipeline import AugmentSpec, BatchLoader, WindowSpec, prepare_windows
from .tensor import NumericsError, ShapeError, finite_diff_grad, precision

CKPT_MAGIC = b"CKP1"
CKPT_VERSION = 1
STORE_MAGIC = b"EMB1"
STORE_VERSION = 1
SEED_ENV = "MOTIONBIND_SEED"


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


class FormatError(DataError):
    pass


# --------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Resolved hyperparameters for one experiment run; fully seed-recorded."""

    variant: str = "DeSPIE"
    e: int = 128
    window: int = 24
    points: int = 64
    stride: int = 12
    hidden: int = 128
    lr: float = 1e-4
    batch: int = 64
    epochs: int = 30
    alpha: float = 0.5
    beta: float = 0.5
    tau_init: float = 0.07
    seed: int = 0
    augment: bool = True
    data: str = ""

    def graph(self) -> ModalityGraph:
        return ModalityGraph.from_variant(self.variant)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(e=self.e, points=self.points, window=self.window,
                             hidden=self.hidden)


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV} must be an integer, got {raw!r}")


def load_run_config(path, overrides: dict) -> RunConfig:
    """JSON config file (optional) with non-None CLI flags layered on top."""
    values = {}
    if path:
        try:
            values = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values.update({k: v for k, v in overrides.items() if v is not None and k in known})
    cfg = RunConfig(**values)
    if cfg.alpha < 0 or cfg.beta < 0:
        raise ConfigError("loss weights alpha and beta must be non-negative")
    try:
        cfg.graph()
    except VariantError as exc:
        raise ConfigError(str(exc))
    return cfg


def write_resolved_config(cfg: RunConfig, out_dir) -> Path:
    path = Path(out_dir) / "config.resolved.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg), indent=2) + "\n")
    return path


# --------------------------------------------------------------------------
# checkpoint format ("CKP1")


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode()
    db = arr.dtype.str.encode()  # e.g. b"<f8"
    fh.write(struct.pack("<H", len(nb)) + nb)
    fh.write(struct.pack("<B", len(db)) + db)
    fh.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<I", d))
    fh.write(np.ascontiguousarray(arr).tobytes())


def _read_array(fh):
    (nlen,) = struct.unpack("<H", fh.read(2))
    name = fh.read(nlen).decode()
    (dlen,) = struct.unpack("<B", fh.read(1))
    dtype = np.dtype(fh.read(dlen).decode())
    (ndim,) = struct.unpack("<B", fh.read(1))
    shape = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(ndim))
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    arr = np.frombuffer(fh.read(n * dtype.itemsize), dtype=dtype).reshape(shape).copy()
    return name, arr


def _write_section(fh, arrays: dict) -> None:
    fh.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        _write_array(fh, name, np.asarray(arrays[name]))


def _read_section(fh) -> dict:
    (count,) = struct.unpack("<I", fh.read(4))
    return dict(_read_array(fh) for _ in range(count))


@dataclass
class Checkpoint:
    version: int
    config: RunConfig
    params: dict
    opt_state: dict
    epoch: int


def save_checkpoint(path, cfg: RunConfig, encoders: EncoderSet,
                    temperature: Temperature, opt_state: dict, epoch: int) -> None:
    params = {k: v.data for k, v in encoders.params().items()}
    params["temperature.log_tau"] = temperature.log_tau.data
    blob = json.dumps(dataclasses.asdict(cfg)).encode()
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC + struct.pack("<H", CKPT_VERSION))
        fh.write(struct.pack("<I", len(blob)) + blob)
        fh.write(struct.pack("<I", epoch))
        _write_section(fh, params)
        fh.write(struct.pack("<I", opt_state.get("t", 0)))
        _write_section(fh, opt_state.get("m", {}))
        _write_section(fh, opt_state.get("v", {}))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CKPT_MAGIC:
            raise FormatError(f"not a checkpoint file (magic {magic!r})")
        (version,) = struct.unpack("<H", fh.read(2))
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (clen,) = struct.unpack("<I", fh.read(4))
        cfg = RunConfig(**json.loads(fh.read(clen).decode()))
        (epoch,) = struct.unpack("<I", fh.read(4))
        params = _read_section(fh)
        (t,) = struct.unpack("<I", fh.read(4))
        opt_state = {"t": t, "m": _read_section(fh), "v": _read_section(fh)}
    return Checkpoint(version=version, config=cfg, params=params,
                      opt_state=opt_state, epoch=epoch)


def restore_model(ckpt: Checkpoint):
    """Rebuild encoders + temperature and load the stored parameter blocks."""
    cfg = ckpt.config
    graph = cfg.graph()
    vocab = build_vocabulary() if graph.has_text else None
    encoders = EncoderSet.build(cfg.encoder_config(), set(graph.modalities),
                                seed=cfg.seed, vocab=vocab)
    temp = Temperature(cfg.tau_init)
    state = dict(ckpt.params)
    try:
        temp.log_tau.data = np.array(state.pop("temperature.log_tau"),
                                     dtype=temp.log_tau.data.dtype)
        encoders.load_state(state)
    except (KeyError, ShapeError) as exc:
        raise FormatError(f"checkpoint parameters do not fit the model: {exc.args[0]}") from exc
    return encoders, temp, graph


# --------------------------------------------------------------------------
# embedding store ("EMB1")

_MOD_TAG = {"pointcloud": 0, "imu": 1, "skeleton": 2, "text": 3}
_TAG_MOD = {v: k for k, v in _MOD_TAG.items()}


def save_store(path, db: EmbeddingDatabase) -> None:
    e = db.Z.shape[1]
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC + struct.pack("<HII", STORE_VERSION, e, len(db.Z)))
        for i in range(len(db.Z)):
            fh.write(struct.pack("<IIBH", int(db.clip_ids[i]), int(db.starts[i]),
                                 _MOD_TAG[str(db.modalities[i])], int(db.class_ids[i])))
            fh.write(db.Z[i].astype("<f4").tobytes())


def load_store(path) -> EmbeddingDatabase:
    data = Path(path).read_bytes()
    if data[:4] != STORE_MAGIC:
        raise FormatError(f"not an embedding store (magic {data[:4]!r})")
    version, e, count = struct.unpack("<HII", data[4:14])
    if version != STORE_VERSION:
        raise FormatError(f"unsupported embedding store version {version}")
    rec = 11 + 4 * e
    if len(data) != 14 + rec * count:
        raise FormatError("embedding store record count does not match header")
    clip_ids, starts, mods, class_ids, Z = [], [], [], [], []
    off = 14
    for _ in range(count):
        cid, start, tag, cls = struct.unpack("<IIBH", data[off : off + 11])
        Z.append(np.frombuffer(data, dtype="<f4", count=e, offset=off + 11).copy())
        clip_ids.append(cid)
        starts.append(start)
        mods.append(_TAG_MOD[tag])
        class_ids.append(cls)
        off += rec
    return EmbeddingDatabase(
        Z=np.stack(Z) if Z else np.zeros((0, e), dtype=np.float32),
        clip_ids=np.array(clip_ids),
        starts=np.array(starts),
        class_ids=np.array(class_ids),
        modalities=np.array(mods),
    )


# --------------------------------------------------------------------------
# shared helpers


def _load_split(data_dir, split: str) -> list:
    path = Path(data_dir) / f"{split}.mmc"
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    return load_clips(path)


def _dense_index(encoders, graph, clips, cfg: RunConfig, modalities=None):
    mods = list(modalities or graph.sensing())
    spec = WindowSpec(length=cfg.window, stride=1)
    clips_windows = {
        c.clip_id: prepare_windows([c], spec, cfg.points) for c in clips
    }
    return embed_clips(encoders, clips_windows, mods), clips_windows


def _parse_pairs(arg: str, graph) -> list:
    mods = graph.sensing()
    if arg == "all":
        return [(a, b) for i, a in enumerate(mods) for b in mods[i + 1 :]]
    pairs = []
    for chunk in arg.split(","):
        a, _, b = chunk.partition(":")
        if a not in mods or b not in mods:
            raise ConfigError(f"pair '{chunk}' not covered by variant modalities {mods}")
        pairs.append((a, b))
    return pairs


def _check_modality(modality: str, graph) -> None:
    if modality not in graph.sensing():
        raise ConfigError(f"modality '{modality}' not in checkpoint modalities "
                          f"{graph.sensing()}")


def _int_list(arg: str) -> list:
    return [int(x) for x in arg.split(",")]


# --------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = DatasetSpec(train_per_class=args.train_per_class,
                       test_per_class=args.test_per_class,
                       text_coverage=args.coverage,
                       length=args.length, n_raw=args.n_raw)
    manifest = generate_dataset(spec, seed=args.seed, out_dir=args.out)
    print(f"wrote {manifest['train_clips']} train / {manifest['test_clips']} test "
          f"clips to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, vars(args))
    graph = cfg.graph()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, out_dir)
    clips = _load_split(cfg.data, "train")
    if graph.has_text and not any(c.tm for c in clips):
        print("warning: text loss requested but no clip carries text; L_text will be 0",
              file=sys.stderr)
    vocab = build_vocabulary() if graph.has_text else None
    windows = prepare_windows(clips, WindowSpec(length=cfg.window, stride=cfg.stride),
                              cfg.points, fps_seed=splitmix64(cfg.seed, 11))
    tc = TrainConfig(batch_size=cfg.batch, lr=cfg.lr, epochs=cfg.epochs,
                     alpha=cfg.alpha, beta=cfg.beta, tau_init=cfg.tau_init,
                     seed=cfg.seed)
    with precision(np.float32):  # the precision the acceptance suite trains at
        encoders = EncoderSet.build(cfg.encoder_config(), set(graph.modalities),
                                    seed=cfg.seed, vocab=vocab)
        loader = BatchLoader(windows, augment=AugmentSpec(enabled=cfg.augment),
                             text_embedder=encoders.text)
        result = train(loader, graph, encoders, tc,
                       metrics_path=out_dir / "metrics.jsonl",
                       log=None if args.quiet else print)
    save_checkpoint(out_dir / "model.ckpt", cfg, result.encoders,
                    result.temperature, result.optimizer_state, result.epochs_run)
    print(f"checkpoint written to {out_dir / 'model.ckpt'}")
    return 0


def cmd_embed(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    encoders, _, graph = restore_model(ckpt)
    _check_modality(args.modality, graph)
    clips = _load_split(args.data, args.split)
    spec = WindowSpec(length=ckpt.config.window, stride=1)
    dbs = []
    for c in clips:
        ws = prepare_windows([c], spec, ckpt.config.points)
        Z = encode_windows(encoders.modality(args.modality), args.modality, ws)
        dbs.append(EmbeddingDatabase.from_windows(ws, Z, args.modality))
    save_store(args.out, EmbeddingDatabase.merge(dbs))
    print(f"embedding store written to {args.out}")
    return 0


def cmd_match(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    encoders, _, graph = restore_model(ckpt)
    clips = _load_split(args.data, args.split)
    index, _ = _dense_index(encoders, graph, clips, ckpt.config)
    records = matching_benchmark(index, _parse_pairs(args.pairs, graph),
                                 n_list=_int_list(args.n), scenes=args.scenes,
                                 seed=args.seed, nwin=args.nwin)
    write_records(records, args.out)
    print(format_table(records))
    return 0


def cmd_moment(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    encoders, _, graph = restore_model(ckpt)
    clips = _load_split(args.data, args.split)
    index, _ = _dense_index(encoders, graph, clips, ckpt.config)
    records = moment_retrieval_benchmark(index, _parse_pairs(args.pairs, graph),
                                         k_list=tuple(_int_list(args.k)), tol=args.tol)
    write_records(records, args.out)
    print(format_table(records))
    return 0


def cmd_retrieve(args) -> int:
    db = load_store(args.store)
    queries = load_store(args.query_store)
    records = []
    for i in range(len(queries.Z)):
        res = db_retrieve(queries.Z[i], db, k=args.k)
        records.append({
            "query_clip": int(queries.clip_ids[i]),
            "query_start": int(queries.starts[i]),
            "indices": res.indices.tolist(),
            "scores": [float(s) for s in res.scores],
            "truncated": res.truncated,
            "metadata": res.metadata,
        })
    write_records(records, args.out)
    rate = class_retrieval_rate(queries.Z, queries.class_ids, db, k=args.k)
    print(f"majority-class retrieval rate @k={args.k}: {rate:.4f}")
    return 0


def cmd_text_retrieve(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    encoders, _, graph = restore_model(ckpt)
    if encoders.text is None:
        raise ConfigError("checkpoint was trained without the text modality")
    db = load_store(args.store)
    vocab = encoders.text.vocab
    queries = [(vocab.encode(c.name), c.id) for c in DEFAULT_CLASSES]
    score = text_retrieval(queries, encoders.text, db)
    write_records([{"task": "text-retrieval", "top1_class_match": score}], args.out)
    print(f"text retrieval top-1 class match: {score:.4f}")
    return 0


def cmd_har(args) -> int:
    classes = list(DEFAULT_CLASSES)
    if args.checkpoint:
        ckpt = load_checkpoint(args.checkpoint)
        encoders, _, graph = restore_model(ckpt)
        cfg = ckpt.config
    else:
        cfg = load_run_config(args.config, vars(args))
        graph = cfg.graph()
        vocab = build_vocabulary() if graph.has_text else None
        encoders = EncoderSet.build(cfg.encoder_config(), set(graph.modalities),
                                    seed=cfg.seed, vocab=vocab)
    _check_modality(args.modality, graph)
    train_clips = _load_split(args.data, "train")
    test_clips = _load_split(args.data, "test")
    spec = WindowSpec(length=cfg.window, stride=args.stride)
    train_w = prepare_windows(train_clips, spec, cfg.points)
    test_w = prepare_windows(test_clips, spec, cfg.points)

    if args.mode == "zeroshot":
        if encoders.text is None:
            raise ConfigError("zero-shot requires a checkpoint trained with text")
        preds = zero_shot_classify(test_w, args.modality, encoders, classes)
        labels = np.array([w.class_id for w in test_w])
        acc = segment_accuracy(preds, labels)
        print(f"zero-shot segment accuracy ({args.modality}): {acc:.4f}")
        record = {"task": "har", "mode": "zeroshot", "modality": args.modality,
                  "accuracy": acc}
    else:
        enc = encoders.modality(args.modality)
        in_dim = cfg.hidden if args.features == "prehead" else cfg.e
        head = ClassifierHead(args.head, in_dim, len(classes), hidden=args.head_hidden,
                              rng=np.random.default_rng(args.seed))
        sched = FinetuneSchedule(epochs=args.epochs)
        runner = probe_train if args.mode == "probe" else finetune
        res = runner(enc, args.modality, head, train_w, test_w, classes,
                     sched=sched, seed=args.seed,
                     use_prehead=args.features == "prehead",
                     log=None if args.quiet else print)
        print(f"{args.mode} segment accuracy ({args.modality}): "
              f"train={res.train_accuracy:.4f} test={res.test_accuracy:.4f}")
        record = {"task": "har", "mode": args.mode, "modality": args.modality,
                  "head": args.head, "train_accuracy": res.train_accuracy,
                  "accuracy": res.test_accuracy}
    if args.out:
        write_records([record], args.out)
    return 0


def cmd_grad_check(args) -> int:
    """Finite-difference check of the full loss at 64-bit on a tiny model."""
    with precision(np.float64):
        rng = np.random.default_rng(args.seed)
        graph = ModalityGraph.from_variant(args.variant)
        cfg = EncoderConfig(e=8, points=8, window=None, point_mlp=(6, 8),
                            hidden=8, skeleton_mlp=8)
        vocab = build_vocabulary() if graph.has_text else None
        encoders = EncoderSet.build(cfg, set(graph.modalities), seed=args.seed,
                                    vocab=vocab)
        temp = Temperature(0.07)
        B, L = 4, 6
        arrays = {
            "pointcloud": rng.normal(size=(B, L, cfg.points, 3)),
            "imu": rng.normal(size=(B, L, cfg.imu_channels)),
            "skeleton": rng.normal(size=(B, L, 24, 3)),
            "tm": np.array([True, False, True, True]),
        }
        if graph.has_text:
            arrays["text_emb"] = np.stack(
                [encoders.text.embed_text(DEFAULT_CLASSES[i].name) for i in range(B)])
        params = dict(encoders.params())
        params["temperature.log_tau"] = temp.log_tau

        def loss():
            return total_loss(embed_batch(encoders, graph, arrays), graph,
                              temp.value())

        for p in params.values():
            p.zero_grad()
        loss().backward()
        tensors = list(params.values())
        numeric = finite_diff_grad(loss, tensors)
        # relative error per tensor: ||analytic - numeric|| / ||numeric||
        worst = 0.0
        for t, num in zip(tensors, numeric):
            denom = max(float(np.linalg.norm(num)), 1e-12)
            worst = max(worst, float(np.linalg.norm(t.grad - num)) / denom)
    print(f"max relative gradient error: {worst:.3e}")
    if worst >= args.tol:
        print("gradient check FAILED", file=sys.stderr)
        return 4
    print("gradient check passed")
    return 0


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="motionbind",
                                description="multimodal motion embedding toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    seed = default_seed()

    s = sub.add_parser("synth", help="generate a synthetic motion dataset")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=seed)
    s.add_argument("--train-per-class", type=int, default=50)
    s.add_argument("--test-per-class", type=int, default=20)
    s.add_argument("--coverage", type=float, default=0.37)
    s.add_argument("--length", type=int, default=48)
    s.add_argument("--n-raw", type=int, default=512)
    s.set_defaults(func=cmd_synth)

    t = sub.add_parser("train", help="train a modality-variant model")
    t.add_argument("--config", default=None)
    t.add_argument("--out", required=True)
    t.add_argument("--data", default=None)
    t.add_argument("--variant", default=None)
    t.add_argument("--e", type=int, default=None)
    t.add_argument("--points", type=int, default=None)
    t.add_argument("--window", type=int, default=None)
    t.add_argument("--stride", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--batch", type=int, default=None)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--alpha", type=float, default=None)
    t.add_argument("--beta", type=float, default=None)
    t.add_argument("--tau-init", dest="tau_init", type=float, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--no-augment", dest="augment", action="store_false", default=None)
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("embed", help="write stride-1 window embeddings")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", default="test", choices=["train", "test"])
    e.add_argument("--modality", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_embed)

    m = sub.add_parser("match", help="multi-person cross-modal matching")
    m.add_argument("--checkpoint", required=True)
    m.add_argument("--data", required=True)
    m.add_argument("--split", default="test", choices=["train", "test"])
    m.add_argument("--pairs", default="all")
    m.add_argument("--n", default="2,4,8,12,16,20,24,28,32")
    m.add_argument("--scenes", type=int, default=1000)
    m.add_argument("--nwin", type=int, default=1)
    m.add_argument("--seed", type=int, default=seed)
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_match)

    mo = sub.add_parser("moment", help="temporal moment retrieval recall@k")
    mo.add_argument("--checkpoint", required=True)
    mo.add_argument("--data", required=True)
    mo.add_argument("--split", default="test", choices=["train", "test"])
    mo.add_argument("--pairs", default="all")
    mo.add_argument("--k", default="1,10,20,50")
    mo.add_argument("--tol", type=int, default=10)
    mo.add_argument("--out", required=True)
    mo.set_defaults(func=cmd_moment)

    r = sub.add_parser("retrieve", help="top-k database retrieval between stores")
    r.add_argument("--store", required=True)
    r.add_argument("--query-store", dest="query_store", required=True)
    r.add_argument("--k", type=int, default=10)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_retrieve)

    tr = sub.add_parser("text-retrieve", help="class-name text queries vs a store")
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--store", required=True)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=cmd_text_retrieve)

    h = sub.add_parser("har", help="activity recognition: probe/finetune/zeroshot")
    h.add_argument("--checkpoint", default=None)
    h.add_argument("--config", default=None)
    h.add_argument("--data", required=True)
    h.add_argument("--mode", required=True, choices=["probe", "finetune", "zeroshot"])
    h.add_argument("--modality", required=True)
    h.add_argument("--head", default="linear", choices=["linear", "mlp"])
    h.add_argument("--head-hidden", dest="head_hidden", type=int, default=256)
    h.add_argument("--features", default="prehead", choices=["prehead", "posthead"])
    h.add_argument("--stride", type=int, default=12)
    h.add_argument("--epochs", type=int, default=35)
    h.add_argument("--seed", type=int, default=seed)
    h.add_argument("--quiet", action="store_true")
    h.add_argument("--out", default=None)
    h.set_defaults(func=cmd_har)

    g = sub.add_parser("grad-check", help="finite-difference audit of the loss")
    g.add_argument("--variant", default="DeSPITE")
    g.add_argument("--seed", type=int, default=seed)
    g.add_argument("--tol", type=float, default=1e-4)
    g.set_defaults(func=cmd_grad_check)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, VariantError, ProtocolError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (TrainingAbort, NumericsError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
