"""Cross-modal evaluation protocols: multi-person matching (single and
consecutive-window), temporal moment retrieval, database retrieval and
text-to-motion retrieval, plus score-record emission.

All protocols operate on cosine similarities between window embeddings;
heavy benchmarks precompute per-clip embedding tables once and then index
into them, which keeps 1000-scene sweeps cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .motionsynth import splitmix64
from .pipeline import Window, make_batch


def normalize_rows(Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    norms = np.linalg.norm(Z, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding")
    return Z / norms


class ProtocolError(ValueError):
    """An evaluation protocol asks for more windows or sequences than the data holds."""


EMBED_BATCH = 256


def encode_windows(encoder, modality: str, windows: list, prehead: bool = False) -> np.ndarray:
    """Embed a window list with one modality's encoder -> (W, e) float array.

    With `prehead` the rows are the encoder's pre-head features (W, hidden).
    """
    outs = []
    for i in range(0, len(windows), EMBED_BATCH):
        x = make_batch(windows[i : i + EMBED_BATCH])[modality]
        outs.append((encoder.features(x) if prehead else encoder(x)).data)
    return np.concatenate(outs, axis=0)


@dataclass
class ClipEmbeddings:
    """Stride-1 window embeddings of one clip for one modality."""

    clip_id: int
    starts: np.ndarray   # (W,)
    Z: np.ndarray        # (W, e)


def embed_clips(encoders, clips_windows: dict, modalities) -> dict:
    """modality -> {clip_id -> ClipEmbeddings} over dense window lists."""
    out: dict = {}
    for mod in modalities:
        enc = encoders.modality(mod)
        table = {}
        for cid, ws in clips_windows.items():
            table[cid] = ClipEmbeddings(
                clip_id=cid,
                starts=np.array([w.start for w in ws]),
                Z=encode_windows(enc, mod, ws),
            )
        out[mod] = table
    return out


# -- Task 1: multi-person matching ---------------------------------------------


@dataclass
class Scene:
    """n aligned query/candidate subjects; ground truth is the identity map."""

    n: int
    pair: tuple
    queries: list        # n lists of nwin consecutive windows (modality a)
    candidates: list     # n lists of nwin consecutive windows (modality b)
    seed: int

    @property
    def nwin(self) -> int:
        return len(self.queries[0])


def build_scene(clips_windows: dict, n: int, seed: int, pair: tuple, nwin: int = 1) -> Scene:
    """Sample n distinct sequences, then one subsequence position in each."""
    if n < 2:
        raise ValueError("a scene needs at least 2 subjects")
    ids = sorted(clips_windows)
    usable = [cid for cid in ids if len(clips_windows[cid]) >= nwin]
    if len(usable) < n:
        raise ValueError(f"need {n} sequences with >= {nwin} windows, have {len(usable)}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(usable), size=n, replace=False)
    queries, candidates = [], []
    for ci in chosen:
        ws = clips_windows[usable[ci]]
        j = int(rng.integers(0, len(ws) - nwin + 1))
        queries.append(ws[j : j + nwin])
        candidates.append(ws[j : j + nwin])
    return Scene(n=n, pair=pair, queries=queries, candidates=candidates, seed=seed)


def _consecutive_scores(Zq: np.ndarray, Zc: np.ndarray) -> np.ndarray:
    """Mean over window offsets of pairwise cosine sims -> (n, n) score matrix."""
    nq, nwin, _ = Zq.shape
    Nq = normalize_rows(Zq.reshape(nq * nwin, -1)).reshape(Zq.shape)
    Nc = normalize_rows(Zc.reshape(-1, Zc.shape[-1])).reshape(Zc.shape)
    return np.einsum("qje,kje->qk", Nq, Nc) / nwin


def match_embeddings(Zq: np.ndarray, Zc: np.ndarray) -> float:
    """Row-argmax matching accuracy (lowest-index tie-break) vs identity truth.

    Accepts (n, e) single-window or (n, nwin, e) consecutive embeddings.
    """
    if Zq.ndim == 2:
        Zq, Zc = Zq[:, None, :], Zc[:, None, :]
    scores = _consecutive_scores(Zq, Zc)
    pred = np.argmax(scores, axis=1)
    return float(np.mean(pred == np.arange(scores.shape[0])))


def _scene_embeddings(scene: Scene, encoders):
    a, b = scene.pair
    enc_a, enc_b = encoders.modality(a), encoders.modality(b)
    flat_q = [w for ws in scene.queries for w in ws]
    flat_c = [w for ws in scene.candidates for w in ws]
    Zq = encode_windows(enc_a, a, flat_q).reshape(scene.n, scene.nwin, -1)
    Zc = encode_windows(enc_b, b, flat_c).reshape(scene.n, scene.nwin, -1)
    return Zq, Zc


def match_scene(scene: Scene, encoders) -> float:
    """Task-1 accuracy for one scene (single or consecutive windows)."""
    Zq, Zc = _scene_embeddings(scene, encoders)
    return match_embeddings(Zq, Zc)


def match_consecutive(scene: Scene, encoders, nwin: int) -> float:
    """Mean-similarity matching over the first nwin consecutive windows."""
    if nwin < 1 or nwin > scene.nwin:
        raise ValueError(f"scene provides {scene.nwin} consecutive windows, requested {nwin}")
    Zq, Zc = _scene_embeddings(scene, encoders)
    return match_embeddings(Zq[:, :nwin], Zc[:, :nwin])


def matching_benchmark(index: dict, pairs, n_list, scenes: int = 1000,
                       seed: int = 0, nwin: int = 1) -> list:
    """Mean matching accuracy per (pair, n) over seeded artificial scenes.

    `index` maps modality -> {clip_id -> ClipEmbeddings} (see embed_clips).
    """
    records = []
    for pair in pairs:
        a, b = pair
        ids = sorted(index[a])
        counts = {cid: len(index[a][cid].starts) for cid in ids}
        usable = [cid for cid in ids if counts[cid] >= nwin]
        if max(n_list) > len(usable):
            raise ProtocolError(f"n={max(n_list)} needs {max(n_list)} sequences with >= {nwin} "
                                f"windows, have {len(usable)}")
        for n in n_list:
            accs = np.empty(scenes)
            for s in range(scenes):
                rng = np.random.default_rng(splitmix64(seed, s * 131 + n))
                chosen = rng.choice(len(usable), size=n, replace=False)
                qs, cs = [], []
                for ci in chosen:
                    cid = usable[ci]
                    j = int(rng.integers(0, counts[cid] - nwin + 1))
                    qs.append(index[a][cid].Z[j : j + nwin])
                    cs.append(index[b][cid].Z[j : j + nwin])
                accs[s] = match_embeddings(np.stack(qs), np.stack(cs))
            records.append({
                "task": "match", "pair": f"{a}->{b}", "n": int(n), "nwin": int(nwin),
                "mean": float(accs.mean()),
                "stderr": float(accs.std(ddof=1) / np.sqrt(scenes)) if scenes > 1 else 0.0,
                "scenes": int(scenes), "seed": int(seed),
            })
    return records


# -- Task 2: temporal moment retrieval -----------------------------------------


def moment_retrieval(Zq: np.ndarray, starts_q: np.ndarray,
                     Zt: np.ndarray, starts_t: np.ndarray,
                     k_list=(1, 10, 20, 50), tol: int = 10) -> dict:
    """Recall@k of locating each query window's time in the target sequence.

    A query counts as correct at k if any of its top-k most similar target
    windows starts within `tol` frames of the query start. Ties rank the
    lower candidate index first.
    """
    k_list = sorted(k_list)
    if k_list[-1] > len(starts_t):
        raise ValueError(f"k={k_list[-1]} exceeds {len(starts_t)} target windows")
    sims = normalize_rows(Zq) @ normalize_rows(Zt).T
    order = np.argsort(-sims, axis=1, kind="stable")
    hit = np.abs(starts_t[order] - np.asarray(starts_q)[:, None]) <= tol
    return {k: float(hit[:, :k].any(axis=1).mean()) for k in k_list}


def moment_retrieval_benchmark(index: dict, pairs, k_list=(1, 10, 20, 50),
                               tol: int = 10) -> list:
    """Dataset score = mean of per-sequence recall@k over all clips."""
    records = []
    for a, b in pairs:
        per_seq = {k: [] for k in k_list}
        for cid in sorted(index[a]):
            ea, eb = index[a][cid], index[b][cid]
            if len(eb.starts) < max(k_list):
                continue
            rec = moment_retrieval(ea.Z, ea.starts, eb.Z, eb.starts, k_list, tol)
            for k, v in rec.items():
                per_seq[k].append(v)
        if not per_seq[max(k_list)]:
            longest = max((len(e.starts) for e in index[b].values()), default=0)
            raise ProtocolError(f"k={max(k_list)} exceeds the window count of every sequence "
                                f"(longest has {longest})")
        for k in k_list:
            records.append({
                "task": "moment", "pair": f"{a}->{b}", "k": int(k), "tol": int(tol),
                "mean": float(np.mean(per_seq[k])), "sequences": len(per_seq[k]),
            })
    return records


# -- Task 4: database retrieval ------------------------------------------------


@dataclass
class EmbeddingDatabase:
    """In-memory embedding store with per-record metadata."""

    Z: np.ndarray                       # (W, e)
    clip_ids: np.ndarray
    starts: np.ndarray
    class_ids: np.ndarray
    modalities: np.ndarray              # str per record

    def __len__(self):
        return int(self.Z.shape[0])

    @staticmethod
    def from_windows(windows: list, Z: np.ndarray, modality: str) -> "EmbeddingDatabase":
        return EmbeddingDatabase(
            Z=np.asarray(Z),
            clip_ids=np.array([w.clip_id for w in windows]),
            starts=np.array([w.start for w in windows]),
            class_ids=np.array([w.class_id for w in windows]),
            modalities=np.array([modality] * len(windows)),
        )

    @staticmethod
    def merge(dbs: list) -> "EmbeddingDatabase":
        return EmbeddingDatabase(
            Z=np.concatenate([d.Z for d in dbs]),
            clip_ids=np.concatenate([d.clip_ids for d in dbs]),
            starts=np.concatenate([d.starts for d in dbs]),
            class_ids=np.concatenate([d.class_ids for d in dbs]),
            modalities=np.concatenate([d.modalities for d in dbs]),
        )


@dataclass
class RetrievalResult:
    indices: np.ndarray
    scores: np.ndarray
    truncated: bool
    metadata: list = field(default_factory=list)


def db_retrieve(query: np.ndarray, db: EmbeddingDatabase, k: int) -> RetrievalResult:
    """Top-k database entries by cosine similarity to the query embedding."""
    if len(db) == 0:
        raise ValueError("empty database")
    truncated = k > len(db)
    k_eff = min(k, len(db))
    sims = normalize_rows(db.Z) @ normalize_rows(query[None])[0]
    order = np.argsort(-sims, kind="stable")[:k_eff]
    meta = [
        {"clip_id": int(db.clip_ids[i]), "start": int(db.starts[i]),
         "class_id": int(db.class_ids[i]), "modality": str(db.modalities[i])}
        for i in order
    ]
    return RetrievalResult(indices=order, scores=sims[order], truncated=truncated, metadata=meta)


def class_retrieval_rate(queries: np.ndarray, query_classes: np.ndarray,
                         db: EmbeddingDatabase, k: int = 10) -> float:
    """Fraction of queries whose top-k retrievals are majority same-class."""
    hits = 0
    for q, cls in zip(queries, query_classes):
        res = db_retrieve(q, db, k)
        labels = db.class_ids[res.indices]
        if (labels == cls).sum() * 2 > len(labels):
            hits += 1
    return hits / len(queries)


def text_retrieval(queries: list, text_embedder, db: EmbeddingDatabase, k: int = 1) -> float:
    """R-Top-1-style score: fraction of (tokens, class_id) queries whose
    top-ranked retrieval carries the matching class label."""
    correct = 0
    for tokens, class_id in queries:
        z = text_embedder.embed(tokens)
        res = db_retrieve(z, db, k)
        if int(db.class_ids[res.indices[0]]) == int(class_id):
            correct += 1
    return correct / len(queries)


# -- score emission ------------------------------------------------------------


def write_records(records: list, path) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def format_table(records: list) -> str:
    if not records:
        return "(no records)"
    keys = list(records[0].keys())
    rows = [[str(r.get(k, "")) for k in keys] for r in records]
    widths = [max(len(k), *(len(row[i]) for row in rows)) for i, k in enumerate(keys)]
    lines = ["  ".join(k.ljust(w) for k, w in zip(keys, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
