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

from .motionsynth import atomic_write, splitmix64
from .pipeline import Window, make_batch


def normalize_rows(Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    norms = np.linalg.norm(Z, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding")
    return Z / norms


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k best scores -> (rows, k), best first,
    the lower index first on ties.

    Equals `np.argsort(-scores, axis=1, kind="stable")[:, :k]`.
    `argpartition` picks k candidates per row and only those are sorted; a
    row whose k-th score recurs past the boundary (or that holds NaN) takes
    the stable sort instead.
    """
    neg = -scores
    if not 0 < k < neg.shape[1]:
        return np.argsort(neg, axis=1, kind="stable")[:, :k]
    rows = np.arange(len(neg))[:, None]
    cand = np.argpartition(neg, k - 1, axis=1)[:, :k]
    cand.sort(axis=1)
    vals = neg[rows, cand]
    order = vals.argsort(axis=1, kind="stable")
    top = cand[rows, order]
    tied = np.count_nonzero(neg <= vals[rows, order[:, -1:]], axis=1) != k
    if tied.any():
        top[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :k]
    return top


@dataclass
class _UnitRows:
    """Float64 unit rows of `Z`, computed on the first call and kept, so `Z`
    must not be mutated after construction. A zero-norm row raises
    `ValueError` on every call."""

    _unit: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def unit_rows(self) -> np.ndarray:
        if self._unit is None:
            self._unit = normalize_rows(self.Z)
        return self._unit


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
class ClipEmbeddings(_UnitRows):
    """Stride-1 window embeddings of one clip for one modality."""

    clip_id: int
    starts: np.ndarray   # (W,)
    Z: np.ndarray        # (W, e)


def embed_clips(encoders, clips_windows: dict, modalities) -> dict:
    """modality -> {clip_id -> ClipEmbeddings} over dense window lists.

    One `encode_windows` call per modality covers every clip's windows, so
    short clips share batches; its rows are then split back by clip.
    """
    flat = [w for ws in clips_windows.values() for w in ws]
    bounds = np.cumsum([len(ws) for ws in clips_windows.values()])[:-1]
    out: dict = {}
    for mod in modalities:
        Z = encode_windows(encoders.modality(mod), mod, flat)
        out[mod] = {
            cid: ClipEmbeddings(clip_id=cid, starts=np.array([w.start for w in ws]), Z=z)
            for (cid, ws), z in zip(clips_windows.items(), np.split(Z, bounds))
        }
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


def _moment_recall(Uq: np.ndarray, starts_q: np.ndarray,
                   Ut: np.ndarray, starts_t: np.ndarray, k_list, tol: int) -> dict:
    """`moment_retrieval` on unit rows, by counting instead of sorting.

    In the stable descending order of a query's similarities, its first hit
    is its best eligible target (start within `tol`, the lower index on
    ties), and that target's rank is the number of targets scoring higher
    plus the equal-scoring ones at a lower index. The query is found at k
    when the rank is below k; a query with no eligible target never is.
    """
    k_list = sorted(k_list)
    W = len(starts_t)
    if k_list[-1] > W:
        raise ValueError(f"k={k_list[-1]} exceeds {W} target windows")
    S = Uq @ Ut.T
    starts_t, starts_q = np.asarray(starts_t), np.asarray(starts_q)[:, None]
    near = (starts_t >= starts_q - tol) & (starts_t <= starts_q + tol)
    best = np.argmax(np.where(near, S, -np.inf), axis=1)[:, None]
    s_best = np.take_along_axis(S, best, axis=1)
    ahead = S > s_best
    ahead |= (S == s_best) & (np.arange(W) < best)
    rank = np.where(near.any(axis=1), np.count_nonzero(ahead, axis=1), W)
    return {k: float(np.mean(rank < k)) for k in k_list}


def moment_retrieval(Zq: np.ndarray, starts_q: np.ndarray,
                     Zt: np.ndarray, starts_t: np.ndarray,
                     k_list=(1, 10, 20, 50), tol: int = 10) -> dict:
    """Recall@k of locating each query window's time in the target sequence.

    A query counts as correct at k if any of its top-k most similar target
    windows starts within `tol` frames of the query start. Ties rank the
    lower candidate index first.
    """
    return _moment_recall(normalize_rows(Zq), starts_q, normalize_rows(Zt), starts_t,
                          k_list, tol)


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
            rec = _moment_recall(ea.unit_rows(), ea.starts, eb.unit_rows(), eb.starts,
                                 k_list, tol)
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
class EmbeddingDatabase(_UnitRows):
    """In-memory embedding store with per-record metadata; retrieval ranks
    against its `unit_rows()`."""

    Z: np.ndarray                       # (W, e)
    clip_ids: np.ndarray
    starts: np.ndarray
    class_ids: np.ndarray
    modalities: np.ndarray              # str per record

    def __len__(self):
        return int(self.Z.shape[0])

    def metadata(self, indices: np.ndarray) -> list:
        """One dict of Python scalars per record index."""
        rows = zip(self.clip_ids[indices].tolist(), self.starts[indices].tolist(),
                   self.class_ids[indices].tolist(), self.modalities[indices].tolist())
        return [{"clip_id": c, "start": s, "class_id": k, "modality": m}
                for c, s, k, m in rows]

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
    sims = db.unit_rows() @ normalize_rows(query[None])[0]
    order = top_k(sims[None], min(k, len(db)))[0]
    return RetrievalResult(indices=order, scores=sims[order], truncated=k > len(db),
                           metadata=db.metadata(order))


def retrieve_batch(queries: np.ndarray, db: EmbeddingDatabase, k: int):
    """Top-min(k, len(db)) entries per query row -> (indices, scores), each
    (Q, min(k, len(db))). Queries are scored in EMBED_BATCH blocks, one
    float64 product per block."""
    if len(db) == 0:
        raise ValueError("empty database")
    U, k = db.unit_rows(), min(k, len(db))
    indices, scores = [np.empty((0, k), dtype=np.intp)], [np.empty((0, k))]
    for i in range(0, len(queries), EMBED_BATCH):
        S = normalize_rows(queries[i : i + EMBED_BATCH]) @ U.T
        indices.append(top_k(S, k))
        scores.append(np.take_along_axis(S, indices[-1], axis=1))
    return np.concatenate(indices), np.concatenate(scores)


def majority_class_rate(labels: np.ndarray, classes) -> float:
    """Fraction of rows of retrieved labels (Q, k) in which more than half
    equal that row's query class."""
    same = np.count_nonzero(labels == np.asarray(classes)[:, None], axis=1)
    return float(np.mean(same * 2 > labels.shape[1]))


def class_retrieval_rate(queries: np.ndarray, query_classes: np.ndarray,
                         db: EmbeddingDatabase, k: int = 10) -> float:
    """Fraction of queries whose top-k retrievals are majority same-class."""
    indices, _ = retrieve_batch(queries, db, k)
    return majority_class_rate(db.class_ids[indices], query_classes)


def text_retrieval(queries: list, text_embedder, db: EmbeddingDatabase, k: int = 1) -> float:
    """R-Top-1-style score: fraction of (tokens, class_id) queries whose
    top-ranked retrieval carries the matching class label."""
    Z = np.stack([text_embedder.embed(tokens) for tokens, _ in queries])
    indices, _ = retrieve_batch(Z, db, k)
    return float(np.mean(db.class_ids[indices[:, 0]] == [int(c) for _, c in queries]))


# -- score emission ------------------------------------------------------------


def write_records(records: list, path) -> None:
    with atomic_write(path, "w") as fh:
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
