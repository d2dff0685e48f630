"""Correctness checks for the benchmark's workloads.

Each check recomputes a result with plain NumPy, apart from the library
code it checks, and raises `CheckFailed` when the two disagree.  They
take arrays and score records only, so the benchmark's own tests can
plant a fault in any input and see the check fail.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for values the library computes in float32.
F32_RTOL = 1e3 * float(np.finfo(np.float32).eps)
# Two float64 similarities closer than this count as tied.
TIE_EPS = 1e-9


class CheckFailed(AssertionError):
    """A workload output disagrees with its independent recomputation."""


def _unit_rows(Z):
    Z = np.asarray(Z, dtype=np.float64)
    return Z / np.sqrt((Z * Z).sum(axis=-1, keepdims=True))


def _logsumexp(S, axis):
    m = S.max(axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.exp(S - m).sum(axis=axis, keepdims=True)), axis)


def symmetric_info_nce(Za, Zb, tau: float) -> float:
    """Mean of both InfoNCE directions over one cosine-similarity matrix."""
    S = _unit_rows(Za) @ _unit_rows(Zb).T / tau
    d = np.diag(S)
    return 0.5 * (float(np.mean(_logsumexp(S, 1) - d)) + float(np.mean(_logsumexp(S, 0) - d)))


def despite_loss(emb: dict, tm, sensing, tau: float, alpha: float, beta: float) -> float:
    """alpha * text term + beta * modality term, as the documented objective.

    The modality term sums every unordered sensing pair; the text term sums
    each sensing modality against text over the rows whose text mask is set.
    """
    lm = sum(symmetric_info_nce(emb[a], emb[b], tau)
             for i, a in enumerate(sensing) for b in sensing[i + 1:])
    if "text" not in emb:
        return lm
    mask = np.asarray(tm, dtype=bool)
    lt = sum(symmetric_info_nce(np.asarray(emb[m])[mask], np.asarray(emb["text"])[mask], tau)
             for m in sensing) if mask.any() else 0.0
    return alpha * lt + beta * lm


def check_close(name: str, reported: float, expected: float, rtol: float = F32_RTOL) -> None:
    if not abs(reported - expected) <= rtol * max(abs(expected), 1e-12):
        raise CheckFailed(f"{name}: reported {reported!r}, recomputed {expected!r} "
                          f"(rtol {rtol:g})")


def check_loss_decreased(epoch_losses) -> None:
    if not epoch_losses[-1] < epoch_losses[0]:
        raise CheckFailed(f"last epoch mean loss {epoch_losses[-1]:.6f} is not below "
                          f"the first {epoch_losses[0]:.6f}")


def check_equal_sequences(name: str, a, b) -> None:
    if list(a) != list(b):
        raise CheckFailed(f"{name}: sequences differ ({len(a)} vs {len(b)} entries)")


def check_probe_accuracy(reported: float, X, W, b, class_ids, labels) -> None:
    """Recompute a linear probe's accuracy from its weights.

    Rows whose two best logits lie within float32 rounding of each other may
    go either way, so the reported accuracy may differ by that many rows.
    """
    logits = np.asarray(X, dtype=np.float64) @ np.asarray(W, dtype=np.float64) \
        + np.asarray(b, dtype=np.float64)
    top2 = np.sort(logits, axis=1)[:, -2:]
    ambiguous = int(((top2[:, 1] - top2[:, 0])
                     <= F32_RTOL * np.abs(logits).max(axis=1)).sum())
    pred = np.asarray(class_ids)[np.argmax(logits, axis=1)]
    acc = float(np.mean(pred == np.asarray(labels)))
    if abs(acc - reported) > ambiguous / len(labels) + 1e-12:
        raise CheckFailed(f"probe accuracy: reported {reported:.6f}, recomputed {acc:.6f} "
                          f"({ambiguous} ambiguous rows)")


def check_rows_match(name: str, single, rows) -> None:
    """Embeddings computed one window at a time equal their batched rows."""
    single = np.asarray(single, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    err = np.linalg.norm(single - rows, axis=-1) / np.linalg.norm(rows, axis=-1)
    if not err.max() <= F32_RTOL:
        raise CheckFailed(f"{name}: single-window embedding differs from its index row "
                          f"by {err.max():.3g} relative (tol {F32_RTOL:.3g})")


def check_matching(records) -> None:
    """Self pairs match perfectly; cross-pair accuracy falls as scenes grow."""
    by_pair: dict = {}
    for r in records:
        by_pair.setdefault(r["pair"], []).append(r)
    for pair, recs in by_pair.items():
        recs = sorted(recs, key=lambda r: r["n"])
        a, b = pair.split("->")
        if a == b:
            bad = [r["n"] for r in recs if r["mean"] != 1.0]
            if bad:
                raise CheckFailed(f"self pair {pair}: accuracy below 1.0 at n={bad}")
            continue
        for lo, hi in zip(recs, recs[1:]):
            slack = 3.0 * np.hypot(lo["stderr"], hi["stderr"])
            if hi["mean"] > lo["mean"] + slack:
                raise CheckFailed(f"{pair}: accuracy rises from {lo['mean']:.4f} at "
                                  f"n={lo['n']} to {hi['mean']:.4f} at n={hi['n']}")
        if not recs[-1]["mean"] < recs[0]["mean"]:
            raise CheckFailed(f"{pair}: accuracy does not fall from n={recs[0]['n']} "
                              f"to n={recs[-1]['n']}")


def brute_force_topk(Q, D, k: int):
    """Indices and cosine similarities of the k best database rows per query."""
    S = _unit_rows(Q) @ _unit_rows(D).T
    order = np.argsort(-S, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(S, order, axis=1)


def check_topk(Q, D, k: int, indices) -> None:
    """Reported top-k lists equal a float64 stable argsort, up to exact ties."""
    order, sims = brute_force_topk(Q, D, k)
    indices = np.asarray(indices)
    if indices.shape != order.shape:
        raise CheckFailed(f"top-k shape {indices.shape} != expected {order.shape}")
    S = _unit_rows(Q) @ _unit_rows(D).T
    got = np.take_along_axis(S, indices, axis=1)
    differ = np.any(indices != order, axis=1)
    if differ.any() and not np.all(np.abs(got[differ] - sims[differ]) <= TIE_EPS):
        q = int(np.flatnonzero(differ)[0])
        raise CheckFailed(f"top-{k} of query {q}: got {indices[q].tolist()}, "
                          f"expected {order[q].tolist()}")


def check_store_roundtrip(before, after) -> None:
    """An embedding store read back equals what was written, bit for bit."""
    if np.asarray(before.Z, dtype="<f4").tobytes() != np.asarray(after.Z).tobytes():
        raise CheckFailed("EMB1 round trip changed the embedding bytes")
    for field in ("clip_ids", "starts", "class_ids", "modalities"):
        if not np.array_equal(getattr(before, field), getattr(after, field)):
            raise CheckFailed(f"EMB1 round trip changed '{field}'")


def moment_recall(Zq, starts_q, Zt, starts_t, k_list, tol: int) -> dict:
    """Recall@k of the documented protocol: a query is found at k when one
    of its k most similar target windows (lower index first on ties) starts
    within `tol` frames of the query's own start."""
    S = _unit_rows(Zq) @ _unit_rows(Zt).T
    order = np.argsort(-S, axis=1, kind="stable")
    hit = np.abs(np.asarray(starts_t)[order] - np.asarray(starts_q)[:, None]) <= tol
    return {k: float(hit[:, :k].any(axis=1).mean()) for k in k_list}


def check_moment_records(records, index, k_list, tol: int) -> None:
    """Self pairs find every moment at k=1, recall never falls with k, and
    every pair's recall equals the brute-force per-sequence mean."""
    by_pair: dict = {}
    for r in records:
        by_pair.setdefault(r["pair"], {})[r["k"]] = r["mean"]
    for pair, rec in by_pair.items():
        a, b = pair.split("->")
        ks = sorted(rec)
        if a == b and rec[ks[0]] != 1.0:
            raise CheckFailed(f"self pair {pair}: recall@{ks[0]} is {rec[ks[0]]}, not 1.0")
        if any(rec[hi] < rec[lo] for lo, hi in zip(ks, ks[1:])):
            raise CheckFailed(f"{pair}: recall falls as k grows: {rec}")
        per_seq = [moment_recall(index[a][cid].Z, index[a][cid].starts,
                                 index[b][cid].Z, index[b][cid].starts, k_list, tol)
                   for cid in sorted(index[a])]
        for k in k_list:
            expected = float(np.mean([s[k] for s in per_seq]))
            if abs(rec[k] - expected) > 1e-12:
                raise CheckFailed(f"{pair} recall@{k}: reported {rec[k]!r}, "
                                  f"recomputed {expected!r}")
