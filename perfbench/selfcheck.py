"""Each benchmark check passes on the library's own output and fails on a
planted fault.  Run with `python -m pytest perfbench/selfcheck.py` from the
repo root; the name keeps it out of the repository's own test run."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motionbind.alignment import AlignedBatch, ModalityGraph, total_loss  # noqa: E402
from motionbind.cli import load_store, save_store  # noqa: E402
from motionbind.evalkit import (  # noqa: E402
    ClipEmbeddings,
    EmbeddingDatabase,
    db_retrieve,
    matching_benchmark,
    moment_retrieval_benchmark,
)
from motionbind.tensor import Tensor, precision  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

SENSING = ["pointcloud", "imu", "skeleton"]


def fails(fn, *args, **kw):
    with pytest.raises(CheckFailed):
        fn(*args, **kw)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_step0_loss_matches_library_and_catches_a_perturbed_row(rng):
    emb = {m: rng.normal(size=(12, 8)) for m in SENSING + ["text"]}
    tm = rng.random(12) < 0.4
    tm[:2] = True
    graph = ModalityGraph.from_variant("DeSPITE")
    with precision(np.float64):
        lib = total_loss(AlignedBatch({k: Tensor(v) for k, v in emb.items()}, tm),
                         graph, 0.07, 0.5, 0.5).item()
    ours = checks.despite_loss(emb, tm, graph.sensing(), 0.07, 0.5, 0.5)
    checks.check_close("loss", lib, ours)
    emb["imu"][3] += 0.5
    fails(checks.check_close, "loss", lib, checks.despite_loss(emb, tm, graph.sensing(), 0.07, 0.5, 0.5))


def test_text_mask_changes_the_recomputed_loss(rng):
    emb = {m: rng.normal(size=(12, 8)) for m in SENSING + ["text"]}
    tm = np.arange(12) < 6
    full = checks.despite_loss(emb, np.ones(12, bool), SENSING, 0.07, 0.5, 0.5)
    fails(checks.check_close, "loss", full, checks.despite_loss(emb, tm, SENSING, 0.07, 0.5, 0.5))


def test_directional_derivative_tolerance():
    checks.check_close("fd", 1.0000001, 1.0, rtol=1e-5)
    fails(checks.check_close, "fd", 1.001, 1.0, rtol=1e-5)


def test_loss_decrease_and_equal_sequences():
    checks.check_loss_decreased([3.0, 2.5, 2.0])
    fails(checks.check_loss_decreased, [3.0, 2.5, 3.0])
    checks.check_equal_sequences("losses", [1.0, 2.0], [1.0, 2.0])
    fails(checks.check_equal_sequences, "losses", [1.0, 2.0], [1.0, np.nextafter(2.0, 3.0)])


def test_probe_accuracy_recomputed_from_weights(rng):
    X, W, b = rng.normal(size=(40, 6)), rng.normal(size=(6, 4)), rng.normal(size=4)
    class_ids = [1, 2, 3, 4]
    labels = np.array(class_ids)[rng.integers(0, 4, 40)]
    acc = float(np.mean(np.array(class_ids)[np.argmax(X @ W + b, axis=1)] == labels))
    checks.check_probe_accuracy(acc, X, W, b, class_ids, labels)
    fails(checks.check_probe_accuracy, acc + 1 / 40, X, W, b, class_ids, labels)


def test_single_window_rows(rng):
    rows = rng.normal(size=(5, 16)).astype(np.float32)
    checks.check_rows_match("emb", rows * (1 + 1e-6), rows)
    bad = rows.copy()
    bad[2, 0] += 0.05
    fails(checks.check_rows_match, "emb", bad, rows)


def _index(rng, clips=40, windows=5, e=16, noise=0.3):
    base = {cid: np.cumsum(rng.normal(size=(windows, e)), axis=0) for cid in range(clips)}
    return {m: {cid: ClipEmbeddings(cid, np.arange(windows),
                                    Z + noise * rng.normal(size=Z.shape))
                for cid, Z in base.items()} for m in SENSING}


def test_matching_records_and_planted_faults(rng):
    index = _index(rng, noise=3.0)
    pairs = [(a, b) for a in SENSING for b in SENSING]
    records = matching_benchmark(index, pairs, (2, 8, 16, 32), scenes=60, seed=1)
    checks.check_matching(records)
    self_off = [dict(r, mean=0.99) if r["pair"] == "imu->imu" else r for r in records]
    fails(checks.check_matching, self_off)
    rising = [dict(r, mean=r["n"] / 32, stderr=0.0) if r["pair"] == "imu->skeleton" else r
              for r in records]
    fails(checks.check_matching, rising)


def test_topk_against_brute_force_and_a_swapped_entry(rng):
    Z = rng.normal(size=(50, 8)).astype(np.float32)
    db = EmbeddingDatabase(Z, np.arange(50), np.zeros(50, int), np.zeros(50, int),
                           np.array(["imu"] * 50))
    Q = rng.normal(size=(7, 8)).astype(np.float32)
    found = np.stack([db_retrieve(q, db, 10).indices for q in Q])
    checks.check_topk(Q, Z, 10, found)
    found[3, [1, 2]] = found[3, [2, 1]]
    fails(checks.check_topk, Q, Z, 10, found)


def test_store_roundtrip_and_a_flipped_byte(rng, tmp_path):
    db = EmbeddingDatabase(rng.normal(size=(6, 4)).astype(np.float32), np.arange(6),
                           np.arange(6), np.ones(6, int), np.array(["skeleton"] * 6))
    save_store(tmp_path / "s.emb", db)
    back = load_store(tmp_path / "s.emb")
    checks.check_store_roundtrip(db, back)
    back.Z[4, 1] = np.nextafter(back.Z[4, 1], np.float32(9))
    fails(checks.check_store_roundtrip, db, back)


def test_moment_records_and_planted_faults(rng):
    index = _index(rng, clips=3, windows=80, noise=0.5)
    pairs = [("imu", "skeleton"), ("skeleton", "imu"), ("pointcloud", "pointcloud")]
    k_list = (1, 10, 20, 50)
    records = moment_retrieval_benchmark(index, pairs, k_list, tol=2)
    checks.check_moment_records(records, index, k_list, 2)
    shifted = {m: dict(t) for m, t in index.items()}
    shifted["skeleton"][0] = ClipEmbeddings(0, index["skeleton"][0].starts + 3,
                                            index["skeleton"][0].Z)
    fails(checks.check_moment_records, moment_retrieval_benchmark(shifted, pairs, k_list, tol=2),
          index, k_list, 2)
    self_off = [dict(r, mean=0.9) if r["pair"] == "pointcloud->pointcloud" and r["k"] == 1 else r
                for r in records]
    fails(checks.check_moment_records, self_off, index, k_list, 2)
    falling = [dict(r, mean=0.0) if r["pair"] == "imu->skeleton" and r["k"] == 50 else r
               for r in records]
    fails(checks.check_moment_records, falling, index, k_list, 2)
