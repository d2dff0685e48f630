import numpy as np
import pytest

from motionbind.encoders import EncoderSet, TextEmbedder, Vocabulary
from motionbind.evalkit import (
    ClipEmbeddings,
    EmbeddingDatabase,
    RetrievalResult,
    Scene,
    EMBED_BATCH,
    build_scene,
    class_retrieval_rate,
    db_retrieve,
    encode_windows,
    format_table,
    match_consecutive,
    match_embeddings,
    match_scene,
    matching_benchmark,
    moment_retrieval,
    text_retrieval,
    write_records,
)
from motionbind.motionsynth import DEFAULT_CLASSES, make_clip
from motionbind.pipeline import WindowSpec, make_batch, prepare_windows
from motionbind.tensor import precision


def dense_windows(n_clips=6, length=40, n_raw=64, n_points=16):
    out = {}
    for i in range(n_clips):
        clip = make_clip(DEFAULT_CLASSES[i % 8], clip_id=i, subject_id=i, seed=77,
                         length=length, n_raw=n_raw, tm=False)
        out[i] = prepare_windows([clip], WindowSpec(length=24, stride=1), n_points)
    return out


def random_index(n_clips=12, n_windows=20, e=16, seed=0, modalities=("imu", "pointcloud")):
    rng = np.random.default_rng(seed)
    index = {}
    for mod in modalities:
        index[mod] = {
            cid: ClipEmbeddings(clip_id=cid, starts=np.arange(n_windows),
                                Z=rng.normal(size=(n_windows, e)))
            for cid in range(n_clips)
        }
    return index


# -- scenes --------------------------------------------------------------------


def test_build_scene_deterministic_and_aligned():
    cw = dense_windows()
    s1 = build_scene(cw, n=3, seed=5, pair=("imu", "pointcloud"))
    s2 = build_scene(cw, n=3, seed=5, pair=("imu", "pointcloud"))
    assert [w.clip_id for ws in s1.queries for w in ws] == \
        [w.clip_id for ws in s2.queries for w in ws]
    for q, c in zip(s1.queries, s1.candidates):
        assert q[0].clip_id == c[0].clip_id and q[0].start == c[0].start


def test_build_scene_errors():
    cw = dense_windows(n_clips=3)
    with pytest.raises(ValueError):
        build_scene(cw, n=4, seed=0, pair=("imu", "pointcloud"))
    with pytest.raises(ValueError):
        build_scene(cw, n=1, seed=0, pair=("imu", "pointcloud"))


def test_match_identical_embeddings_perfect():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(8, 16))
    assert match_embeddings(Z, Z.copy()) == 1.0


def test_match_accuracy_scaling_invariant():
    rng = np.random.default_rng(2)
    Zq, Zc = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
    base = match_embeddings(Zq, Zc)
    scales = rng.uniform(0.5, 3.0, size=(6, 1))
    assert match_embeddings(Zq * scales, Zc * 7.0) == base


def test_match_random_embeddings_chance_level():
    rng = np.random.default_rng(3)
    n, scenes = 8, 1000
    accs = [match_embeddings(rng.normal(size=(n, 32)), rng.normal(size=(n, 32)))
            for _ in range(scenes)]
    assert abs(np.mean(accs) - 1 / n) < 0.03


def test_match_shuffle_candidates_consistent():
    rng = np.random.default_rng(4)
    Zq, Zc = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
    sims = (Zq / np.linalg.norm(Zq, axis=1, keepdims=True)) @ \
        (Zc / np.linalg.norm(Zc, axis=1, keepdims=True)).T
    perm = rng.permutation(5)
    pred = np.argmax(sims, axis=1)
    pred_shuffled = np.argmax(sims[:, perm], axis=1)
    assert np.array_equal(perm[pred_shuffled], pred)
    acc = match_embeddings(Zq, Zc)
    base_correct = pred == np.arange(5)
    assert acc == base_correct.mean()


def test_encode_windows_matches_per_window_calls_across_batches():
    from motionbind.encoders import EncoderConfig
    cfg = EncoderConfig(e=16, points=16, window=None, point_mlp=(8, 12),
                        hidden=12, skeleton_mlp=16)
    clips = [make_clip(DEFAULT_CLASSES[i], clip_id=i, subject_id=i, seed=5, length=36,
                       n_raw=64, tm=False) for i in range(8)]
    windows = prepare_windows(clips, WindowSpec(length=4, stride=1), 16)[:EMBED_BATCH + 4]
    with precision(np.float32):
        enc = EncoderSet.build(cfg, {"pointcloud", "imu", "skeleton"}, seed=2)
        for mod, encoder in enc.sensing().items():
            for prehead, forward in ((False, encoder), (True, encoder.features)):
                Z = encode_windows(encoder, mod, windows, prehead=prehead)
                rows = [forward(make_batch([w])[mod]).data[0] for w in windows]
                assert Z.shape == (len(windows), 12 if prehead else 16)
                np.testing.assert_allclose(Z, np.stack(rows), rtol=1e-5, atol=1e-6)


def test_match_scene_with_encoders_and_nwin_reduction():
    cw = dense_windows(n_clips=4)
    from motionbind.encoders import EncoderConfig
    cfg = EncoderConfig(e=24, points=16, window=None, point_mlp=(8, 16),
                        hidden=12, skeleton_mlp=12)
    enc = EncoderSet.build(cfg, {"imu", "pointcloud"}, seed=3)
    scene = build_scene(cw, n=3, seed=9, pair=("imu", "pointcloud"), nwin=2)
    acc1 = match_consecutive(scene, enc, nwin=1)
    single = Scene(n=3, pair=scene.pair, queries=[q[:1] for q in scene.queries],
                   candidates=[c[:1] for c in scene.candidates], seed=9)
    assert acc1 == match_scene(single, enc)  # bit-exact reduction
    with pytest.raises(ValueError):
        match_consecutive(scene, enc, nwin=3)


def test_match_consecutive_mean_scoring():
    # 1 query, 2 candidates with known window sims: A(0.95, 0.85) vs B(0.8, 0.6)
    e1, e2 = np.eye(2)
    def mix(c):  # unit vector with cosine c against e1
        return np.array([c, np.sqrt(1 - c * c)])
    Zq = np.stack([[e1, e1]])                      # (1, 2, e)
    Zc = np.stack([[mix(0.95), mix(0.85)], [mix(0.8), mix(0.6)]])
    from motionbind.evalkit import _consecutive_scores
    scores = _consecutive_scores(Zq, Zc)
    assert scores[0, 0] == pytest.approx(0.90, abs=1e-12)
    assert scores[0, 1] == pytest.approx(0.70, abs=1e-12)


def test_matching_benchmark_records_and_determinism():
    index = random_index()
    recs = matching_benchmark(index, [("imu", "pointcloud")], n_list=[2, 4],
                              scenes=50, seed=11)
    assert {r["n"] for r in recs} == {2, 4}
    recs2 = matching_benchmark(index, [("imu", "pointcloud")], n_list=[2, 4],
                               scenes=50, seed=11)
    assert recs == recs2
    for r in recs:
        assert 0.0 <= r["mean"] <= 1.0 and r["scenes"] == 50


# -- moment retrieval ----------------------------------------------------------


def test_moment_self_query_recall1():
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(60, 16))
    starts = np.arange(60)
    rec = moment_retrieval(Z, starts, Z, starts, k_list=(1, 10), tol=0)
    assert rec[1] == 1.0


def test_moment_recall_nondecreasing_in_k():
    rng = np.random.default_rng(6)
    Zq, Zt = rng.normal(size=(80, 8)), rng.normal(size=(80, 8))
    starts = np.arange(80)
    rec = moment_retrieval(Zq, starts, Zt, starts, k_list=(1, 10, 20, 50))
    vals = [rec[k] for k in (1, 10, 20, 50)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_moment_chance_level_random_embeddings():
    # hit zone is 21 of 500 windows at tol=10
    rng = np.random.default_rng(7)
    hits = []
    for _ in range(30):
        Zq, Zt = rng.normal(size=(500, 16)), rng.normal(size=(500, 16))
        starts = np.arange(500)
        hits.append(moment_retrieval(Zq, starts, Zt, starts, k_list=(1,))[1])
    chance = 21 / 500
    assert abs(np.mean(hits) - chance) < 0.01


def test_moment_k_exceeds_targets_rejected():
    Z = np.ones((5, 4))
    with pytest.raises(ValueError):
        moment_retrieval(Z, np.arange(5), Z, np.arange(5), k_list=(50,))


def test_moment_topk_sets_nested():
    rng = np.random.default_rng(8)
    Zq, Zt = rng.normal(size=(40, 8)), rng.normal(size=(40, 8))
    sims = (Zq / np.linalg.norm(Zq, axis=1, keepdims=True)) @ \
        (Zt / np.linalg.norm(Zt, axis=1, keepdims=True)).T
    order = np.argsort(-sims, axis=1, kind="stable")
    for k1, k2 in [(1, 10), (10, 20), (20, 39)]:
        for row in order:
            assert set(row[:k1]) <= set(row[:k2])


# -- database retrieval --------------------------------------------------------


def make_db(n=30, e=8, classes=(1, 2, 3), seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingDatabase(
        Z=rng.normal(size=(n, e)),
        clip_ids=np.arange(n),
        starts=np.zeros(n, dtype=int),
        class_ids=np.array([classes[i % len(classes)] for i in range(n)]),
        modalities=np.array(["imu"] * n),
    )


def test_db_self_query_rank_one():
    db = make_db()
    res = db_retrieve(db.Z[7], db, k=5)
    assert res.indices[0] == 7
    assert not res.truncated


def test_db_scores_sorted_and_unique():
    db = make_db()
    res = db_retrieve(np.ones(8), db, k=10)
    assert np.all(np.diff(res.scores) <= 1e-12)
    assert len(set(res.indices.tolist())) == 10
    assert res.metadata[0].keys() == {"clip_id", "start", "class_id", "modality"}


def test_db_truncation_flagged():
    db = make_db(n=4)
    res = db_retrieve(np.ones(8), db, k=10)
    assert res.truncated and len(res.indices) == 4


def test_class_retrieval_rate_perfect_when_clustered():
    rng = np.random.default_rng(9)
    centers = {1: rng.normal(size=8), 2: rng.normal(size=8)}
    Z = np.stack([centers[1 + i % 2] + 0.01 * rng.normal(size=8) for i in range(20)])
    db = make_db(n=20, classes=(1, 2))
    db.Z = Z
    rate = class_retrieval_rate(Z[:4], db.class_ids[:4], db, k=5)
    assert rate == 1.0


# -- text retrieval ------------------------------------------------------------


def test_text_retrieval_single_class_perfect():
    vocab = Vocabulary(["walk", "wave"])
    emb = TextEmbedder(vocab, e=8)
    db = make_db(n=10, e=8, classes=(3,))
    score = text_retrieval([(vocab.encode("walk"), 3)], emb, db)
    assert score == 1.0


def test_text_retrieval_chance_level_random_db():
    vocab = Vocabulary([c.name for c in DEFAULT_CLASSES])
    emb = TextEmbedder(vocab, e=16)
    rng = np.random.default_rng(10)
    scores = []
    for trial in range(60):
        db = make_db(n=80, e=16, classes=tuple(c.id for c in DEFAULT_CLASSES), seed=trial)
        queries = [(vocab.encode(c.name), c.id) for c in DEFAULT_CLASSES]
        scores.append(text_retrieval(queries, emb, db))
    assert abs(np.mean(scores) - 0.125) < 0.04


# -- emission ------------------------------------------------------------------


def test_write_records_and_table(tmp_path):
    recs = [{"task": "match", "pair": "imu->pointcloud", "n": 2, "mean": 0.9}]
    path = tmp_path / "scores.jsonl"
    write_records(recs, path)
    import json
    assert [json.loads(l) for l in path.read_text().splitlines()] == recs
    table = format_table(recs)
    assert "imu->pointcloud" in table and "mean" in table
