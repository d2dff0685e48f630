import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from motionbind.alignment import Temperature
from motionbind.cli import (
    Checkpoint,
    ConfigError,
    FormatError,
    RunConfig,
    load_checkpoint,
    load_run_config,
    load_store,
    main,
    restore_model,
    save_checkpoint,
    save_store,
)
from motionbind.encoders import EncoderSet
from motionbind.evalkit import EmbeddingDatabase, db_retrieve


def tiny_cfg(**kw):
    base = dict(variant="DeSIE", e=12, window=24, points=8, stride=24,
                hidden=10, lr=1e-3, batch=4, epochs=1, seed=3)
    base.update(kw)
    return RunConfig(**base)


def build_tiny_model(cfg):
    from motionbind.motionsynth import build_vocabulary

    graph = cfg.graph()
    vocab = build_vocabulary() if graph.has_text else None
    enc = EncoderSet.build(cfg.encoder_config(), set(graph.modalities),
                           seed=cfg.seed, vocab=vocab)
    return enc, Temperature(cfg.tau_init)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out", str(out), "--seed", "5",
               "--train-per-class", "2", "--test-per-class", "1",
               "--length", "48", "--n-raw", "64"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--out", str(out), "--data", str(dataset),
               "--variant", "DeSIE", "--e", "12", "--points", "8",
               "--stride", "24", "--batch", "4", "--epochs", "1", "--quiet"])
    assert rc == 0
    return out


# -- config --------------------------------------------------------------------


def test_run_config_file_plus_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"variant": "DeSPE", "e": 64, "lr": 0.01}))
    cfg = load_run_config(path, {"e": 32, "batch": None})
    assert cfg.variant == "DeSPE" and cfg.e == 32 and cfg.lr == 0.01
    assert cfg.batch == 64  # untouched default


def test_run_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"variannt": "DeSPE"}))
    with pytest.raises(ConfigError):
        load_run_config(path, {})


def test_run_config_rejects_bad_variant():
    with pytest.raises(ConfigError):
        load_run_config(None, {"variant": "DeTE"})


def test_seed_env_var(monkeypatch):
    from motionbind.cli import default_seed

    monkeypatch.setenv("MOTIONBIND_SEED", "42")
    assert default_seed() == 42
    monkeypatch.setenv("MOTIONBIND_SEED", "noise")
    with pytest.raises(ConfigError):
        default_seed()


# -- checkpoint format ---------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_cfg()
    enc, temp = build_tiny_model(cfg)
    temp.log_tau.data = np.float64(np.log(0.05))
    opt_state = {"t": 7,
                 "m": {k: np.full_like(v.data, 0.25) for k, v in enc.params().items()},
                 "v": {k: np.full_like(v.data, 0.5) for k, v in enc.params().items()}}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, enc, temp, opt_state, epoch=9)
    ckpt = load_checkpoint(path)
    assert ckpt.epoch == 9 and ckpt.config == cfg
    assert ckpt.opt_state["t"] == 7
    for k, v in enc.params().items():
        assert np.array_equal(ckpt.params[k], v.data)
        assert ckpt.params[k].dtype == v.data.dtype
        assert np.array_equal(ckpt.opt_state["m"][k], opt_state["m"][k])
    enc2, temp2, graph = restore_model(ckpt)
    for k, v in enc.params().items():
        assert np.array_equal(enc2.params()[k].data, v.data)
    assert temp2.log_tau.data == temp.log_tau.data
    assert set(graph.sensing()) == {"skeleton", "imu"}


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    cfg = tiny_cfg()
    enc, temp = build_tiny_model(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, enc, temp, {"t": 0, "m": {}, "v": {}}, epoch=0)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_restore_rejects_shape_mismatch(tmp_path):
    cfg = tiny_cfg()
    enc, temp = build_tiny_model(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, enc, temp, {"t": 0, "m": {}, "v": {}}, epoch=0)
    name = next(k for k in load_checkpoint(path).params if k != "temperature.log_tau")

    def reshaped(params):
        params[name] = np.zeros((2, 2))

    def missing(params):
        del params[name]

    def extra(params):
        params["imu.head.fc3.W"] = np.zeros((2, 2))

    for corrupt in (reshaped, missing, extra):
        ckpt = load_checkpoint(path)
        corrupt(ckpt.params)
        with pytest.raises(FormatError):
            restore_model(ckpt)

    # restored parameters are copies: several models may be restored from
    # one checkpoint and trained apart
    ckpt = load_checkpoint(path)
    enc2, temp2, _ = restore_model(ckpt)
    for k, v in enc2.params().items():
        assert not np.shares_memory(v.data, ckpt.params[k])
    assert not np.shares_memory(temp2.log_tau.data, ckpt.params["temperature.log_tau"])


# -- embedding store -----------------------------------------------------------


def test_store_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    db = EmbeddingDatabase(
        Z=rng.normal(size=(6, 12)).astype(np.float32),
        clip_ids=np.array([0, 0, 1, 1, 2, 2]),
        starts=np.array([0, 1, 0, 1, 0, 1]),
        class_ids=np.array([1, 1, 2, 2, 3, 3]),
        modalities=np.array(["imu"] * 6),
    )
    path = tmp_path / "test.emb"
    save_store(path, db)
    back = load_store(path)
    assert np.array_equal(back.Z, db.Z)
    assert np.array_equal(back.clip_ids, db.clip_ids)
    assert np.array_equal(back.starts, db.starts)
    assert np.array_equal(back.class_ids, db.class_ids)
    assert list(back.modalities) == list(db.modalities)


def test_store_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError):
        load_store(path)
    db = EmbeddingDatabase(Z=np.ones((2, 4), dtype=np.float32),
                           clip_ids=np.arange(2), starts=np.arange(2),
                           class_ids=np.ones(2, dtype=int),
                           modalities=np.array(["imu", "imu"]))
    good = tmp_path / "good.emb"
    save_store(good, db)
    good.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(FormatError):
        load_store(good)


# -- subcommands ---------------------------------------------------------------


def test_synth_writes_manifest(dataset):
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert manifest["train_clips"] == 16 and manifest["test_clips"] == 8
    assert manifest["text_coverage"] == 0.37


def test_train_writes_artifacts(trained):
    assert (trained / "model.ckpt").exists()
    assert (trained / "metrics.jsonl").exists()
    resolved = json.loads((trained / "config.resolved.json").read_text())
    assert resolved["variant"] == "DeSIE"
    params = load_checkpoint(trained / "model.ckpt").params
    assert {p.dtype.str for p in params.values()} == {"<f4"}


def test_metrics_without_text_lack_ltext_column(trained):
    lines = (trained / "metrics.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        assert "L_text" not in json.loads(line)


def test_embed_and_retrieve_round_trip(dataset, trained, tmp_path):
    store = tmp_path / "imu.emb"
    rc = main(["embed", "--checkpoint", str(trained / "model.ckpt"),
               "--data", str(dataset), "--modality", "imu", "--out", str(store)])
    assert rc == 0
    db = load_store(store)
    assert len(db.Z) == 8 * 25  # 8 test clips, stride-1 windows of 48 frames
    res = db_retrieve(db.Z[3], db, k=5)
    assert res.indices[0] == 3


@pytest.mark.parametrize("command, flags", [
    pytest.param("embed", ["--modality", "pointcloud", "--out", "x.emb"], id="embed-modality"),
    pytest.param("har", ["--mode", "probe", "--modality", "pointcloud", "--out", "h.jsonl"],
                 id="har-modality"),
    pytest.param("match", ["--n", "64", "--scenes", "2", "--out", "m.jsonl"], id="match-n"),
    pytest.param("moment", ["--out", "mo.jsonl"], id="moment-default-k"),
])
def test_config_mistake_exits_2(command, flags, dataset, trained, tmp_path, capsys, monkeypatch):
    """DeSIE has no point cloud; the test split has 8 clips of 25 windows,
    fewer than `--n 64` and than the default `--k` maximum of 50."""
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    rc = main([command, "--checkpoint", str(trained / "model.ckpt"),
               "--data", str(dataset), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())  # no partial or NaN record written


def test_match_subcommand_writes_records(dataset, trained, tmp_path):
    out = tmp_path / "match.jsonl"
    rc = main(["match", "--checkpoint", str(trained / "model.ckpt"),
               "--data", str(dataset), "--n", "2,4", "--scenes", "10",
               "--out", str(out)])
    assert rc == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert {r["n"] for r in recs} == {2, 4}


def test_moment_subcommand(dataset, trained, tmp_path):
    out = tmp_path / "moment.jsonl"
    rc = main(["moment", "--checkpoint", str(trained / "model.ckpt"),
               "--data", str(dataset), "--k", "1,10", "--out", str(out)])
    assert rc == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert recs and all(0.0 <= r["mean"] <= 1.0 for r in recs)


def test_har_zeroshot_without_text_exits_2(dataset, trained):
    rc = main(["har", "--checkpoint", str(trained / "model.ckpt"),
               "--data", str(dataset), "--mode", "zeroshot", "--modality", "imu"])
    assert rc == 2


def test_har_probe_smoke(dataset, trained, tmp_path):
    out = tmp_path / "har.jsonl"
    rc = main(["har", "--checkpoint", str(trained / "model.ckpt"),
               "--data", str(dataset), "--mode", "probe", "--modality", "imu",
               "--epochs", "2", "--quiet", "--out", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["mode"] == "probe" and 0.0 <= rec["accuracy"] <= 1.0


def test_grad_check_subcommand():
    assert main(["grad-check", "--variant", "DeSIE", "--seed", "1"]) == 0


def test_missing_dataset_exits_3(tmp_path):
    rc = main(["train", "--out", str(tmp_path / "r"), "--data",
               str(tmp_path / "nowhere"), "--variant", "DeSIE", "--epochs", "1"])
    assert rc == 3


def test_bad_variant_exits_2(tmp_path, dataset):
    rc = main(["train", "--out", str(tmp_path / "r"), "--data", str(dataset),
               "--variant", "DeXQE"])
    assert rc == 2


def test_full_pipeline_deterministic(tmp_path, dataset):
    def run(tag):
        out = tmp_path / tag
        assert main(["train", "--out", str(out), "--data", str(dataset),
                     "--variant", "DeSIE", "--e", "12", "--points", "8",
                     "--stride", "24", "--batch", "4", "--epochs", "1",
                     "--seed", "9", "--quiet"]) == 0
        scores = out / "match.jsonl"
        assert main(["match", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(dataset), "--n", "2", "--scenes", "20",
                     "--seed", "9", "--out", str(scores)]) == 0
        return hashlib.sha256(scores.read_bytes()).hexdigest()

    assert run("a") == run("b")
