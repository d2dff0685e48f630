"""Activity recognition on top of pre-trained encoders: zero-shot
classification, linear / non-linear probing on frozen features, and full
fine-tuning under the staged SGD schedule. Reported metric is segment
accuracy with transition-labeled segments excluded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .encoders import Linear, Module
from .evalkit import encode_windows
from .motionsynth import TRANSITION_CLASS_ID
from .optim import SGD
from .pipeline import make_batch
from .tensor import Tensor


@dataclass
class FinetuneSchedule:
    epochs: int = 35
    batch_size: int = 24
    momentum: float = 0.9
    warmup_epochs: int = 5
    warmup_start: float = 0.001
    peak_lr: float = 0.01
    decay_epochs: tuple = (20, 30)
    decay_factor: float = 0.1


def lr_schedule(epoch: int, sched: FinetuneSchedule | None = None) -> float:
    """Linear warmup to the peak, then staged decay; exact at integer epochs."""
    s = sched or FinetuneSchedule()
    if not 0 <= epoch < s.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {s.epochs})")
    if epoch < s.warmup_epochs:
        frac = epoch / s.warmup_epochs
        return s.warmup_start + frac * (s.peak_lr - s.warmup_start)
    lr = s.peak_lr
    for boundary in s.decay_epochs:
        if epoch >= boundary:
            lr *= s.decay_factor
    return lr


class ClassifierHead(Module):
    """linear: single layer; mlp: one hidden layer of the embedding width."""

    def __init__(self, kind: str, in_dim: int, num_classes: int, hidden: int, rng):
        super().__init__()
        if kind not in ("linear", "mlp"):
            raise ValueError(f"unknown head kind '{kind}'")
        self.kind = kind
        if kind == "linear":
            self.out = self.add_child("out", Linear(rng, in_dim, num_classes))
        else:
            self.hidden = self.add_child("hidden", Linear(rng, in_dim, hidden))
            self.out = self.add_child("out", Linear(rng, hidden, num_classes))

    def __call__(self, x: Tensor) -> Tensor:
        if self.kind == "mlp":
            x = self.hidden(x).relu()
        return self.out(x)


def segment_accuracy(predictions, labels, transition_class: int = TRANSITION_CLASS_ID) -> float:
    """Fraction correct over segments whose label is not the transition class."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    keep = labels != transition_class
    if not keep.any():
        raise ValueError("all segments carry the transition label; accuracy undefined")
    return float((predictions[keep] == labels[keep]).mean())


def cross_entropy(logits: Tensor, label_idx: np.ndarray) -> Tensor:
    B, K = logits.shape
    onehot = np.zeros((B, K), dtype=logits.data.dtype)
    onehot[np.arange(B), label_idx] = 1.0
    true_logit = (logits * Tensor(onehot)).sum(axis=1)
    return (logits.logsumexp(axis=1) - true_logit).mean()


def params_digest(module: Module) -> str:
    h = hashlib.sha256()
    for name in sorted(module.params()):
        h.update(name.encode())
        h.update(module.params()[name].data.tobytes())
    return h.hexdigest()


@dataclass
class HarResult:
    head: ClassifierHead
    train_accuracy: float
    test_accuracy: float
    epoch_metrics: list = field(default_factory=list)


def _label_index(windows: list, classes: list) -> np.ndarray:
    lut = {c.id: i for i, c in enumerate(classes)}
    return np.array([lut[int(w.class_id)] for w in windows])


def zero_shot_classify(windows: list, modality: str, encoders, classes: list) -> np.ndarray:
    """Predicted class ids by nearest text embedding in the shared space."""
    if encoders.text is None:
        raise ValueError("zero-shot requires a model trained with the text modality")
    Z = encode_windows(encoders.modality(modality), modality, windows)
    Zt = np.stack([encoders.text.embed_text(c.name) for c in classes])
    Z = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    Zt = Zt / np.linalg.norm(Zt, axis=1, keepdims=True)
    pred = np.argmax(Z @ Zt.T, axis=1)
    return np.array([classes[i].id for i in pred])


def _sgd_epochs(params: dict, batch_loss, n: int, sched: FinetuneSchedule, seed: int,
                log, tag: str) -> list:
    """Minibatch SGD under the staged schedule; `batch_loss(idx)` builds the
    loss of the rows `idx` of a seeded per-epoch permutation of range(n)."""
    opt = SGD(params, momentum=sched.momentum)
    rng = np.random.default_rng(seed)
    metrics = []
    for epoch in range(sched.epochs):
        opt.lr = lr_schedule(epoch, sched)
        order = rng.permutation(n)
        losses = []
        for i in range(0, n, sched.batch_size):
            opt.zero_grad()
            loss = batch_loss(order[i : i + sched.batch_size])
            if not np.isfinite(loss.item()):
                raise RuntimeError(f"non-finite {tag} loss at epoch {epoch}")
            loss.backward()
            opt.step()
            losses.append(loss.item())
        metrics.append({"epoch": epoch, "loss": float(np.mean(losses)), "lr": opt.lr})
        if log:
            log(f"{tag} epoch {epoch}: loss={np.mean(losses):.4f} lr={opt.lr:g}")
    return metrics


def _accuracy(head: ClassifierHead, X: np.ndarray, windows: list, classes: list) -> float:
    """Segment accuracy of the head's argmax class on feature rows X."""
    pred_idx = np.argmax(head(Tensor(X)).data, axis=1)
    pred = np.array([classes[i].id for i in pred_idx])
    return segment_accuracy(pred, np.array([w.class_id for w in windows]))


def probe_train(encoder, modality: str, head: ClassifierHead,
                train_windows: list, test_windows: list, classes: list,
                sched: FinetuneSchedule | None = None, seed: int = 0,
                use_prehead: bool = True, log=None) -> HarResult:
    """Train only the head on frozen encoder features (encoder verified unchanged)."""
    sched = sched or FinetuneSchedule()
    digest_before = params_digest(encoder)
    Xtr = encode_windows(encoder, modality, train_windows, use_prehead)
    Xte = encode_windows(encoder, modality, test_windows, use_prehead)
    ytr = _label_index(train_windows, classes)

    def batch_loss(idx):
        return cross_entropy(head(Tensor(Xtr[idx])), ytr[idx])

    metrics = _sgd_epochs(head.params(), batch_loss, len(Xtr), sched, seed, log, "probe")
    if params_digest(encoder) != digest_before:
        raise AssertionError("probing modified frozen encoder parameters")
    return HarResult(
        head=head,
        train_accuracy=_accuracy(head, Xtr, train_windows, classes),
        test_accuracy=_accuracy(head, Xte, test_windows, classes),
        epoch_metrics=metrics,
    )


def finetune(encoder, modality: str, head: ClassifierHead,
             train_windows: list, test_windows: list, classes: list,
             sched: FinetuneSchedule | None = None, seed: int = 0,
             use_prehead: bool = True, log=None) -> HarResult:
    """End-to-end training of encoder + head under the staged SGD schedule."""
    sched = sched or FinetuneSchedule()
    params = dict(head.params())
    params.update({f"encoder.{k}": v for k, v in encoder.params().items()})
    ytr = _label_index(train_windows, classes)

    def batch_loss(idx):
        x = make_batch([train_windows[j] for j in idx])[modality]
        feats = encoder.features(x) if use_prehead else encoder(x)
        return cross_entropy(head(feats), ytr[idx])

    metrics = _sgd_epochs(params, batch_loss, len(train_windows), sched, seed, log, "finetune")

    def accuracy(windows):
        X = encode_windows(encoder, modality, windows, use_prehead)
        return _accuracy(head, X, windows, classes)

    return HarResult(
        head=head,
        train_accuracy=accuracy(train_windows),
        test_accuracy=accuracy(test_windows),
        epoch_metrics=metrics,
    )
