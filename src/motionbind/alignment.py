"""Masked multi-pair contrastive objective and the pre-training loop.

Sensing modalities are pulled together pairwise with a symmetric InfoNCE
loss; samples that carry a text annotation are additionally pulled toward
the frozen text embedding. Text-less rows are compacted out of the text
term so dummy embeddings never act as positives or negatives.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .encoders import EncoderSet
from .optim import Adam
from .tensor import Tensor

SENSING = ("pointcloud", "imu", "skeleton")
MODALITIES = SENSING + ("text",)

# variant-name letters: S=skeleton, P=pointcloud, I=imu, T=text
_LETTER = {"S": "skeleton", "P": "pointcloud", "I": "imu", "T": "text"}

TAU_MIN, TAU_MAX = 0.01, 1.0


class VariantError(ValueError):
    """Malformed or unsupported model-variant name."""


@dataclass(frozen=True)
class ModalityGraph:
    """Active modality set M and the sensing pairs M* to align."""

    modalities: frozenset
    pairs: tuple  # unordered sensing pairs, stored sorted

    @staticmethod
    def from_modalities(modalities) -> "ModalityGraph":
        mods = frozenset(modalities)
        unknown = mods - set(MODALITIES)
        if unknown:
            raise VariantError(f"unknown modalities {sorted(unknown)}")
        sensing = [m for m in SENSING if m in mods]
        if len(sensing) < 2:
            raise VariantError("need at least two sensing modalities to align")
        pairs = tuple(
            (a, b) for i, a in enumerate(sensing) for b in sensing[i + 1 :]
        )
        return ModalityGraph(modalities=mods, pairs=pairs)

    @staticmethod
    def from_variant(name: str) -> "ModalityGraph":
        """Decode names like 'DeSPIE' (De + modality letters + E)."""
        if not (name.startswith("De") and name.endswith("E") and len(name) > 3):
            raise VariantError(f"variant name '{name}' must look like De<letters>E")
        letters = name[2:-1]
        mods = set()
        for ch in letters:
            if ch not in _LETTER:
                raise VariantError(f"variant '{name}': unknown modality letter '{ch}'")
            if _LETTER[ch] in mods:
                raise VariantError(f"variant '{name}': repeated letter '{ch}'")
            mods.add(_LETTER[ch])
        return ModalityGraph.from_modalities(mods)

    @property
    def has_text(self) -> bool:
        return "text" in self.modalities

    def sensing(self) -> list[str]:
        return [m for m in SENSING if m in self.modalities]


class Temperature:
    """Learnable softmax temperature, parameterized as log tau."""

    def __init__(self, init: float = 0.07):
        self.log_tau = Tensor(np.log(init), requires_grad=True, name="log_tau")

    def value(self) -> Tensor:
        return self.log_tau.exp().clip(TAU_MIN, TAU_MAX)

    def tau(self) -> float:
        return float(np.clip(np.exp(self.log_tau.data), TAU_MIN, TAU_MAX))


@dataclass
class AlignedBatch:
    """Embeddings of one batch: modality name -> (B, e) Tensor, plus text mask."""

    embeddings: dict
    tm: np.ndarray  # (B,) bool

    @property
    def size(self) -> int:
        return int(self.tm.shape[0])


def _normalized_rows(Z: Tensor, name: str) -> Tensor:
    norms = np.sqrt((Z.data * Z.data).sum(axis=-1))
    if np.any(norms == 0.0):
        raise ValueError(f"zero-norm embedding row in '{name}'")
    return Z.l2_normalize(axis=-1)


def cosine_sim(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> float:
    a = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=float)
    b = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm input")
    return float(a @ b / (na * nb))


def similarity_matrix(Za: Tensor, Zb: Tensor) -> Tensor:
    """Pairwise cosine similarities, rows = Za entries, columns = Zb entries."""
    return _normalized_rows(Za, "a") @ _normalized_rows(Zb, "b").T


def _directional_from_logits(logits: Tensor) -> Tensor:
    """Mean over rows of (logsumexp of row - diagonal): stabilized InfoNCE."""
    B = logits.shape[0]
    eye = Tensor(np.eye(B, dtype=logits.data.dtype))
    diag = (logits * eye).sum(axis=1)
    return (logits.logsumexp(axis=1) - diag).mean()


def info_nce_directional(Za: Tensor, Zb: Tensor, tau: Tensor | float) -> Tensor:
    """Contrastive loss from Za toward Zb with index-aligned positives."""
    tau = tau if isinstance(tau, Tensor) else Tensor(np.asarray(float(tau)))
    return _directional_from_logits(similarity_matrix(Za, Zb) / tau)


def pair_loss(Za: Tensor, Zb: Tensor, tau: Tensor | float) -> Tensor:
    """Symmetric InfoNCE: both directions share one similarity matrix."""
    tau = tau if isinstance(tau, Tensor) else Tensor(np.asarray(float(tau)))
    logits = similarity_matrix(Za, Zb) / tau
    half = Tensor(np.asarray(0.5, dtype=logits.data.dtype))
    return half * (_directional_from_logits(logits) + _directional_from_logits(logits.T))


def text_loss(batch: AlignedBatch, graph: ModalityGraph, tau: Tensor | float) -> Tensor:
    """Text-binding term over the tm=True sub-batch; exactly 0 when fully masked."""
    if not graph.has_text:
        raise ValueError("text loss requested for a graph without text")
    mask = np.asarray(batch.tm, dtype=bool)
    if not mask.any():
        return Tensor(0.0)
    Zt = batch.embeddings["text"][mask]
    total = None
    for name in graph.sensing():
        term = pair_loss(batch.embeddings[name][mask], Zt, tau)
        total = term if total is None else total + term
    return total


def modality_loss(batch: AlignedBatch, graph: ModalityGraph, tau: Tensor | float) -> Tensor:
    """Sum of symmetric pair losses over the sensing pairs, unweighted."""
    if not graph.pairs:
        raise ValueError("modality loss with empty pair set (misconfigured variant)")
    total = None
    for a, b in graph.pairs:
        term = pair_loss(batch.embeddings[a], batch.embeddings[b], tau)
        total = term if total is None else total + term
    return total


def loss_terms(batch: AlignedBatch, graph: ModalityGraph, tau: Tensor | float,
               alpha: float = 0.5, beta: float = 0.5) -> tuple:
    """(total, L_M, L_text) with total = alpha * L_text + beta * L_M; without
    text, L_text is None and the total is L_M exactly."""
    if alpha < 0 or beta < 0:
        raise ValueError("loss weights must be non-negative")
    lm = modality_loss(batch, graph, tau)
    if not graph.has_text:
        return lm, lm, None
    lt = text_loss(batch, graph, tau)
    a = Tensor(np.asarray(alpha, dtype=lm.data.dtype))
    b = Tensor(np.asarray(beta, dtype=lm.data.dtype))
    return a * lt + b * lm, lm, lt


def total_loss(batch: AlignedBatch, graph: ModalityGraph, tau: Tensor | float,
               alpha: float = 0.5, beta: float = 0.5) -> Tensor:
    """Weighted total; without text it reduces to the modality term exactly."""
    return loss_terms(batch, graph, tau, alpha, beta)[0]


def embed_batch(encoders: EncoderSet, graph: ModalityGraph, arrays: dict) -> AlignedBatch:
    """Run every active encoder on its raw window stack."""
    emb = {}
    for name in graph.sensing():
        emb[name] = encoders.modality(name)(arrays[name])
    tm = np.asarray(arrays.get("tm", np.zeros(next(iter(emb.values())).shape[0], dtype=bool)))
    if graph.has_text:
        emb["text"] = Tensor(arrays["text_emb"])
    return AlignedBatch(embeddings=emb, tm=tm)


@dataclass
class TrainConfig:
    batch_size: int = 64
    lr: float = 1e-4
    epochs: int = 30
    alpha: float = 0.5
    beta: float = 0.5
    tau_init: float = 0.07
    seed: int = 0


@dataclass
class TrainResult:
    encoders: EncoderSet
    temperature: Temperature
    optimizer_state: dict
    epochs_run: int
    metrics: list = field(default_factory=list)


class TrainingAbort(RuntimeError):
    """Raised when the loss turns non-finite, with epoch/step context."""


def train(loader, graph: ModalityGraph, encoders: EncoderSet,
          cfg: TrainConfig, metrics_path=None, log=None) -> TrainResult:
    """Optimize encoders and temperature with Adam on the total loss.

    `loader.batches(epoch_seed, batch_size)` must yield dicts of stacked
    raw modality arrays (plus 'text_emb'/'tm' when text is active).
    Deterministic given cfg.seed and the encoder init.
    """
    temp = Temperature(cfg.tau_init)
    params = dict(encoders.params())
    params["temperature.log_tau"] = temp.log_tau
    opt = Adam(params, lr=cfg.lr)
    metrics: list = []
    fh = open(metrics_path, "a") if metrics_path else None
    try:
        step = 0
        for epoch in range(cfg.epochs):
            epoch_seed = (cfg.seed * 1_000_003 + epoch) & 0xFFFFFFFF
            epoch_losses, epoch_text, epoch_mod = [], [], []
            for arrays in loader.batches(epoch_seed, cfg.batch_size):
                opt.zero_grad()
                try:
                    loss, lm, lt = loss_terms(embed_batch(encoders, graph, arrays), graph,
                                              temp.value(), cfg.alpha, cfg.beta)
                except FloatingPointError as exc:
                    raise TrainingAbort(f"non-finite loss at epoch {epoch} step {step}: {exc}") from exc
                if not np.isfinite(loss.item()):
                    raise TrainingAbort(f"non-finite loss at epoch {epoch} step {step}")
                loss.backward()
                opt.step()
                epoch_losses.append(loss.item())
                epoch_mod.append(lm.item())
                rec = {"epoch": epoch, "step": step, "total": loss.item(),
                       "L_M": lm.item(), "tau": temp.tau()}
                if lt is not None:
                    epoch_text.append(lt.item())
                    rec["L_text"] = lt.item()
                if fh:
                    fh.write(json.dumps(rec) + "\n")
                step += 1
            if log:
                log(f"epoch {epoch}: total={np.mean(epoch_losses):.4f} tau={temp.tau():.4f}")
            metrics.append({
                "epoch": epoch,
                "total": float(np.mean(epoch_losses)),
                "L_M": float(np.mean(epoch_mod)),
                "L_text": float(np.mean(epoch_text)) if epoch_text else None,
                "tau": temp.tau(),
                "time": time.time(),
            })
    finally:
        if fh:
            fh.close()
    return TrainResult(encoders=encoders, temperature=temp,
                       optimizer_state=opt.state(), epochs_run=cfg.epochs, metrics=metrics)
