"""Model parameters, initialization, and the checkpoint file format.

Checkpoints are versioned JSON with float64 values serialized as C99 hex
literals, so a reload reproduces every parameter bit-for-bit and the file
bytes are stable across platforms for identical values. A content hash over
the canonical payload guards against corruption.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..scorers import atomic_write
from .features import PocketFeatures, featurize_pocket
from .vocab import SMILES_CHARS, Vocabulary, make_vocabulary

CHECKPOINT_VERSION = 1
_HEX_CHUNK = 4096

ADAPTER_FIELDS = frozenset(
    {"adapter_gate_w", "adapter_gate_b", "adapter_up_w", "adapter_up_b",
     "adapter_down_w", "adapter_down_b"}
)
VAE_FIELDS = frozenset({"vae_mu_w", "vae_mu_b", "vae_logvar_w", "vae_logvar_b"})
LM_FIELDS = frozenset({"lm_w1", "lm_b1", "lm_w2", "lm_b2", "lm_out_w", "lm_out_b"})
# Token embeddings stay frozen at their seeded initialization in every stage;
# the first dense layer can absorb any linear re-encoding of them.
SFT_TRAINABLE = ADAPTER_FIELDS | VAE_FIELDS | LM_FIELDS


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    d_feat: int = 64
    window: int = 8
    n_struct_tokens: int = 8
    vocab_tokens: tuple[str, ...] = ("<pad>", "<bos>", "<eos>", *SMILES_CHARS)
    seed: int = 0

    def vocabulary(self) -> Vocabulary:
        return make_vocabulary(self.vocab_tokens)

    @property
    def lm_input_dim(self) -> int:
        return (self.window + 1) * self.d

    def featurize(self, pocket_id: str, pocket_sequence: str | None = None) -> PocketFeatures:
        """A pocket's conditioning features at this model's width and seed."""
        return featurize_pocket(
            pocket_id,
            self.d_feat,
            self.seed,
            pocket_sequence=pocket_sequence,
            n_struct_tokens=self.n_struct_tokens,
        )


@dataclass
class ModelParams:
    config: ModelConfig
    token_embedding: np.ndarray
    adapter_gate_w: np.ndarray
    adapter_gate_b: np.ndarray
    adapter_up_w: np.ndarray
    adapter_up_b: np.ndarray
    adapter_down_w: np.ndarray
    adapter_down_b: np.ndarray
    vae_mu_w: np.ndarray
    vae_mu_b: np.ndarray
    vae_logvar_w: np.ndarray
    vae_logvar_b: np.ndarray
    lm_w1: np.ndarray
    lm_b1: np.ndarray
    lm_w2: np.ndarray
    lm_b2: np.ndarray
    lm_out_w: np.ndarray
    lm_out_b: np.ndarray

    def array_fields(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self) if f.name != "config")

    def copy(self) -> "ModelParams":
        kwargs = {name: getattr(self, name).copy() for name in self.array_fields()}
        return ModelParams(config=self.config, **kwargs)

    def zero_grads(self, names: frozenset[str] | None = None) -> dict[str, np.ndarray]:
        """Zero gradients for ``names``; None means every array field."""
        names = self.array_fields() if names is None else names
        return {name: np.zeros_like(getattr(self, name)) for name in sorted(names)}


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded initialization; variational projections start at zero so the
    injected noise is exactly standard normal before any training."""
    rng = np.random.default_rng(config.seed)
    d, d_feat, v = config.d, config.d_feat, len(config.vocab_tokens)

    def dense(out_dim: int, in_dim: int) -> np.ndarray:
        return rng.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim)

    return ModelParams(
        config=config,
        token_embedding=rng.standard_normal((v, d)) * 0.5,
        adapter_gate_w=dense(d, d_feat),
        adapter_gate_b=np.zeros(d),
        adapter_up_w=dense(d, d_feat),
        adapter_up_b=np.zeros(d),
        adapter_down_w=dense(d, d),
        adapter_down_b=np.zeros(d),
        vae_mu_w=np.zeros((d_feat, d_feat)),
        vae_mu_b=np.zeros(d_feat),
        vae_logvar_w=np.zeros((d_feat, d_feat)),
        vae_logvar_b=np.zeros(d_feat),
        lm_w1=dense(d, config.lm_input_dim),
        lm_b1=np.zeros(d),
        lm_w2=dense(d, d),
        lm_b2=np.zeros(d),
        lm_out_w=np.zeros((v, d)),
        lm_out_b=np.zeros(v),
    )


def _array_to_json(arr: np.ndarray) -> dict:
    flat = np.ascontiguousarray(arr, dtype=np.float64).ravel()
    # a few thousand values at a time: the text of one at a time is short,
    # and a list of every value's text would cost more than the result
    parts = [
        " ".join(map(float.hex, flat[s : s + _HEX_CHUNK].tolist()))
        for s in range(0, flat.size, _HEX_CHUNK)
    ]
    return {"shape": list(arr.shape), "data": " ".join(parts)}


def _hex_values(data: str):
    """The values of a space-separated hex text, split a piece at a time."""
    start = 0
    while start < len(data):
        # about _HEX_CHUNK values: one value's text takes at most 24 characters
        end = data.find(" ", start + 24 * _HEX_CHUNK)
        end = len(data) if end < 0 else end
        yield from map(float.fromhex, data[start:end].split())
        start = end + 1


def _array_from_json(obj: dict) -> np.ndarray:
    values = np.fromiter(_hex_values(obj["data"]), dtype=np.float64)
    return values.reshape(obj["shape"])


def _payload_digest(payload: dict) -> str:
    digest = hashlib.sha256()
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    for chunk in encoder.iterencode(payload):  # the canonical text, piece by piece
        digest.update(chunk.encode())
    return digest.hexdigest()


def save_params(path: str | Path, params: ModelParams, extra: dict | None = None) -> None:
    config = params.config
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": {
            "d": config.d,
            "d_feat": config.d_feat,
            "window": config.window,
            "n_struct_tokens": config.n_struct_tokens,
            "vocab_tokens": list(config.vocab_tokens),
            "seed": config.seed,
        },
        "arrays": {name: _array_to_json(getattr(params, name)) for name in params.array_fields()},
        "extra": extra or {},
    }
    payload["content_hash"] = _payload_digest(payload)
    with atomic_write(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=None)
        handle.write("\n")


def load_params(path: str | Path) -> tuple[ModelParams, dict]:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("checkpoint is not a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    stored_hash = payload.pop("content_hash", None)
    if stored_hash != _payload_digest(payload):
        raise ValueError(f"checkpoint content hash mismatch in {path}")
    cfg = payload["config"]
    config = ModelConfig(
        d=cfg["d"],
        d_feat=cfg["d_feat"],
        window=cfg["window"],
        n_struct_tokens=cfg["n_struct_tokens"],
        vocab_tokens=tuple(cfg["vocab_tokens"]),
        seed=cfg["seed"],
    )
    arrays = {name: _array_from_json(obj) for name, obj in payload["arrays"].items()}
    params = ModelParams(config=config, **arrays)
    reference = init_params(config)
    for name in params.array_fields():
        if getattr(params, name).shape != getattr(reference, name).shape:
            raise ValueError(f"checkpoint array {name} has inconsistent shape")
    return params, payload.get("extra", {})
