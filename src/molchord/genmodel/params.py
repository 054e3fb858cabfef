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
_CONFIG_INTS = ("d", "d_feat", "window", "n_struct_tokens", "seed")


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

    def zero_grads(self) -> dict[str, np.ndarray]:
        """Zero gradients for ``SFT_TRAINABLE``, in sorted field order."""
        return {name: np.zeros_like(getattr(self, name)) for name in sorted(SFT_TRAINABLE)}


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each array field's shape under ``config``, in field order."""
    d, f, v = config.d, config.d_feat, len(config.vocab_tokens)
    return {
        "token_embedding": (v, d),
        "adapter_gate_w": (d, f), "adapter_gate_b": (d,),
        "adapter_up_w": (d, f), "adapter_up_b": (d,),
        "adapter_down_w": (d, d), "adapter_down_b": (d,),
        "vae_mu_w": (f, f), "vae_mu_b": (f,),
        "vae_logvar_w": (f, f), "vae_logvar_b": (f,),
        "lm_w1": (d, config.lm_input_dim), "lm_b1": (d,),
        "lm_w2": (d, d), "lm_b2": (d,),
        "lm_out_w": (v, d), "lm_out_b": (v,),
    }


# Token embeddings stay frozen at their seeded initialization in every stage;
# the first dense layer can absorb any linear re-encoding of them.
SFT_TRAINABLE = frozenset(param_shapes(ModelConfig())) - {"token_embedding"}
# drawn at initialization (in field order, after the token embeddings) and
# scaled by 1/sqrt(fan-in); every other array but the embeddings starts at zero
_DENSE = ("adapter_gate_w", "adapter_up_w", "adapter_down_w", "lm_w1", "lm_w2")


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded initialization; variational projections start at zero so the
    injected noise is exactly standard normal before any training."""
    rng = np.random.default_rng(config.seed)
    arrays = {}
    for name, shape in param_shapes(config).items():
        if name == "token_embedding":
            arrays[name] = rng.standard_normal(shape) * 0.5
        elif name in _DENSE:
            arrays[name] = rng.standard_normal(shape) / np.sqrt(shape[1])
        else:
            arrays[name] = np.zeros(shape)
    return ModelParams(config=config, **arrays)


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


def load_params(path: str | Path) -> ModelParams:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("checkpoint is not a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    stored_hash = payload.pop("content_hash", None)
    if stored_hash != _payload_digest(payload):
        raise ValueError(f"checkpoint content hash mismatch in {path}")
    cfg, arrays = payload.get("config"), payload.get("arrays")
    if not (
        isinstance(cfg, dict)
        and all(type(cfg.get(name)) is int for name in _CONFIG_INTS)
        and isinstance(cfg.get("vocab_tokens"), list)
        and all(isinstance(token, str) for token in cfg["vocab_tokens"])
    ):
        raise ValueError("checkpoint config is not the model's integers and vocabulary")
    config = ModelConfig(
        **{name: cfg[name] for name in _CONFIG_INTS}, vocab_tokens=tuple(cfg["vocab_tokens"])
    )
    # shapes from the config alone: a config that names a huge model allocates nothing
    shapes = param_shapes(config)
    if not isinstance(arrays, dict) or sorted(arrays) != sorted(shapes):
        raise ValueError("checkpoint arrays are not the model's fields")
    for name, shape in shapes.items():
        obj = arrays[name]
        if not (isinstance(obj, dict) and obj.get("shape") == list(shape)
                and isinstance(obj.get("data"), str)):
            raise ValueError(f"checkpoint array {name} has inconsistent shape")
    return ModelParams(config=config, **{name: _array_from_json(arrays[name]) for name in shapes})
