"""Model parameters, initialization, and the checkpoint file format.

Every array of a model is a view of one contiguous float64 buffer, laid out
in ``param_shapes`` order; gradients and Adam's moments share that layout
without the token embeddings, which come first. A checkpoint is versioned
JSON holding the config, the buffer as base64 of its little-endian bytes (so
a reload reproduces every value bit for bit, on any platform), free-form
``extra``, and a content hash over the canonical payload against corruption.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..hashutil import sha256
from ..store import atomic_write
from .features import PocketFeatures, featurize_pocket
from .vocab import SMILES_CHARS, Vocabulary, make_vocabulary

CHECKPOINT_VERSION = 2
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


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each array field's shape under ``config``, in buffer order."""
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


def _views(buffer: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive slices of ``buffer``, one per shape, in the given order."""
    parts = np.split(buffer, np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


class Grads(dict):
    """Gradients by field name, in sorted name order: views of one buffer,
    ``flat``, laid out like ``ModelParams.trainable``."""

    def __init__(self, flat: np.ndarray, views: dict[str, np.ndarray]):
        super().__init__(sorted(views.items()))
        self.flat = flat


class ModelParams:
    """A model's ``config``, its buffer ``flat``, and one view of the buffer
    per array, named and shaped as in ``param_shapes`` (``params.lm_w1``)."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        self.config = config
        self.flat = flat
        self.__dict__.update(_views(flat, param_shapes(config)))

    def array_fields(self) -> tuple[str, ...]:
        return tuple(param_shapes(self.config))

    @property
    def trainable(self) -> np.ndarray:
        """The buffer after the frozen token embeddings: ``SFT_TRAINABLE``."""
        return self.flat[self.token_embedding.size :]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())

    def zero_grads(self) -> Grads:
        """Zero gradients for ``SFT_TRAINABLE``, views of one buffer."""
        flat = np.zeros_like(self.trainable)
        shapes = param_shapes(self.config)
        del shapes["token_embedding"]
        return Grads(flat, _views(flat, shapes))


# Token embeddings stay frozen at their seeded initialization in every stage;
# the first dense layer can absorb any linear re-encoding of them.
SFT_TRAINABLE = frozenset(param_shapes(ModelConfig())) - {"token_embedding"}
# drawn at initialization (in field order, after the token embeddings) and
# scaled by 1/sqrt(fan-in); every other array but the embeddings starts at zero
_DENSE = ("adapter_gate_w", "adapter_up_w", "adapter_down_w", "lm_w1", "lm_w2")


def _size(config: ModelConfig) -> int:
    return sum(map(math.prod, param_shapes(config).values()))


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded initialization; variational projections start at zero so the
    injected noise is exactly standard normal before any training."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config, np.zeros(_size(config)))
    for name, shape in param_shapes(config).items():
        if name == "token_embedding":
            params.token_embedding[...] = rng.standard_normal(shape) * 0.5
        elif name in _DENSE:
            getattr(params, name)[...] = rng.standard_normal(shape) / np.sqrt(shape[1])
    return params


def _payload_digest(payload: dict) -> str:
    """SHA-256 of the payload's canonical JSON text, in which a params string
    stands as its own SHA-256: hashing that text costs less than escaping it."""
    if isinstance(payload.get("params"), str):
        payload = {**payload, "params": sha256(payload["params"].encode()).hexdigest()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def save_params(path: str | Path, params: ModelParams, extra: dict | None = None) -> None:
    config = params.config
    text = base64.b64encode(params.flat.astype("<f8", copy=False).tobytes()).decode()
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": {
            **{name: getattr(config, name) for name in _CONFIG_INTS},
            "vocab_tokens": list(config.vocab_tokens),
        },
        "extra": extra or {},
    }
    payload["content_hash"] = _payload_digest({**payload, "params": text})
    # base64 needs no JSON escape, so the params text goes in last as it is:
    # escaping it would take longer than everything else here
    head = json.dumps(payload, sort_keys=True)
    with atomic_write(path) as handle:
        handle.write(f'{head[:-1]}, "params": "{text}"}}\n')


def load_params(path: str | Path) -> ModelParams:
    payload = json.loads(Path(path).read_bytes())
    if not isinstance(payload, dict):
        raise ValueError("checkpoint is not a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    stored_hash = payload.pop("content_hash", None)
    if stored_hash != _payload_digest(payload):
        raise ValueError(f"checkpoint content hash mismatch in {path}")
    cfg, text = payload.get("config"), payload.get("params")
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
    # the size from the config alone, checked before decoding: a config that
    # names a huge model allocates nothing
    size = _size(config)
    wrong = ValueError(f"checkpoint params are not the base64 of {size} float64 values")
    if not (isinstance(text, str) and len(text) == 4 * -(-8 * size // 3)):
        raise wrong
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # a character outside the alphabet, or misplaced padding
        raise wrong from exc
    if len(raw) != 8 * size:
        raise wrong
    return ModelParams(config, np.frombuffer(raw, dtype="<f8").astype(np.float64))
