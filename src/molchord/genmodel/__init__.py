"""Conditional autoregressive SMILES generator at desk scale."""

from .features import (
    DEFAULT_STRUCT_TOKENS,
    PocketFeatures,
    complex_feature_vector,
    featurize_pocket,
    ligand_feature_vector,
)
from .interleave import InterleavedSequence, build_interleaved
from .network import (
    AdapterCache,
    Epsilon,
    PackedCache,
    ShapeMismatch,
    adapter_backward,
    adapter_forward,
    sequence_forward,
    sequences_backward,
    sequences_forward,
    vae_backward,
    vae_forward,
)
from .params import (
    SFT_TRAINABLE,
    ModelConfig,
    ModelParams,
    init_params,
    load_params,
    save_params,
)
from .sampling import (
    SampleResult,
    check_sampling,
    nucleus_distribution,
    sample_many,
    sample_seed,
    sample_unique,
)
from .vocab import BOS, EOS, PAD, TokenOutOfVocab, Vocabulary, make_vocabulary

__all__ = [
    "AdapterCache",
    "BOS",
    "DEFAULT_STRUCT_TOKENS",
    "EOS",
    "Epsilon",
    "InterleavedSequence",
    "ModelConfig",
    "ModelParams",
    "PAD",
    "PackedCache",
    "PocketFeatures",
    "SFT_TRAINABLE",
    "SampleResult",
    "ShapeMismatch",
    "TokenOutOfVocab",
    "Vocabulary",
    "adapter_backward",
    "adapter_forward",
    "build_interleaved",
    "check_sampling",
    "complex_feature_vector",
    "featurize_pocket",
    "init_params",
    "ligand_feature_vector",
    "load_params",
    "make_vocabulary",
    "nucleus_distribution",
    "sample_many",
    "sample_seed",
    "sample_unique",
    "save_params",
    "sequence_forward",
    "sequences_backward",
    "sequences_forward",
    "vae_backward",
    "vae_forward",
]
