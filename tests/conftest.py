import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import molchord
from molchord.molgraph import SmilesFeatureWarning
from molchord.synthetic import smiles_corpus

settings.register_profile(
    "ci",
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _quiet_feature_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmilesFeatureWarning)
        yield


@pytest.fixture(scope="session")
def small_corpus() -> list[str]:
    """200 valid molecules with at most 12 heavy atoms."""
    return smiles_corpus(200, seed=101, min_heavy=3, max_heavy=12)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports this checkout's molchord."""
    src = str(Path(molchord.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
