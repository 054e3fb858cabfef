import contextlib
import os
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import molchord
from molchord.molgraph import SmilesFeatureWarning, canonicalize
from molchord.store import CACHE_DIR_ENV
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


@pytest.fixture(autouse=True)
def _fresh_canonicalize_memo():
    """Start every test with an empty ``canonicalize`` memo, so a test that
    patches the leaf cap or ``canonical_smiles`` sees its patch whatever ran
    before it."""
    canonicalize.cache_clear()
    yield
    canonicalize.cache_clear()


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path_factory, monkeypatch):
    """Point ``$MOLCHORD_CACHE_DIR`` at a directory of each test's own, so a
    command whose config names no ``[dock] cache_dir`` neither writes
    ``.molchord_cache`` into the checkout nor reads a canonical entry that
    an earlier test wrote before patching the canonicalizer. A test of the
    default directory unsets the variable itself."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("cache")))


@pytest.fixture(scope="session")
def small_corpus() -> list[str]:
    """200 valid molecules with at most 12 heavy atoms."""
    return smiles_corpus(200, seed=101, min_heavy=3, max_heavy=12)


@pytest.fixture(scope="session")
def large_corpus() -> list[str]:
    """3000 valid molecules with 3 to 40 heavy atoms, made once per session
    for the tests that check every one of them against an oracle."""
    return smiles_corpus(3000, seed=5, min_heavy=3, max_heavy=40)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports this checkout's
    molchord (and uses the test's own cache directory)."""
    src = str(Path(molchord.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` raises ``TimeoutError`` inside the block
    once ``seconds`` of wall time pass, so a stalled call fails fast."""

    @contextlib.contextmanager
    def within(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
