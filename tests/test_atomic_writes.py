"""Artifacts are replaced whole: a write that fails halfway leaves the old
file as it was and no temp file beside it."""

import numpy as np
import pytest

from molchord import cli, store
from molchord.genmodel import ModelConfig, init_params, save_params
from molchord.scorers import GenerationRecord, dump_records


class _DiskFull(OSError):
    pass


def _failing_open(path, mode, encoding=None):
    """A real temp file that takes half of the first write, then fails."""
    real = open(path, mode, encoding=encoding)
    real_write = real.write

    def write(text):
        real_write(text[: max(1, len(text) // 2)])
        real.flush()
        raise _DiskFull("no space left on device")

    real.write = write
    return real


def _params(seed):
    params = init_params(ModelConfig(d=8, d_feat=8, window=2, n_struct_tokens=2))
    params.lm_w1[:] = np.random.default_rng(seed).standard_normal(params.lm_w1.shape)
    return params


WRITERS = {
    "json": lambda path, v: cli._write_json(path, {"value": v, "rows": list(range(50))}),
    "jsonl": lambda path, v: cli._write_jsonl(path, ({"row": i, "v": v} for i in range(50))),
    "text": lambda path, v: cli._write_text(path, f"report {v}\n" * 50),
    "records": lambda path, v: dump_records(
        path, [GenerationRecord(pocket_id="p", smiles="C" * (i + 1), logprob=-v) for i in range(50)]
    ),
    "checkpoint": lambda path, v: save_params(path, _params(v), extra={"step": v}),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 1)
    old = path.read_bytes()
    monkeypatch.setattr(store, "open", _failing_open, raising=False)
    with pytest.raises(_DiskFull):
        WRITERS[writer](path, 2)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_records_that_raise_midway_keep_the_old_file(tmp_path):
    path = tmp_path / "generations.jsonl"
    dump_records(path, [GenerationRecord(pocket_id="p", smiles="CCO")])
    old = path.read_bytes()

    def records():
        yield GenerationRecord(pocket_id="p", smiles="CCN")
        raise RuntimeError("stage killed")

    with pytest.raises(RuntimeError):
        dump_records(path, records())
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["generations.jsonl"]


def test_a_completed_write_replaces_the_file(tmp_path):
    path = tmp_path / "artifact.json"
    WRITERS["json"](path, 1)
    WRITERS["json"](path, 2)
    assert b'"value": 2' in path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
