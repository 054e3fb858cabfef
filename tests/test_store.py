"""The cache directory's one entry format: ``store.get`` and ``store.put``."""

import json
import sys
import threading

from molchord import store

NUMBER = store.Kind("command", "vina", lambda v: float(v) if type(v) in (int, float) else None)


def test_put_writes_identity_then_value_and_get_reads_it_back(tmp_path):
    path = tmp_path / "sub" / "entry.json"
    assert store.get(NUMBER, path, "line") is None
    assert store.put(NUMBER, path, "line", -7.25) == -7.25
    assert path.read_bytes() == json.dumps({"command": "line", "vina": -7.25}).encode()
    assert store.get(NUMBER, path, "line") == -7.25
    assert store.get(NUMBER, path, "other line") is None


def test_put_keeps_an_entry_that_counts_and_replaces_one_that_does_not(tmp_path):
    path = tmp_path / "entry.json"
    store.put(NUMBER, path, "line", -2)
    assert store.put(NUMBER, path, "line", -3.0) == -2.0  # kept; the caller compares
    for entry in ('{"command": "line", "vina": "-2"}', '{"command": "other", "vina": -2}', "[-2]"):
        path.write_text(entry)
        assert store.get(NUMBER, path, "line") is None
        assert store.put(NUMBER, path, "line", -3.0) == -3.0
        assert store.get(NUMBER, path, "line") == -3.0
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


def test_threads_that_put_one_entry_at_once_all_see_the_first_value(tmp_path):
    path = tmp_path / "entry.json"
    held = [None] * 16
    barrier = threading.Barrier(len(held))

    def writer(i):
        barrier.wait(timeout=10)
        held[i] = store.put(NUMBER, path, "line", float(i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(i,)) for i in range(len(held))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(set(held)) == 1 and held[0] == store.get(NUMBER, path, "line")
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
