import hashlib
import json
import subprocess
import sys

import pytest

from molchord import hashutil
from molchord.hashutil import derive_seed, digest64, encode_part, sha256, sha256_file, stable_hash64


def test_known_values_frozen():
    # reproducibility across runs and machines hangs on these digests never
    # changing; freeze a few so an accidental algorithm change is loud
    assert stable_hash64("a") == 199874887815538950
    assert stable_hash64("pocket00001", 0) == 7632483472953103519
    assert stable_hash64(1, "x", b"y") == 15923027239651689655


def test_type_discrimination():
    assert stable_hash64("1") != stable_hash64(1)
    assert stable_hash64(b"ab", b"c") != stable_hash64(b"a", b"bc")
    assert stable_hash64(True) != stable_hash64(1)
    assert stable_hash64() != stable_hash64("")


def test_rejects_unhashable():
    with pytest.raises(TypeError):
        stable_hash64(3.5)  # floats are ambiguous; callers format them


def test_derive_seed_matches_hash():
    assert derive_seed("s", 1) == stable_hash64("s", 1)


# ``hashutil`` builds its hashes from CPython's built-in modules, not from
# ``hashlib``; the digests must be the same bits.
DATA = [b"", b"a", b"pocket00001", bytes(range(256)) * 300]


def _hashlib_digest64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def test_digest64_and_stable_hash64_equal_hashlibs_blake2b():
    for data in DATA:
        assert digest64(data) == _hashlib_digest64(data)
    for parts in [(), ("a",), ("pocket00001", 0), (1, "x", b"y"), (True, -3, "é")]:
        joined = b"".join(encode_part(part) for part in parts)
        assert stable_hash64(*parts) == _hashlib_digest64(joined)


def test_sha256_equals_hashlibs():
    for data in DATA:
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    digest = sha256()
    for data in DATA:
        digest.update(data)
    assert digest.digest() == hashlib.sha256(b"".join(DATA)).digest()


@pytest.mark.parametrize("size", [0, 3 * (1 << 16) + 123], ids=["empty", "multi-chunk"])
@pytest.mark.parametrize("prefix", [b"", b"prefix\0"], ids=["no-prefix", "prefix"])
def test_sha256_file_equals_hashlibs(tmp_path, size, prefix):
    path = tmp_path / "data.bin"
    path.write_bytes(bytes(i * 7 % 251 for i in range(size)))
    expected = hashlib.sha256(prefix + path.read_bytes()).hexdigest()
    assert sha256_file(path, prefix) == expected
    assert sha256_file(str(path), prefix=prefix) == expected


# ``hashlib`` itself takes blake2b from ``_blake2``, so the child imports it
# before hiding the built-in modules; ``hashutil`` must then fall back to it.
FALLBACK = """
import hashlib, json, sys
data = [bytes.fromhex(h) for h in json.load(sys.stdin)]
for name in ("_blake2", "_sha256", "_sha2"):
    sys.modules[name] = None
from molchord import hashutil
assert hashutil.blake2b is hashlib.blake2b and hashutil.sha256 is hashlib.sha256
print(json.dumps([
    [hashutil.digest64(d) for d in data],
    hashutil.stable_hash64(1, "x", b"y"),
    [hashutil.sha256(d).hexdigest() for d in data],
    hashutil.sha256_file(sys.argv[1], b"prefix"),
]))
"""


def test_hashes_without_the_builtin_modules_fall_back_to_hashlib(tmp_path, child_env):
    path = tmp_path / "data.bin"
    path.write_bytes(DATA[-1])
    proc = subprocess.run(
        [sys.executable, "-c", FALLBACK, str(path)],
        input=json.dumps([data.hex() for data in DATA]), env=child_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [digest64(data) for data in DATA],
        stable_hash64(1, "x", b"y"),
        [hashlib.sha256(data).hexdigest() for data in DATA],
        hashlib.sha256(b"prefix" + DATA[-1]).hexdigest(),
    ]
    # this process took the built-in ones
    assert hashutil.sha256 is not hashlib.sha256
