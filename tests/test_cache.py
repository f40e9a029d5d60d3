import logging

import pytest

from selfaffine import PartitionSumCache


def test_put_get_identical_bits(tmp_path):
    cache = PartitionSumCache(tmp_path / "cache.txt")
    awkward = [(-0.0, 1), (1e-300, 2), (0.1 + 0.2, 3), (-123.4567890123456789, 4)]
    for value, n in awkward:
        cache.put(("deadbeef", 1.37, n), value)
    for value, n in awkward:
        got = cache.get(("deadbeef", 1.37, n))
        assert got == value
        assert float(got).hex() == float(value).hex()


def test_cold_get_misses():
    cache = PartitionSumCache()
    assert cache.get(("cafe", 1.0, 3)) is None


def test_persistence_across_reopen(tmp_path):
    path = tmp_path / "cache.txt"
    first = PartitionSumCache(path)
    first.put(("aaaa", 0.5, 2), -1.25)
    first.put(("bbbb", 2.0, 7), 3.5)
    second = PartitionSumCache(path)
    assert len(second) == 2
    assert second.get(("aaaa", 0.5, 2)) == -1.25
    assert second.get(("bbbb", 2.0, 7)) == 3.5


def test_corrupted_trailing_record(tmp_path, caplog):
    path = tmp_path / "cache.txt"
    cache = PartitionSumCache(path)
    cache.put(("aaaa", 0.5, 2), -1.25)
    cache.put(("bbbb", 2.0, 7), 3.5)
    with path.open("a") as fh:
        fh.write("cccc 0x1.0p+0 9 trunca")  # torn append
    with caplog.at_level(logging.WARNING, logger="selfaffine.cache"):
        reopened = PartitionSumCache(path)
    assert "corrupted" in caplog.text
    assert reopened.get(("aaaa", 0.5, 2)) == -1.25
    assert reopened.get(("bbbb", 2.0, 7)) == 3.5
    assert reopened.get(("cccc", 1.0, 9)) is None


def test_duplicate_put_is_idempotent(tmp_path):
    path = tmp_path / "cache.txt"
    cache = PartitionSumCache(path)
    for _ in range(5):
        cache.put(("aaaa", 0.5, 2), -1.25)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 1


def test_file_in_new_directory(tmp_path):
    path = tmp_path / "new" / "cache.txt"
    PartitionSumCache(path).put(("aaaa", 0.5, 2), -1.25)
    assert PartitionSumCache(path).get(("aaaa", 0.5, 2)) == -1.25


@pytest.mark.parametrize("record", ["aaaa 0x1.0p+0 2", "aaaa 0x1.0p+0 2 0x1.0p+0 extra"])
def test_record_with_wrong_field_count_is_skipped(tmp_path, caplog, record):
    path = tmp_path / "cache.txt"
    path.write_text(f"# selfaffine pressure cache v1\n{record}\nbbbb 0x1.0p+1 7 0x1.cp+1\n")
    with caplog.at_level(logging.WARNING, logger="selfaffine.cache"):
        cache = PartitionSumCache(path)
    assert caplog.messages == [f"ignoring corrupted cache record at {path}:2"]
    assert len(cache) == 1 and cache.get(("bbbb", 2.0, 7)) == 3.5


@pytest.mark.parametrize(
    "record",
    ["aaaa 0x1.0p+0 2 nan", "aaaa 0x1.0p+0 2 inf", "aaaa 0x1.0p+0 2 -inf", "aaaa nan 2 0x1.0p+0"],
)
def test_non_finite_record_is_skipped(tmp_path, caplog, record):
    """A partition sum is finite, so a non-finite ``t`` or value is a
    corrupted record, never a cached result."""
    path = tmp_path / "cache.txt"
    path.write_text(f"# selfaffine pressure cache v1\n{record}\nbbbb 0x1.0p+1 7 0x1.cp+1\n")
    with caplog.at_level(logging.WARNING, logger="selfaffine.cache"):
        cache = PartitionSumCache(path)
    assert caplog.messages == [f"ignoring corrupted cache record at {path}:2"]
    assert len(cache) == 1 and cache.get(("bbbb", 2.0, 7)) == 3.5
