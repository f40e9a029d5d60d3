"""Persistent partition-sum cache: one append-friendly text file.

Each record is a line ``<cf-hash> <t-bits> <n> <value-bits>`` where the floats
are stored via ``float.hex`` so a round trip reproduces the exact bits.
Corrupted lines (a torn append, manual edits) are skipped with a warning;
everything before them stays usable.  The warning goes to the
``selfaffine.cache`` logger, and ``logging`` is imported only to send it;
with no handler configured, logging's last-resort handler prints the bare
message on stderr.

A cached sum carries the last bits of the numpy ``exp``/``log`` kernels of
the host that wrote it, and the key does not name the host.  So a warm run
writes the artifacts of a cold one only on the host and numpy build that
wrote the file.
"""

from __future__ import annotations

from pathlib import Path

_HEADER = "# selfaffine pressure cache v1"

Key = tuple[str, float, int]


class PartitionSumCache:
    """In-memory map keyed by (cf hash, exact t bits, level), optionally
    backed by an append-only file."""

    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self._mem: dict[Key, float] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        for lineno, line in enumerate(self.path.read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) != 4:
                    raise ValueError("wrong field count")
                cf_hash, t_hex, n_str, v_hex = parts
                key = (cf_hash, float.fromhex(t_hex), int(n_str))
                self._mem[key] = float.fromhex(v_hex)
            except ValueError:
                import logging  # only here: a run without a torn record never loads it

                logging.getLogger(__name__).warning(
                    "ignoring corrupted cache record at %s:%d", self.path, lineno
                )

    def get(self, key: Key) -> float | None:
        return self._mem.get(key)

    def put(self, key: Key, value: float) -> None:
        if key in self._mem and self._mem[key] == value:
            return
        self._mem[key] = value
        if self.path is not None:
            is_new = not self.path.exists()
            if is_new:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                if is_new:
                    fh.write(_HEADER + "\n")
                cf_hash, t, n = key
                fh.write(f"{cf_hash} {float(t).hex()} {int(n)} {float(value).hex()}\n")

    def __len__(self) -> int:
        return len(self._mem)
