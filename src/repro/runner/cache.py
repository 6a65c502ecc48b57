"""Content-addressed, on-disk result cache with self-verifying reads.

Each completed run is stored as ``<root>/<spec-hash>.json`` — the full
:class:`~repro.runner.runner.RunResult` envelope, byte-for-byte — alongside
a ``<spec-hash>.json.sha256`` sidecar holding the SHA-256 of those exact
bytes.  The spec hash covers everything that can change the output
(including fault-plan *contents* and calibration-curve knots), so a repeated
sweep skips every already-computed cell.  The cache is the one record of
which cells are done: a sweep's journal holds only its grid.

The cache owns the bytes and parses none of them; the Runner parses each
hit once and treats an entry that is not its spec's envelope (misfiled, not
a JSON object) as a miss, which its next ``put`` overwrites.

Crash safety:

* **writes** are atomic (temp file + ``os.replace``) for both the entry and
  its sidecar, so a killed sweep never leaves a truncated entry under a
  final name;
* **reads** verify the stored bytes against the sidecar checksum; an entry
  whose bytes don't hash to the recorded digest (bit rot, hand editing) is
  **evicted** — deleted with a warning through ``on_corrupt`` — and
  reported as a miss so the run recomputes;
* an entry without a sidecar is a plain miss and is left alone: a
  concurrent ``put`` may be between its two writes.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional

__all__ = ["DEFAULT_CACHE_DIR", "ResultCache"]

DEFAULT_CACHE_DIR = ".runcache"

_SIDECAR_SUFFIX = ".sha256"


def atomic_write(final_path: str, data: bytes) -> None:
    """Write ``data`` to ``final_path`` through a temp file in the same
    directory and ``os.replace``: readers see the old file or the new one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(final_path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, final_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """A directory of ``<spec-hash>.json`` result envelopes.

    ``on_corrupt(spec_hash, reason)`` is called once per evicted entry; the
    runner wires it to a ``cache_corrupt`` warning event."""

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        *,
        on_corrupt: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.on_corrupt = on_corrupt

    def path(self, spec_hash: str) -> str:
        return os.path.join(self.root, f"{spec_hash}.json")

    def sidecar_path(self, spec_hash: str) -> str:
        return self.path(spec_hash) + _SIDECAR_SUFFIX

    # -- internal helpers --------------------------------------------------

    def _evict(self, spec_hash: str, reason: str) -> None:
        """Delete a corrupt entry (and sidecar) and report it."""
        for path in (self.path(spec_hash), self.sidecar_path(spec_hash)):
            try:
                os.unlink(path)
            except OSError:
                pass
        self.evictions += 1
        if self.on_corrupt is not None:
            self.on_corrupt(spec_hash, reason)

    def _sidecar(self, spec_hash: str) -> Optional[str]:
        """The digest the sidecar records, or None when there is none."""
        try:
            with open(self.sidecar_path(spec_hash), "rb") as fh:
                return fh.read().decode("ascii", "replace").strip()
        except OSError:
            return None

    @staticmethod
    def _mismatch(data: bytes, expected: str) -> Optional[str]:
        """An eviction reason if ``data`` does not hash to ``expected``."""
        actual = hashlib.sha256(data).hexdigest()
        if actual == expected:
            return None
        return f"checksum mismatch (stored {expected[:12]}…, actual {actual[:12]}…)"

    # -- public API --------------------------------------------------------

    def get(self, spec_hash: str) -> Optional[bytes]:
        """The exact bytes stored for ``spec_hash``, or None on a miss.

        Returning the raw bytes (rather than a parsed object) is the cache's
        contract: a hit is byte-identical to what the original run wrote.
        Bytes are checksum-verified against the sidecar before being served;
        a corrupt entry is evicted and reported as a miss, an entry without
        a sidecar is a miss and stays."""
        try:
            with open(self.path(spec_hash), "rb") as fh:
                data = fh.read()
        except OSError:
            self.misses += 1
            return None
        expected = self._sidecar(spec_hash)
        if expected is None:
            self.misses += 1
            return None
        reason = self._mismatch(data, expected)
        if reason is not None:
            self._evict(spec_hash, reason)
            self.misses += 1
            return None
        self.hits += 1
        return data

    def put(self, spec_hash: str, data: bytes) -> None:
        """Atomically store ``data`` (and its checksum) for ``spec_hash``.

        The entry lands before the sidecar, and any stale sidecar is removed
        first, so a crash between the two writes never pairs new bytes with
        an old digest: it leaves an entry without a sidecar, a plain miss
        that the next ``put`` overwrites."""
        os.makedirs(self.root, exist_ok=True)
        try:
            os.unlink(self.sidecar_path(spec_hash))
        except OSError:
            pass
        atomic_write(self.path(spec_hash), data)
        digest = hashlib.sha256(data).hexdigest()
        atomic_write(self.sidecar_path(spec_hash), (digest + "\n").encode("ascii"))

    def verify(self) -> Dict[str, Any]:
        """Scan every entry, evicting corrupt ones.

        Returns ``{"checked": n, "ok": n, "evicted": [(hash, reason), ...],
        "unverified": [hash, ...]}`` where ``unverified`` lists entries
        without a checksum sidecar (left in place)."""
        evicted: List[Any] = []
        unverified: List[str] = []
        checked = 0
        for spec_hash in self.entries():
            checked += 1
            try:
                with open(self.path(spec_hash), "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                self._evict(spec_hash, f"unreadable ({exc.__class__.__name__})")
                evicted.append((spec_hash, "unreadable"))
                continue
            expected = self._sidecar(spec_hash)
            if expected is None:
                unverified.append(spec_hash)
                continue
            reason = self._mismatch(data, expected)
            if reason is not None:
                self._evict(spec_hash, reason)
                evicted.append((spec_hash, reason))
        return {
            "checked": checked,
            "ok": checked - len(evicted),
            "evicted": evicted,
            "unverified": unverified,
        }

    def entries(self) -> List[str]:
        """Spec hashes currently cached (sorted)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json")
        )

    def size_bytes(self) -> int:
        total = 0
        for spec_hash in self.entries():
            try:
                total += os.path.getsize(self.path(spec_hash))
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every entry (and sidecar); returns how many entries were
        removed (sidecars don't count)."""
        removed = 0
        for spec_hash in self.entries():
            try:
                os.unlink(self.path(spec_hash))
                removed += 1
            except OSError:
                pass
            try:
                os.unlink(self.sidecar_path(spec_hash))
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return len(self.entries())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache root={self.root!r} entries={len(self)} "
            f"hits={self.hits} misses={self.misses} evictions={self.evictions}>"
        )
