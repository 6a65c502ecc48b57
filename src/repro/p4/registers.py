"""Stateful register arrays, the P4 ``register`` extern.

The paper's key INT design choice (Section III-A) is to store telemetry in
switch registers — one register per INT parameter per port — instead of
appending INT metadata to every data packet.  Registers are read, maxed, and
reset by the INT program; this module provides the storage with the bounds
checking a real target enforces at compile time.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import DataPlaneError

__all__ = ["RegisterArray"]


class RegisterArray:
    """Fixed-size array of integer registers, indexed like P4's
    ``register<bit<W>>(size) name``."""

    def __init__(self, name: str, size: int, initial: int = 0) -> None:
        if size < 1:
            raise DataPlaneError(f"register array {name!r}: size must be >= 1, got {size}")
        self.name = name
        self.size = size
        self.initial = initial
        self._values: List[int] = [initial] * size
        self.reads = 0
        self._writes = 0
        self.resets = 0
        # The writes of a data-plane fold that does not count them as it
        # goes (fold_max): its program reads them off the port books.
        self.fold_writes: Optional[Callable[[], int]] = None

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise DataPlaneError(
                f"register array {self.name!r}: index {index} out of range [0, {self.size})"
            )

    @property
    def writes(self) -> int:
        """Per-index writes: those counted as they happen (:meth:`write`,
        :meth:`max_update`, :meth:`read_and_reset`) plus
        :attr:`fold_writes`'s."""
        fold_writes = self.fold_writes
        if fold_writes is None:
            return self._writes
        return self._writes + fold_writes()

    def read(self, index: int) -> int:
        self._check(index)
        self.reads += 1
        return self._values[index]

    def write(self, index: int, value: int) -> None:
        self._check(index)
        self._writes += 1
        self._values[index] = value

    def max_update(self, index: int, value: int) -> int:
        """``reg[i] = max(reg[i], value)`` — the INT program's per-packet
        queue-depth update.  Returns the stored value."""
        stored = self.fold_max(index, value)
        self._writes += 1
        return stored

    def fold_max(self, index: int, value: int) -> int:
        """:meth:`max_update` without the count: the per-packet fold, whose
        writes the owning program supplies through :attr:`fold_writes`."""
        self._check(index)
        cur = self._values[index]
        if value > cur:
            self._values[index] = value
            return value
        return cur

    def read_and_reset(self, index: int) -> int:
        """Atomically read then restore the initial value — the probe
        collection semantics of Section III-A ('values in device registers
        are reset to initial value once they are added to the probe')."""
        self._check(index)
        self.reads += 1
        self._writes += 1
        value = self._values[index]
        self._values[index] = self.initial
        return value

    def reset(self) -> None:
        """Restore every register to its initial value — the whole-array
        wipe a target performs on reboot (used by fault injection's
        ``register_wipe``).  Counted separately from per-index writes.
        Resets in place: compiled fast-path closures capture the backing
        list, so its identity must survive a wipe."""
        self._values[:] = [self.initial] * self.size
        self.resets += 1

    def snapshot(self) -> List[int]:
        """Copy of all register values (test/inspection helper, not a data
        plane operation)."""
        return list(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RegisterArray {self.name} size={self.size}>"
