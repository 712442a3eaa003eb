"""Object store: a finite-support map from object names to integers.

Matches the paper's formal model (Section 2.1): "a database D is a map
from objects to integers that has finite support."  Objects never
written read as 0.  Writing 0 keeps the entry (the distinction is
invisible to readers but keeps update journals simple).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping


@dataclass
class KVStore:
    """In-memory integer object store."""

    data: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, int]) -> "KVStore":
        return cls(data=dict(mapping))

    def get(self, name: str) -> int:
        return self.data.get(name, 0)

    def put(self, name: str, value: int) -> None:
        if not isinstance(value, int):
            raise TypeError(f"object values are integers, got {value!r}")
        self.data[name] = value

    def delete(self, name: str) -> None:
        """Reset an object to the default (drop from the support)."""
        self.data.pop(name, None)

    def support(self) -> set[str]:
        return set(self.data)

    def snapshot(self) -> dict[str, int]:
        return dict(self.data)

    def restore(self, snapshot: Mapping[str, int]) -> None:
        self.data = dict(snapshot)

    def apply(self, updates: Mapping[str, int]) -> None:
        for name, value in updates.items():
            self.put(name, value)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self.data.items())

    def __contains__(self, name: str) -> bool:
        return name in self.data

    def __eq__(self, other: object) -> bool:
        """Semantic equality: equal as total maps with 0 defaults."""
        if isinstance(other, KVStore):
            other_data = other.data
        elif isinstance(other, Mapping):
            other_data = dict(other)
        else:
            return NotImplemented
        keys = set(self.data) | set(other_data)
        return all(self.data.get(k, 0) == other_data.get(k, 0) for k in keys)
