"""Integer partitions and the index-set correspondence used by the Pascal-minor expansion."""

from __future__ import annotations

from typing import Iterable, Iterator, Union


class Partition:
    """Weakly decreasing positive parts; trailing zeros are normalized away."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = [int(p) for p in parts]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        if any(p <= 0 for p in cleaned):
            raise ValueError(f"parts must be positive: {cleaned}")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {cleaned}")
        self.parts = tuple(cleaned)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def pad(self, length: int) -> tuple[int, ...]:
        """Parts extended with zeros to the given length."""
        if length < len(self.parts):
            raise ValueError(f"cannot pad {self} to length {length}")
        return self.parts + (0,) * (length - len(self.parts))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        # Reads past the length give 0, matching the padded convention.
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"


IndexSet = tuple[int, ...]


def as_index_set(indices: Iterable[int]) -> IndexSet:
    """Validate a strictly increasing sequence of nonnegative integers."""
    idx = tuple(int(i) for i in indices)
    if any(i < 0 for i in idx):
        raise ValueError(f"indices must be nonnegative: {idx}")
    if any(idx[j] >= idx[j + 1] for j in range(len(idx) - 1)):
        raise ValueError(f"indices must be strictly increasing: {idx}")
    return idx


def index_set_of(lam: Partition, r: int) -> IndexSet:
    """The unique r-element index set whose partition is `lam`."""
    if r < 1:
        raise ValueError("need a positive set size")
    if lam.length > r:
        raise ValueError(f"{lam} has more than {r} parts")
    padded = lam.pad(r)
    return tuple(padded[r - j] + (j - 1) for j in range(1, r + 1))


def enumerate_partitions(
    d: int, max_len: int, max_part: Union[int, None] = None
) -> list[Partition]:
    """All partitions of d with at most max_len parts, each at most max_part.

    Descending lexicographic order, so leading-term peeling of a symmetric
    polynomial visits candidates in a single forward pass.
    """
    if d < 0:
        raise ValueError("weight must be nonnegative")
    if max_len < 1:
        raise ValueError("need a positive length bound")
    first_cap = d if max_part is None else min(d, max_part)

    def rec(remaining: int, slots: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        # The largest part must cover at least an even share of what is left.
        low = -(-remaining // slots)
        for part in range(min(cap, remaining), low - 1, -1):
            for tail in rec(remaining - part, slots - 1, part):
                yield (part,) + tail

    return [Partition(t) for t in rec(d, max_len, first_cap)]
