"""Integer partitions and the statistics attached to them.

Partitions are immutable, ordered first by size and then reverse-
lexicographically on the parts, so that within each size the enumeration
starts at (n) and ends at (1,...,1).  This total order refines dominance and
is used everywhere as the canonical listing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial

from .qcoeff import QPoly

__all__ = [
    "Partition",
    "partitions",
    "dominance_leq",
    "parse_partition",
]


@functools.total_ordering
@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ps = tuple(int(p) for p in self.parts)
        if any(p <= 0 for p in ps):
            raise ValueError(f"parts must be positive: {ps}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError(f"parts must be nonincreasing: {ps}")
        object.__setattr__(self, "parts", ps)

    # -- container protocol --------------------------------------------------

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def sort_key(self) -> tuple:
        return (self.size, tuple(-p for p in self.parts))

    def __lt__(self, other: "Partition") -> bool:
        return self.sort_key() < other.sort_key()

    # -- statistics ----------------------------------------------------------

    def multiplicity(self, i: int) -> int:
        """Number of parts equal to i (i >= 1)."""
        return sum(1 for p in self.parts if p == i)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(tuple(sum(1 for p in self.parts if p >= i) for i in range(1, self.parts[0] + 1)))

    def n_stat(self) -> int:
        """n(lambda) = sum (i-1)*lambda_i = sum of binomial(lambda'_j, 2)."""
        return sum(i * p for i, p in enumerate(self.parts))

    def z_stat(self) -> int:
        """Centralizer order of a permutation with this cycle type."""
        z = 1
        for v, m in self.multiplicities().items():
            z *= v**m * factorial(m)
        return z

    def b_poly(self) -> QPoly:
        """b_lambda(q) = prod over part values v of (1-q)(1-q^2)...(1-q^{m_v})."""
        out = QPoly.one()
        for m in self.multiplicities().values():
            for i in range(1, m + 1):
                out = out * (QPoly.one() - QPoly.monomial(i))
        return out

    def class_size(self) -> int:
        return factorial(self.size) // self.z_stat()

    # -- box moves -----------------------------------------------------------

    def add_box(self, j: int) -> "Partition":
        """Grow row j by one (1-indexed; j = length+1 starts a new row)."""
        if not 1 <= j <= len(self.parts) + 1:
            raise ValueError(f"row {j} out of range for {self}")
        ps = list(self.parts)
        if j == len(ps) + 1:
            ps.append(1)
        else:
            ps[j - 1] += 1
        return Partition(tuple(sorted(ps, reverse=True)))

    def remove_box(self, j: int) -> "Partition":
        """Shrink row j by one (1-indexed); a part reaching 0 is dropped."""
        if not 1 <= j <= len(self.parts):
            raise ValueError(f"row {j} out of range for {self}")
        ps = list(self.parts)
        ps[j - 1] -= 1
        return Partition(tuple(p for p in sorted(ps, reverse=True) if p > 0))

    def removable_rows(self) -> tuple[int, ...]:
        """Rows j where remove_box leaves a partition shape (corner rows)."""
        out = []
        for j in range(1, len(self.parts) + 1):
            if j == len(self.parts) or self.parts[j - 1] > self.parts[j]:
                out.append(j)
        return tuple(out)

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams."""
        if len(other.parts) > len(self.parts):
            return False
        return all(s >= o for s, o in zip(self.parts, other.parts))

    # -- presentation ----------------------------------------------------------

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def to_json(self) -> list[int]:
        return list(self.parts)

    @staticmethod
    def from_json(obj) -> "Partition":
        return Partition(tuple(int(p) for p in obj))


def parse_partition(text: str) -> Partition:
    """Parse the comma form, e.g. "3,1,1"; "" is the empty partition."""
    text = text.strip()
    if not text:
        return Partition()
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition text: {text!r}") from None
    return Partition(parts)


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """True iff |lam| = |mu| and every partial sum of lam is <= that of mu."""
    if lam.size != mu.size:
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam.parts[i] if i < len(lam.parts) else 0
        b += mu.parts[i] if i < len(mu.parts) else 0
        if a > b:
            return False
    return True


@functools.lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in canonical order: (n) first, (1,...,1) last."""
    if n < 0:
        raise ValueError("partitions of a negative integer")

    def gen(rest: int, maxpart: int):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - k, k):
                yield (k,) + tail

    return tuple(Partition(p) for p in gen(n, n if n else 1))
