"""Manhattan distances on F_q^n via the p-ary integer images.

Distances are computed between the integer images of coordinates and
returned as exact Python ints.  The Manhattan distance is NOT shift
invariant on F_q (e.g. q prime: |.(p-1) - 0| = p-1 but shifting both by
1 gives |0 - 1| = 1), so code distances must be taken over all pairs,
not norms of differences.
"""

from __future__ import annotations

from typing import Sequence

from .errors import LengthMismatch
from .gf import FieldElement, require_field


def manhattan_dist(x: Sequence[FieldElement], y: Sequence[FieldElement]) -> int:
    """Sum over coordinates of |image(x_i) - image(y_i)|, every coordinate over one field."""
    if len(x) != len(y):
        raise LengthMismatch(f"vector lengths {len(x)} vs {len(y)}")
    if x:
        require_field(x[0].field, (*x, *y), "vector entry")
    return sum(abs(a.image - b.image) for a, b in zip(x, y))


def manhattan_norm(x: Sequence[FieldElement]) -> int:
    """Manhattan distance to the zero vector, i.e. the sum of images."""
    return sum(a.image for a in x)
