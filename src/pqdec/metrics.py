"""Manhattan distances on F_q^n via the p-ary integer images.

Vectors are (len, m) digit rows as :func:`pqdec.gf.digit_rows` returns
them; a ``FieldElement`` vector goes through it first.  Distances are
computed between the integer images of coordinates
(:func:`pqdec.gf.digit_images`) and returned as exact Python ints.  The
Manhattan distance is NOT shift invariant on F_q (e.g. q prime:
|.(p-1) - 0| = p-1 but shifting both by 1 gives |0 - 1| = 1), so code
distances must be taken over all pairs, not norms of differences.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch
from .gf import Field, digit_images


def manhattan_dist(field: Field, x: np.ndarray, y: np.ndarray) -> int:
    """Sum over coordinates of |image(x_i) - image(y_i)| for digit rows over ``field``."""
    if len(x) != len(y):
        raise LengthMismatch(f"vector lengths {len(x)} vs {len(y)}")
    return int(np.abs(digit_images(x, field.p) - digit_images(y, field.p)).sum())


def manhattan_norm(field: Field, x: np.ndarray) -> int:
    """Manhattan distance to the zero vector, i.e. the sum of images."""
    return int(digit_images(x, field.p).sum())
