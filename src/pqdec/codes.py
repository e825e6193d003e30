"""Linear codes over F_q, instance generation, and brute-force oracles.

A code is given by its generator matrix A (n rows, k columns) over
F_{p^m}; codewords are A @ s for messages s in F_q^k.  The minimum
distance is the minimum *pairwise* Manhattan distance, never the
minimum norm: the metric is not shift invariant, so the two differ.

Message enumeration order is lexicographic on the tuple of coordinate
images (first coordinate most significant); every deterministic
tie-break below refers to that order.

Every application of A, single codewords and the whole codeword table
alike, goes through the code's cached expanded F_p operator, so no
scalar field product is formed; ``FieldElement`` is only the scalar
view at the interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadShape, BudgetExceeded, FieldMismatch, LengthMismatch
from .gf import (
    Field,
    FieldElement,
    digits_to_label,
    expand_operator,
    label_to_digits,
    stack_digits,
    unstack_digits,
)
from .metrics import manhattan_dist
from .modp import rank

DEFAULT_ENUM_BUDGET = 2**20
_BLOCK_DIGITS = 2**21  # codeword digits per block in codeword_images


class LinearCode:
    """Generator matrix over F_q with rank-k columns, optional cached distance.

    ``operator`` is the digit-expanded F_p operator of the generator
    matrix (see :func:`pqdec.gf.expand_operator`), built once and stored
    read-only; encoding, the rank check and the codeword tables all go
    through it.
    """

    def __init__(
        self,
        field: Field,
        matrix: Sequence[Sequence[FieldElement]],
        d: int | None = None,
    ):
        self.field = field
        self.matrix = tuple(tuple(row) for row in matrix)
        self.n = len(self.matrix)
        self.k = len(self.matrix[0]) if self.n else 0
        if any(len(row) != self.k for row in self.matrix):
            raise BadShape("ragged generator matrix")
        if self.k < 1 or self.n < self.k:
            raise BadShape(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        self.operator = expand_operator(self.matrix, field)
        self.operator.entries.setflags(write=False)
        # A is injective over F_q iff its F_p expansion is injective
        if rank(self.operator.entries, field.p) < field.m * self.k:
            raise BadShape("generator columns are linearly dependent over F_q")
        self.d = d

    def encode(self, s: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Codeword A @ s."""
        if len(s) != self.k:
            raise LengthMismatch(f"message length {len(s)} != k = {self.k}")
        if any(x.field != self.field for x in s):
            raise FieldMismatch("message entry from a different field")
        digits = self.operator.entries @ stack_digits(s) % self.field.p
        return unstack_digits(self.field, digits)

    def images(self) -> list[list[int]]:
        return [[e.image for e in row] for row in self.matrix]

    def __repr__(self) -> str:
        return f"LinearCode(q={self.field.q}, n={self.n}, k={self.k}, d={self.d})"


def random_code(
    field: Field, n: int, k: int, seed: int | np.random.Generator
) -> LinearCode:
    """Uniform n x k generator matrix, redrawn until its columns have rank k."""
    if not n >= k >= 1:
        raise BadShape(f"need n >= k >= 1, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    while True:
        matrix = [[field.random_element(rng) for _ in range(k)] for _ in range(n)]
        try:
            return LinearCode(field, matrix)
        except BadShape:  # the shape is valid, so the columns are dependent
            continue


# ----------------------------------------------------------------------
# Exhaustive enumeration oracles
# ----------------------------------------------------------------------

def _message_count(field: Field, k: int, budget: int) -> int:
    total = field.q**k
    if total > budget:
        raise BudgetExceeded(f"q^k = {total} exceeds enumeration budget {budget}")
    return total


def message_images(field: Field, k: int, budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """(q^k, k) array of message coordinate images, lexicographic order.

    Row ``idx`` holds the base-q digits of ``idx``, most significant first.
    """
    total = _message_count(field, k, budget)
    return label_to_digits(np.arange(total, dtype=np.int64), k, field.q)


def codeword_images(code: LinearCode, budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """(q^k, n) array of codeword coordinate images, message-lex order.

    Message number ``idx`` in lexicographic image order has the m*k
    base-p digits of ``idx`` as its digit vector, coordinate-major and
    most significant first within a coordinate, and a codeword
    coordinate's image is its m digits read the same way.  The expanded
    operator (least significant digit first) is put in that digit order
    once, so every block of codewords is one product with it, read
    through the numeral codec.  Messages go through in blocks so the
    digit arrays stay small whatever q^k and n are.
    """
    f = code.field
    p, m, n, k = f.p, f.m, code.n, code.k
    total = _message_count(f, k, budget)
    if k == 0:
        return np.zeros((1, n), dtype=np.int64)  # the zero codeword alone
    blocks = code.operator.entries.reshape(n, m, k, m)
    operator_t = blocks[:, ::-1, :, ::-1].reshape(m * n, m * k).T
    out = np.empty((total, n), dtype=np.int64)
    block = max(1, _BLOCK_DIGITS // (m * n))
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        cw_digits = label_to_digits(idx, m * k, p) @ operator_t  # the codec reduces mod p
        out[start : start + idx.size] = digits_to_label(cw_digits.reshape(-1, n, m), p)
    return out


def min_distance_bruteforce(
    code: LinearCode, budget: int = DEFAULT_ENUM_BUDGET
) -> int | float:
    """Exact minimum pairwise Manhattan distance over all codeword pairs.

    All pairs are compared (cost O(q^2k)); with fewer than two codewords
    the minimum over an empty pair set is +inf.  The result is cached on
    the code.
    """
    imgs = codeword_images(code, budget)
    count = imgs.shape[0]
    if count < 2:
        return math.inf
    best = None
    for i in range(count - 1):
        dists = np.abs(imgs[i + 1 :] - imgs[i]).sum(axis=1)
        cand = int(dists.min())
        if best is None or cand < best:
            best = cand
    code.d = best
    return best


def nearest_codeword_oracle(
    code: LinearCode,
    t: Sequence[FieldElement],
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[tuple[FieldElement, ...], int]:
    """argmin over all messages of the Manhattan distance to t.

    Ties break to the message that comes first in lexicographic image
    order, so repeated calls agree.
    """
    if len(t) != code.n:
        raise LengthMismatch(f"target length {len(t)} != n = {code.n}")
    imgs = codeword_images(code, budget)
    t_imgs = np.array([e.image for e in t], dtype=np.int64)
    dists = np.abs(imgs - t_imgs).sum(axis=1)
    best = int(np.argmin(dists))  # first minimum = lex-smallest message
    msgs = message_images(code.field, code.k, budget)
    s_star = tuple(code.field.el(int(v)) for v in msgs[best])
    return s_star, int(dists[best])


# ----------------------------------------------------------------------
# Decoding instances
# ----------------------------------------------------------------------

@dataclass
class DecodeInstance:
    """A target vector with a promised error budget, optionally planted; shapes checked."""

    code: LinearCode
    t: tuple[FieldElement, ...]
    w: int | None  # None means no bound (infinite promise)
    s_true: tuple[FieldElement, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.t) != self.code.n:
            raise LengthMismatch(f"target length {len(self.t)} != n = {self.code.n}")
        if self.s_true is not None and len(self.s_true) != self.code.k:
            raise LengthMismatch(f"message length {len(self.s_true)} != k = {self.code.k}")
        if self.w is not None and self.w < 0:
            raise BadShape(f"error budget w = {self.w} must be >= 0")

    @property
    def field(self) -> Field:
        return self.code.field


def plant_instance(
    code: LinearCode,
    s: Sequence[FieldElement],
    e: Sequence[FieldElement],
    w: int | None = None,
) -> DecodeInstance:
    """Instance t = A s + e with explicit error; w defaults to the actual distance."""
    if len(e) != code.n:
        raise LengthMismatch(f"error length {len(e)} != n = {code.n}")
    cw = code.encode(s)
    t = tuple(c + err for c, err in zip(cw, e))
    actual = manhattan_dist(t, cw)
    return DecodeInstance(code=code, t=t, w=actual if w is None else w, s_true=tuple(s))


def gen_instance(
    code: LinearCode, w: int, seed: int | np.random.Generator
) -> DecodeInstance:
    """Planted instance with per-coordinate error images uniform on [0, floor(w/n)].

    Bounding each coordinate separately keeps the high digit prefixes of
    t aligned with the planted codeword, which is the property every
    decoder correctness argument uses.  Digit-wise addition can wrap a
    digit and inflate the *image* distance past w for awkward (p, w)
    combinations; the error is then redrawn so the declared bound is
    honest (never triggers for p = 2).
    """
    if w < 0:
        raise BadShape(f"error budget w = {w} must be >= 0")
    rng = np.random.default_rng(seed)
    f = code.field
    s = tuple(f.random_element(rng) for _ in range(code.k))
    cw = code.encode(s)
    bound = w // code.n
    for _ in range(1000):
        e = tuple(f.el(int(v)) for v in rng.integers(0, bound + 1, size=code.n))
        t = tuple(c + err for c, err in zip(cw, e))
        if manhattan_dist(t, cw) <= w:
            return DecodeInstance(code=code, t=t, w=w, s_true=s)
    raise BudgetExceeded("could not sample an error meeting the declared bound")


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def instance_to_json(inst: DecodeInstance) -> dict:
    obj: dict = {
        "field": inst.field.to_json(),
        "n": inst.code.n,
        "k": inst.code.k,
        "A": inst.code.images(),
        "t": [e.image for e in inst.t],
        "w": inst.w,
    }
    if inst.s_true is not None:
        obj["s_true"] = [e.image for e in inst.s_true]
    if inst.code.d is not None:
        obj["d"] = inst.code.d
    return obj


def instance_from_json(obj: dict) -> DecodeInstance:
    """Inverse of :func:`instance_to_json`; BadShape on a missing key or a mistyped value."""
    try:
        f = Field.from_json(obj["field"])
        matrix = [[f.el(int(v)) for v in row] for row in obj["A"]]
        t = tuple(f.el(int(v)) for v in obj["t"])
        w, d, s_true = obj.get("w"), obj.get("d"), obj.get("s_true")
        w = None if w is None else int(w)
        d = None if d is None else int(d)
        if s_true is not None:
            s_true = tuple(f.el(int(v)) for v in s_true)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadShape(f"malformed instance: {exc!r}") from exc
    code = LinearCode(f, matrix, d=d)
    return DecodeInstance(code=code, t=t, w=w, s_true=s_true)
