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
scalar field product is formed.  Vectors are digit rows
(:func:`pqdec.gf.digit_rows`) and A is one (n, k, m) digit array
(:func:`pqdec.gf.matrix_digits`); ``FieldElement`` is only the scalar
view, read in by :func:`instance_from_json`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadShape, BudgetExceeded, LengthMismatch, PreconditionUnmet
from .gf import (
    Field,
    _int_digits,
    digit_images,
    digit_rows,
    digits_to_label,
    expand_operator,
    json_int,
    label_to_digits,
    matrix_digits,
)
from .metrics import manhattan_dist
from .modp import rank

DEFAULT_ENUM_BUDGET = 2**20
_BLOCK_DIGITS = 2**21  # codeword digits per block in codeword_images


class LinearCode:
    """Generator matrix over F_q with rank-k columns, optional cached distance.

    ``matrix`` is the read-only (n, k, m) digit array of A, taken through
    :func:`pqdec.gf.matrix_digits`.  ``operator`` is its digit-expanded
    F_p operator (see :func:`pqdec.gf.expand_operator`), built once and
    stored read-only; encoding, the rank check and the codeword tables
    all go through it.
    """

    def __init__(self, field: Field, matrix, d: int | None = None):
        self.field = field
        self.matrix = matrix_digits(field, matrix)
        self.n, self.k = self.matrix.shape[:2]
        if self.n < self.k:
            raise BadShape(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        self.operator = expand_operator(self.matrix, field)
        self.operator.entries.setflags(write=False)
        # A is injective over F_q iff its F_p expansion is injective
        if rank(self.operator.entries, field.p) < field.m * self.k:
            raise BadShape("generator columns are linearly dependent over F_q")
        self.d = d

    def encode(self, s) -> np.ndarray:
        """Codeword A @ s as (n, m) digit rows; s is taken through :func:`~pqdec.gf.digit_rows`."""
        s = digit_rows(self.field, s, "message entry")
        if len(s) != self.k:
            raise LengthMismatch(f"message length {len(s)} != k = {self.k}")
        digits = self.operator.entries @ s.reshape(-1) % self.field.p
        return digits.reshape(self.n, self.field.m)

    def images(self) -> list[list[int]]:
        f = self.field
        return digit_images(self.matrix.reshape(-1, f.m), f.p).reshape(self.n, self.k).tolist()

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
        try:
            return LinearCode(field, rng.integers(0, field.p, size=(n, k, field.m)))
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
    blocks = code.operator.entries.reshape(n, m, k, m)
    operator_t = blocks[:, ::-1, :, ::-1].reshape(m * n, m * k).T
    out = np.empty((total, n), dtype=np.int64)
    block = max(1, _BLOCK_DIGITS // (m * n))
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        cw_digits = label_to_digits(idx, m * k, p) @ operator_t  # the codec reduces mod p
        out[start : start + idx.size] = digits_to_label(cw_digits.reshape(-1, n, m), p)
    return out


def min_distance_bruteforce(code: LinearCode, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Exact minimum pairwise Manhattan distance over all codeword pairs.

    All pairs are compared (cost O(q^2k)); a code has k >= 1, so there
    are q^k >= 2 codewords and at least one pair.  The result is cached
    on the code.
    """
    imgs = codeword_images(code, budget)
    best = min(
        int(np.abs(imgs[i + 1 :] - imgs[i]).sum(axis=1).min()) for i in range(len(imgs) - 1)
    )
    code.d = best
    return best


def nearest_codeword_oracle(
    code: LinearCode,
    t,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[np.ndarray, int]:
    """argmin over all messages of the Manhattan distance to t, as (k, m) digit rows.

    Ties break to the message that comes first in lexicographic image
    order, so repeated calls agree.  t goes through
    :func:`~pqdec.gf.digit_rows`, since it is read by its images.
    """
    f = code.field
    t = digit_rows(f, t, "target entry")
    if len(t) != code.n:
        raise LengthMismatch(f"target length {len(t)} != n = {code.n}")
    imgs = codeword_images(code, budget)
    dists = np.abs(imgs - digit_images(t, f.p)).sum(axis=1)
    best = int(np.argmin(dists))  # first minimum = lex-smallest message
    # message number best has the m*k base-p digits of best, most significant first
    s_star = label_to_digits(best, f.m * code.k, f.p).reshape(code.k, f.m)[:, ::-1]
    return s_star, int(dists[best])


# ----------------------------------------------------------------------
# Decoding instances
# ----------------------------------------------------------------------

@dataclass(eq=False)  # compared by identity: it holds arrays
class DecodeInstance:
    """A target vector with a promised error budget, optionally planted.

    ``t`` and ``s_true`` are held as :func:`~pqdec.gf.digit_rows`'
    read-only copies, lengths checked, so no decoder reads a foreign
    element or a digit out of range.
    """

    code: LinearCode
    t: np.ndarray
    w: int | None  # None means no bound (infinite promise)
    s_true: np.ndarray | None = None

    def __post_init__(self) -> None:
        f = self.code.field
        self.t = digit_rows(f, self.t, "instance entry")
        if len(self.t) != self.code.n:
            raise LengthMismatch(f"target length {len(self.t)} != n = {self.code.n}")
        if self.s_true is not None:
            self.s_true = digit_rows(f, self.s_true, "instance entry")
            if len(self.s_true) != self.code.k:
                raise LengthMismatch(f"message length {len(self.s_true)} != k = {self.code.k}")
        if self.w is not None and self.w < 0:
            raise BadShape(f"error budget w = {self.w} must be >= 0")

    @property
    def field(self) -> Field:
        return self.code.field


def plant_instance(code: LinearCode, s, e, w: int | None = None) -> DecodeInstance:
    """Instance t = A s + e (digit rows mod p); w defaults to the actual distance."""
    f = code.field
    e = digit_rows(f, e, "error entry")
    if len(e) != code.n:
        raise LengthMismatch(f"error length {len(e)} != n = {code.n}")
    cw = code.encode(s)
    t = (cw + e) % f.p
    actual = manhattan_dist(f, t, cw)
    return DecodeInstance(code=code, t=t, w=actual if w is None else w, s_true=s)


def gen_instance(
    code: LinearCode, w: int, seed: int | np.random.Generator
) -> DecodeInstance:
    """Planted instance with per-coordinate error images uniform on [0, min(floor(w/n), q-1)].

    An image above q - 1 is not in F_q, so a budget w >= n*q caps each
    coordinate at q - 1 and the declared bound w is loose.  Bounding
    each coordinate separately keeps the high digit prefixes of t
    aligned with the planted codeword, which is the property every
    decoder correctness argument uses.  Digit-wise addition can wrap a
    digit and inflate the *image* distance past w for awkward (p, w)
    combinations; the error is then redrawn so the declared bound is
    honest (never triggers for p = 2).  Error images are drawn as int64,
    so a per-coordinate bound of 2^63 or more (q > 2^63 with a budget to
    match) raises PreconditionUnmet before anything is drawn.
    """
    if w < 0:
        raise BadShape(f"error budget w = {w} must be >= 0")
    f = code.field
    bound = min(w // code.n, f.q - 1)
    if bound >= 2**63:
        raise PreconditionUnmet(
            f"per-coordinate error bound {bound} is past 2^63 - 1, the error draw's range"
        )
    rng = np.random.default_rng(seed)
    s = rng.integers(0, f.p, size=(code.k, f.m))  # the draws of k f.random_element calls
    cw = code.encode(s)
    for _ in range(1000):
        images = rng.integers(0, bound + 1, size=code.n)
        # Python-int digits: past q = 2^63 the codec's int64 weights overflow
        e = np.array([_int_digits(int(v), f.p, f.m) for v in images], dtype=np.int64)
        t = (cw + e) % f.p
        if manhattan_dist(f, t, cw) <= w:
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
        "t": digit_images(inst.t, inst.field.p).tolist(),
        "w": inst.w,
    }
    if inst.s_true is not None:
        obj["s_true"] = digit_images(inst.s_true, inst.field.p).tolist()
    if inst.code.d is not None:
        obj["d"] = inst.code.d
    return obj


def instance_from_json(obj: dict) -> DecodeInstance:
    """Inverse of :func:`instance_to_json`.

    BadShape on a missing key, a mistyped value (any number that is not
    a JSON integer among them, see :func:`~pqdec.gf.json_int`), an ``n``
    or ``k`` header that disagrees with the shape of ``A``, or a cached ``d``
    outside [1, n*(q-1)], the range of Manhattan distances between
    distinct codewords.
    """
    try:
        f = Field.from_json(obj["field"])
        matrix = [[f.el(json_int(v)) for v in row] for row in obj["A"]]
        t = tuple(f.el(json_int(v)) for v in obj["t"])
        w, d, s_true = obj.get("w"), obj.get("d"), obj.get("s_true")
        w = None if w is None else json_int(w)
        d = None if d is None else json_int(d)
        if s_true is not None:
            s_true = tuple(f.el(json_int(v)) for v in s_true)
        headers = {key: json_int(obj[key]) for key in ("n", "k") if key in obj}
    except (KeyError, TypeError) as exc:
        raise BadShape(f"malformed instance: {exc!r}") from exc
    code = LinearCode(f, matrix, d=d)
    for key, value in (("n", code.n), ("k", code.k)):
        if headers.get(key, value) != value:
            raise BadShape(f"header {key} = {headers[key]} but A has {key} = {value}")
    if d is not None and not 1 <= d <= code.n * (f.q - 1):
        raise BadShape(f"cached d = {d} outside [1, {code.n * (f.q - 1)}]")
    return DecodeInstance(code=code, t=t, w=w, s_true=s_true)
