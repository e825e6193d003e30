"""Dense linear algebra over the prime field F_p (numpy int64).

Exact Gauss-Jordan elimination, one kernel per prime class.  Both take a
2-D matrix or a (B, R, C) stack of B matrices (the stacked ranks of
``baselines.invertibility_stats``):

- at p = 2, one elimination on bit-packed rows (:func:`_xor_basis`); a
  stack is packed in one pass and its matrices are reduced one by one;
- at p >= 3, one numpy loop over the pivot columns that eliminates all
  matrices of a stack at once (:func:`_eliminate`); a 2-D matrix is a
  stack of one.

On a 2-D matrix :func:`rank` returns a Python int, and on a stack an
int64 array of B ranks.  :func:`row_echelon` takes one 2-D matrix and
returns its reduced echelon form and pivot column list; inverse and
solve run on it.
The p >= 3 loop reduces its entries mod p often enough that no
intermediate passes 2^62, for any p with p^2 < 2^62, which holds for
every desk-scale prime used here.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadShape

# Factors of the partial product prod_k (1 - p^-k); past k = 64 each
# factor is within 2^-64 of 1, below float64 resolution.
INVERTIBILITY_TERMS = 64


def _as_int64(matrix: np.ndarray, stack: bool) -> np.ndarray:
    out = np.asarray(matrix, dtype=np.int64)
    if out.ndim != 2 and not (stack and out.ndim == 3):
        want = "a 2-D matrix or a 3-D stack" if stack else "a 2-D matrix"
        raise BadShape(f"expected {want}, got ndim={out.ndim}")
    return out


def _as_modp(matrix: np.ndarray, p: int) -> np.ndarray:
    """A reduced int64 copy of a 2-D matrix."""
    out = _as_int64(matrix, stack=False)
    # x & 1 == x mod 2 in two's complement, without an integer division
    return out & 1 if p == 2 else out % p


def row_echelon(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p of a 2-D matrix, and its pivot columns."""
    a = _as_int64(matrix, stack=False)
    if p == 2:
        packed, shape = _gf2_rows(a)
        return _echelon_gf2(packed[0], *shape)
    # every step of a single matrix has its pivot, so its stored rows are
    # its echelon rows in order
    pivot_rows, pivot_cols, _ = _eliminate(a[None], p)
    echelon = np.zeros_like(a)
    np.remainder(pivot_rows[0], p, out=echelon[: len(pivot_cols)])
    return echelon, pivot_cols


def rank(matrix: np.ndarray, p: int) -> int | np.ndarray:
    """Rank over F_p: a Python int for a 2-D matrix, an int64 array of B ranks for a stack."""
    if p == 2:
        packed, shape = _gf2_rows(matrix)
        ranks = [_xor_basis(rows, shape[-1])[1] for rows in packed]
        return ranks[0] if len(shape) == 2 else np.array(ranks, dtype=np.int64)
    a = _as_int64(matrix, stack=True)
    if a.ndim == 2:
        return len(_eliminate(a[None], p)[1])
    _, pivot_cols, marks = _eliminate(a, p)
    return np.array(marks, dtype=np.int64).reshape(len(pivot_cols), len(a)).sum(axis=0)


# ----------------------------------------------------------------------
# p >= 3: one Gauss-Jordan loop over the pivot columns of a whole stack.
# ----------------------------------------------------------------------

# primes up to this bound invert through a cached table of p entries
INVERSE_TABLE_LIMIT = 1 << 16


@lru_cache(maxsize=8)
def _inverse_table(p: int) -> np.ndarray:
    return np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)


def _inverter(p: int) -> Callable[[np.ndarray], np.ndarray]:
    """x -> x^-1 mod p on int64 arrays, with 0 -> 0, so a matrix without a pivot is left alone."""
    if p <= INVERSE_TABLE_LIMIT:
        return _inverse_table(p).take
    return lambda values: np.array([pow(x, -1, p) if x else 0 for x in values.tolist()], np.int64)


def _eliminate(stack: np.ndarray, p: int) -> tuple[np.ndarray, list[int], list[np.ndarray]]:
    """Gauss-Jordan elimination over F_p of every matrix of a (B, R, C) int64 stack at once.

    Column by column, each matrix takes its first nonzero remaining row as
    the pivot, normalises it, stores it after the R working rows and
    clears the column from every other row, stored rows included; the
    pivot row itself becomes zero mod p, so it is never picked again.  A
    column without a pivot in any matrix costs one scan.  The loop stops
    once every matrix has min(R, C) pivots.

    Returns the stored pivot rows (B, S, C) in step order, not yet reduced
    mod p, the column of each of the S steps, and per step a 0/1 array
    marking the matrices with a pivot there.  A matrix's stored row at a
    step without its pivot is zero, so its pivot rows in step order are
    its reduced echelon form.
    """
    count, rows, cols = stack.shape
    most = min(rows, cols)
    # each step stores one row per matrix; there is at most one step per
    # column, and at most min(R, C) per matrix
    height = rows + min(cols, count * most)
    # each matrix is held column by column, so a pivot column is contiguous
    work = np.zeros((count, cols, height), dtype=np.int64)
    np.remainder(stack.transpose(0, 2, 1), p, out=work[:, :, :rows])
    matrices = np.arange(count)
    invert = _inverter(p)
    # only the pivot column is reduced each step; the rest grows by under
    # p^2 per update and is reduced before it could pass 2^62 / p
    period = max(1, 2**62 // p**3)
    pivot_cols: list[int] = []
    marks: list[np.ndarray] = []
    found = 0
    for c in range(cols):
        if found == count * most:
            break
        col = work[:, c]
        col %= p
        # first nonzero working row; row 0, which is zero there, when none is
        pick = (col[:, :rows] != 0).argmax(axis=1)
        pivot = work[matrices, c:, pick]
        lead = pivot[:, 0]
        hits = np.count_nonzero(lead)
        if not hits:
            continue
        # the inverse of 0 is 0, so a matrix without a pivot gets a zero
        # pivot row and the update below leaves it as it was
        pivot *= invert(lead)[:, None]
        pivot %= p
        block = work[:, c:]
        block -= pivot[:, :, None] * col[:, None, :]
        work[:, c:, rows + len(pivot_cols)] = pivot
        pivot_cols.append(c)
        marks.append(lead)
        found += hits
        if len(pivot_cols) % period == 0:
            block %= p
    return work[:, :, rows : rows + len(pivot_cols)].transpose(0, 2, 1), pivot_cols, marks


# ----------------------------------------------------------------------
# F_2 elimination on rows packed into Python-int bitsets: one XOR adds a
# whole row, the packed-row elimination of M4RI (Albrecht & Bard, "The
# M4RI Library").  A row of C columns fills W = 64 * ceil(C / 64) bits;
# column c is bit W-1-c, so a row's leading bit is its leftmost nonzero
# column.
# ----------------------------------------------------------------------

def _gf2_rows(matrix: np.ndarray) -> tuple[list[list[int]], tuple[int, ...]]:
    """The packed rows mod 2 of a 2-D matrix or of each matrix of a stack, and its shape."""
    bits = _as_int64(matrix, stack=True).astype(np.uint8)  # wraps mod 256, keeping parity
    bits &= 1
    *lead, rows, cols = bits.shape
    words = -(-cols // 64)
    packed = np.packbits(bits, axis=-1)  # column 0 is the top bit of byte 0
    if packed.shape[-1] < 8 * words:
        padded = np.zeros((*packed.shape[:-1], 8 * words), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        packed = padded
    count = math.prod(lead)
    word_cols = packed.view(">u8").reshape(count * rows, words)  # most significant word first
    flat = word_cols[:, 0].tolist() if words else [0] * (count * rows)
    for w in range(1, words):
        flat = [(hi << 64) | lo for hi, lo in zip(flat, word_cols[:, w].tolist())]
    return [flat[i * rows : (i + 1) * rows] for i in range(count)], bits.shape


def _xor_basis(rows: list[int], cols: int) -> tuple[list[int], int]:
    """XOR basis of packed rows, indexed by leading bit length, and its size.

    Rows are reduced one by one against the basis; the loop stops as soon
    as the basis spans all columns, so a tall full-rank matrix reads only
    about as many rows as it has columns.
    """
    basis = [0] * (64 * -(-cols // 64) + 1)
    size = 0
    for row in rows:
        while row:
            if lead_row := basis[row.bit_length()]:
                row ^= lead_row
                continue
            basis[row.bit_length()] = row
            size += 1
            if size == cols:
                return basis, size
            break
    return basis, size


def _echelon_gf2(packed: list[int], rows: int, cols: int) -> tuple[np.ndarray, list[int]]:
    """:func:`row_echelon` of one matrix at p = 2: the XOR basis, back-reduced and unpacked.

    Basis rows are taken rightmost pivot first; each clears its bits at
    the pivots right of its own, whose rows are already reduced, so the
    order of those clears does not matter.
    """
    basis, _ = _xor_basis(packed, cols)
    width = len(basis) - 1
    leads = [length for length, row in enumerate(basis) if row]
    for i, lead in enumerate(leads):
        row = basis[lead]
        for right in leads[:i]:
            if row >> (right - 1) & 1:
                row ^= basis[right]
        basis[lead] = row
    leads.reverse()  # leftmost pivot first: the echelon row order
    data = b"".join(basis[lead].to_bytes(width // 8, "big") for lead in leads)
    row_bytes = np.frombuffer(data, dtype=np.uint8).reshape(len(leads), width // 8)
    out = np.zeros((rows, cols), dtype=np.int64)
    out[: len(leads)] = np.unpackbits(row_bytes, axis=1, count=cols)
    return out, [width - lead for lead in leads]


@dataclass(frozen=True)
class FpInverseResult:
    """Inverse of a square F_p matrix, or an echelon certificate of singularity."""

    inverse: np.ndarray | None
    echelon: np.ndarray
    rank: int

    @property
    def singular(self) -> bool:
        return self.inverse is None


def fp_gauss_invert(matrix: np.ndarray, p: int) -> FpInverseResult:
    """Exact inverse over F_p; singular input is a valid result, not an error."""
    a = _as_modp(matrix, p)
    n, m = a.shape
    if n != m:
        raise BadShape(f"matrix is {n}x{m}, not square")
    ech, pivots = row_echelon(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), p)
    r = sum(1 for c in pivots if c < n)
    # pivots past column n come from rows whose A part is already zero, so
    # ech[:, :n] is the reduced echelon form of A
    if r < n:
        return FpInverseResult(inverse=None, echelon=ech[:, :n], rank=r)
    return FpInverseResult(inverse=ech[:, n:].copy(), echelon=ech[:, :n], rank=n)


@dataclass(frozen=True)
class FpSolveResult:
    """Outcome of solving A x = b over F_p by row reduction.

    status is "unique" (full column rank, consistent), "inconsistent"
    (a zero row with nonzero rhs), or "rank_deficient" (consistent but
    underdetermined).
    """

    status: str
    solution: np.ndarray | None
    rank: int


def fp_solve(matrix: np.ndarray, rhs: np.ndarray, p: int) -> FpSolveResult:
    a = _as_modp(matrix, p)
    b = np.array(rhs, dtype=np.int64).reshape(-1, 1) % p
    if b.shape[0] != a.shape[0]:
        raise BadShape(f"rhs length {b.shape[0]} != row count {a.shape[0]}")
    cols = a.shape[1]
    ech, pivots = row_echelon(np.concatenate([a, b], axis=1), p)
    if cols in pivots:
        return FpSolveResult(status="inconsistent", solution=None, rank=len(pivots) - 1)
    if len(pivots) < cols:
        return FpSolveResult(status="rank_deficient", solution=None, rank=len(pivots))
    x = np.zeros(cols, dtype=np.int64)
    for row, c in enumerate(pivots):
        x[c] = ech[row, cols]
    return FpSolveResult(status="unique", solution=x, rank=cols)


def invertibility_product(p: int) -> float:
    """Partial product prod_{k<=INVERTIBILITY_TERMS} (1 - p^-k), the infinite-limit oracle."""
    out = 1.0
    for k in range(1, INVERTIBILITY_TERMS + 1):
        out *= 1.0 - float(p) ** (-k)
    return out
