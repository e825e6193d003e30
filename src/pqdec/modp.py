"""Dense linear algebra over the prime field F_p (numpy int64).

Gaussian elimination with exact modular arithmetic; p is assumed small
enough that intermediate products fit in int64, which holds for every
desk-scale prime used here.  Inverse and solve run on :func:`row_echelon`
at every p.  At p = 2 the rank and the echelon form both come from one
elimination on bit-packed rows (:func:`_xor_basis`); the numpy loop
serves p >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadShape

# Factors of the partial product prod_k (1 - p^-k); past k = 64 each
# factor is within 2^-64 of 1, below float64 resolution.
INVERTIBILITY_TERMS = 64


def _as_modp(matrix: np.ndarray, p: int) -> np.ndarray:
    out = np.array(matrix, dtype=np.int64)
    # x & 1 == x mod 2 in two's complement, without an integer division
    out = out & 1 if p == 2 else out % p
    if out.ndim != 2:
        raise BadShape(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def row_echelon(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p and its pivot column list."""
    a = _as_modp(matrix, p)
    if p == 2:
        return _echelon_gf2(a)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        mask = a[:, c] != 0
        mask[r] = False
        if mask.any():
            a[mask] = (a[mask] - np.outer(a[mask, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(matrix: np.ndarray, p: int) -> int:
    if p == 2:
        return len(_xor_basis(_as_modp(matrix, 2)))
    return len(row_echelon(matrix, p)[1])


# ----------------------------------------------------------------------
# F_2 elimination on rows packed into Python-int bitsets: one XOR adds a
# whole row, the packed-row elimination of M4RI (Albrecht & Bard, "The
# M4RI Library").  Column c of a row of `cols` columns is bit cols-1-c,
# so a row's leading bit is its leftmost nonzero column.
# ----------------------------------------------------------------------

def _pack_rows(a: np.ndarray) -> list[int]:
    rows, cols = a.shape
    words = -(-cols // 64)
    # zero bits on the left keep every row below 2^cols, so small rows stay small ints
    bits = np.zeros((rows, 64 * words), dtype=np.uint8)
    bits[:, 64 * words - cols :] = a
    word_cols = np.packbits(bits, axis=1).view(">u8")  # (rows, words), most significant first
    out = [0] * rows
    for w in range(words):
        out = [(hi << 64) | lo for hi, lo in zip(out, word_cols[:, w].tolist())]
    return out


def _xor_basis(a: np.ndarray) -> dict[int, int]:
    """XOR basis of the packed rows of a 0/1 matrix, keyed by leading bit.

    Rows are reduced one by one against the basis; the loop stops as soon
    as the basis spans all columns, so a tall full-rank matrix reads only
    about as many rows as it has columns.
    """
    cols = a.shape[1]
    basis: dict[int, int] = {}
    for row in _pack_rows(a):
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                if len(basis) == cols:
                    return basis
                break
            row ^= basis[lead]
    return basis


def _echelon_gf2(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """:func:`row_echelon` at p = 2: the XOR basis, back-reduced and unpacked.

    Basis rows are taken rightmost pivot first; each clears its bits at
    the pivots right of its own, whose rows are already reduced, so the
    order of those clears does not matter.
    """
    rows, cols = a.shape
    basis = _xor_basis(a)
    leads = sorted(basis)
    for i, lead in enumerate(leads):
        row = basis[lead]
        for right in leads[:i]:
            if row >> right & 1:
                row ^= basis[right]
        basis[lead] = row
    leads.reverse()  # leftmost pivot first: the echelon row order
    stride = -(-cols // 8)  # bytes per row
    data = b"".join(basis[lead].to_bytes(stride, "big") for lead in leads)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(leads), stride)
    out = np.zeros((rows, cols), dtype=np.int64)
    out[: len(leads)] = np.unpackbits(packed, axis=1)[:, 8 * stride - cols :]
    return out, [cols - 1 - lead for lead in leads]


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
