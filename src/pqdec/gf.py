"""Arithmetic in prime-power fields F_{p^m} with digit-vector elements.

An element is stored as its length-m coefficient vector over F_p,
least-significant digit first: ``digits[i]`` is the coefficient of x^i.
The integer image of an element is the evaluation of that coefficient
polynomial at x = p, i.e. ``sum(digits[i] * p**i)``; it ranges over
[0, q-1] and the map is a bijection.  Python integers keep everything
exact at any size.

Addition is digit-wise mod p (no carries), so it does NOT agree with
integer addition of the images; e.g. in F_16 the images satisfy
1 + 3 == 2.  Multiplication is polynomial multiplication reduced by a
monic degree-m irreducible polynomial, stored as its m low coefficients
(constant term first, leading 1 implicit).

An F_q vector is one (len, m) int64 array of digit rows, LSB first, from
instance to decoder (in through :func:`digit_rows`, images through
:func:`digit_images`), and an n x k matrix one (n, k, m) digit array (in
through :func:`matrix_digits`).  A matrix over F_q acts as an F_p-linear
operator on the flattened rows; ``expand_operator`` materialises it as an
(m*n) x (m*k) matrix over F_p whose (i, j) block is the multiplication
operator of entry (i, j) in the basis (1, x, ..., x^(m-1)).  F_q linear
maps are applied through that expanded operator (numpy products mod p,
built once per code by :class:`pqdec.codes.LinearCode`); ``FieldElement``
is the scalar view of one element at the boundary (the JSON loader, the
public API) and the tests' reference arithmetic.

This module owns the field layer's two conventions, once each:

* The polynomial core: dense coefficient lists over F_p, constant term
  first, with one long division, :func:`_poly_divmod`, behind field
  multiplication, the extended Euclid of ``FieldElement.inv``, the gcd
  of the irreducibility test (Ben-Or's, at every degree) and the
  reduced powers of x that every expanded operator is built from.
* The numeral codec: :func:`label_to_digits` and :func:`digits_to_label`
  map an index to its digits in a radix (p for labels and digit vectors,
  q for message images), most significant first, and back, on numpy
  scalars and arrays.  The simulator's label register and cube indices,
  the message and codeword enumeration of :mod:`pqdec.codes` and the
  gadget's assignment enumeration all go through it.
  It is int64, so it serves only indices below 2^63; :func:`_int_digits`
  and ``FieldElement.image`` stay on Python ints because one element's
  image may pass 2^63 (F_{2^64}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadShape,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    NotPrime,
    OutOfRange,
    Reducible,
)


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def json_int(value) -> int:
    """``value`` itself if it is a JSON integer (an int, not a bool); TypeError otherwise.

    ``int()`` would truncate 1.9 to 1 and read ``true`` as 1 and ``"4"``
    as 4, so a JSON loader reads every integer field through this.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# ----------------------------------------------------------------------
# Numeral codec: index <-> base-p digits
# ----------------------------------------------------------------------

def label_to_digits(index, width: int, p: int) -> np.ndarray:
    """Base-p digits of an index, most significant first.

    A scalar index gives shape (width,); an index array gives one row of
    digits per index.
    """
    weights = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.asarray(index, dtype=np.int64)[..., None] // weights % p


def digits_to_label(digits, p: int) -> np.ndarray:
    """Inverse of :func:`label_to_digits` over the last axis (digits taken mod p)."""
    digits = np.asarray(digits, dtype=np.int64) % p
    return digits @ p ** np.arange(digits.shape[-1] - 1, -1, -1, dtype=np.int64)


def _int_digits(x: int, p: int, width: int) -> list[int]:
    """The ``width`` low base-p digits of x, LSB first, in Python ints (q may pass 2^63)."""
    out = []
    for _ in range(width):
        x, d = divmod(x, p)
        out.append(d)
    return out


# ----------------------------------------------------------------------
# Polynomial helpers over F_p (dense int lists, constant term first)
# ----------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _poly_trim(out)


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b over F_p, both trimmed; b[-1] must be nonzero."""
    rem = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, p)
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = (rem[i] * lead_inv) % p
        if c == 0:
            continue
        quot[i - db] = c
        rem[i] = 0
        for j in range(db):
            rem[i - db + j] = (rem[i - db + j] - c * b[j]) % p
    return _poly_trim(quot), _poly_trim(rem)


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def is_irreducible(poly_full: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p, by Ben-Or's test.

    A monic f of degree m is irreducible iff gcd(f, x^(p^i) - x) = 1 for
    every 1 <= i <= m/2: x^(p^i) - x is the product of all monic
    irreducibles whose degree divides i, and a reducible f has a factor
    of degree at most m/2.  Each x^(p^i) mod f is the previous one raised
    to the p-th power, which over F_p spreads the coefficients,
    (sum c_j x^j)^p = sum c_j x^(jp), before one reduction.
    """
    m = len(poly_full) - 1
    if m < 1 or poly_full[-1] != 1:
        raise DegreeMismatch("expected a monic polynomial of degree >= 1")
    frob = [0, 1]  # x^(p^0)
    for _ in range(m // 2):
        spread = [0] * (p * (len(frob) - 1) + 1)
        spread[::p] = frob
        frob = _poly_divmod(spread, poly_full, p)[1]
        if len(_poly_gcd(poly_full, _poly_sub(frob, [0, 1], p), p)) > 1:
            return False
    return True


@lru_cache(maxsize=128)
def default_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Candidates are ordered by the integer encoding of their m low
    coefficients (constant term least significant), so the choice is
    deterministic and reproducible.  Returns the m low coefficients.
    Memoised per (p, m): the scan runs once, and every default Field of
    that size shares the one returned tuple.
    """
    for enc in range(p**m):
        coeffs = _int_digits(enc, p, m)
        if is_irreducible(coeffs + [1], p):
            return tuple(coeffs)
    raise Reducible(f"no irreducible polynomial of degree {m} over F_{p}")  # unreachable


# ----------------------------------------------------------------------
# Field and elements
# ----------------------------------------------------------------------

class Field:
    """The field F_{p^m} for prime p, with a fixed irreducible modulus.

    ``poly`` holds the m low coefficients of the monic modulus,
    constant term first.  If omitted, the lexicographically smallest
    irreducible is selected (x^2+x+1 for F_4, x^2+1 for F_9, x^4+x+1
    for F_16, ...).
    """

    __slots__ = ("p", "m", "q", "poly", "_zero", "_one")

    def __init__(self, p: int, m: int, poly: Sequence[int] | None = None):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if m < 1:
            raise DegreeMismatch(f"extension degree m = {m} must be >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        if poly is None:
            self.poly = default_irreducible(p, m)
        else:
            if len(poly) != m:
                raise DegreeMismatch(
                    f"modulus needs exactly {m} low coefficients, got {len(poly)}"
                )
            coeffs = tuple(c % p for c in poly)
            if not is_irreducible(list(coeffs) + [1], p):
                raise Reducible(f"x^{m} + {list(coeffs)} is reducible over F_{p}")
            self.poly = coeffs
        self._zero = FieldElement(self, (0,) * m)
        self._one = FieldElement(self, (1,) + (0,) * (m - 1))

    # -- element construction -------------------------------------------------

    def el(self, image: int) -> FieldElement:
        """Element with the given integer image in [0, q-1]."""
        if not 0 <= image < self.q:
            raise OutOfRange(f"image {image} outside [0, {self.q - 1}]")
        return FieldElement(self, tuple(_int_digits(image, self.p, self.m)))

    def from_digits(self, digits: Sequence[int]) -> FieldElement:
        if len(digits) != self.m:
            raise DegreeMismatch(f"expected {self.m} digits, got {len(digits)}")
        return FieldElement(self, tuple(d % self.p for d in digits))

    @property
    def zero(self) -> FieldElement:
        return self._zero

    @property
    def one(self) -> FieldElement:
        return self._one

    def elements(self) -> Iterator[FieldElement]:
        for image in range(self.q):
            yield self.el(image)

    def random_element(self, rng: np.random.Generator) -> FieldElement:
        """Uniform element, drawn digit-wise so huge q never overflows."""
        return FieldElement(self, tuple(rng.integers(0, self.p, size=self.m).tolist()))

    # -- misc ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.poly))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, poly={list(self.poly)})"

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "poly": list(self.poly)}

    @classmethod
    def from_json(cls, obj: dict) -> Field:
        """Inverse of :meth:`to_json`; BadShape on a missing key or a mistyped value."""
        try:
            p, m = json_int(obj["p"]), json_int(obj["m"])
            poly = [json_int(c) for c in obj["poly"]]
        except (KeyError, TypeError) as exc:
            raise BadShape(f"malformed field: {exc!r}") from exc
        return cls(p, m, poly)


class FieldElement:
    """An element of F_{p^m}: an m-digit vector over F_p, LSB first."""

    __slots__ = ("field", "digits")

    def __init__(self, field: Field, digits: tuple[int, ...]):
        self.field = field
        self.digits = digits

    @property
    def image(self) -> int:
        """Integer image: the digit polynomial evaluated at p."""
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.field.p + d
        return acc

    def _check(self, other: FieldElement) -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.digits, other.digits))
        )

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.digits, other.digits))
        )

    def __neg__(self) -> FieldElement:
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.digits))

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        f = self.field
        prod = _poly_mul(self.digits, other.digits, f.p)
        _, red = _poly_divmod(prod, f.poly + (1,), f.p)
        red += [0] * (f.m - len(red))
        return FieldElement(f, tuple(red))

    def inv(self) -> FieldElement:
        """Multiplicative inverse via extended Euclid on polynomials."""
        f = self.field
        if self.image == 0:
            raise DivisionByZero("0 has no inverse")
        p = f.p
        # extended Euclid: r0 = modulus, r1 = self
        r0, r1 = list(f.poly) + [1], _poly_trim(list(self.digits))
        t0, t1 = [], [1]
        while r1:
            quot, rem = _poly_divmod(r0, r1, p)
            r0, r1 = r1, rem
            t0, t1 = t1, _poly_sub(t0, _poly_mul(quot, t1, p), p)
        # r0 is now a nonzero constant gcd; scale t0 by its inverse
        scale = pow(r0[0], -1, p)
        t0 = [(c * scale) % p for c in t0]
        t0 += [0] * (f.m - len(t0))
        return FieldElement(f, tuple(t0[: f.m]))

    def __pow__(self, e: int) -> FieldElement:
        if e < 0:
            return self.inv() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.digits == other.digits
        )

    def __hash__(self) -> int:
        return hash((self.field, self.digits))

    def __repr__(self) -> str:
        return f"GF({self.field.q})[{self.image}]"


def digit_rows(field: Field, vec, what: str = "vector entry") -> np.ndarray:
    """Read-only (len, m) int64 digit rows of a vector, LSB first: the one way in.

    ``vec`` is ``FieldElement``s over ``field`` (BadShape on any other
    entry, FieldMismatch on a foreign one, both naming ``what``) or an
    integer array of shape (len, m) with digits in [0, p) (BadShape,
    OutOfRange), checked before it is copied.
    """
    m, p = field.m, field.p
    if isinstance(vec, np.ndarray):
        if vec.dtype.kind not in "iu" or vec.ndim != 2 or vec.shape[1] != m:
            raise BadShape(f"expected integer digit rows (len, {m}), got {vec.dtype} {vec.shape}")
        if vec.size and (vec.min() < 0 or vec.max() >= p):
            raise OutOfRange(f"digit outside [0, {p - 1}]")
        rows = vec.astype(np.int64)
    else:
        vec = tuple(vec)
        if not all(isinstance(e, FieldElement) for e in vec):
            raise BadShape(f"{what} is not a FieldElement")
        # identity first, so elements that ``field`` itself made cost no equality test
        if any(e.field is not field and e.field != field for e in vec):
            raise FieldMismatch(f"{what} from a different field")
        rows = np.array([e.digits for e in vec], dtype=np.int64).reshape(len(vec), m)
    rows.setflags(write=False)
    return rows


def matrix_digits(field: Field, matrix) -> np.ndarray:
    """Read-only (n, k, m) int64 digit array of an F_q matrix, LSB first: its one way in.

    ``matrix`` is an integer array of shape (n, k, m) or n rows of k
    ``FieldElement``s; the entries are checked by :func:`digit_rows`, and
    an empty or ragged matrix raises BadShape.
    """
    if isinstance(matrix, np.ndarray):
        if matrix.ndim != 3:
            raise BadShape(f"expected digit array (n, k, {field.m}), got shape {matrix.shape}")
        n, k = matrix.shape[:2]
        entries = matrix.reshape(n * k, matrix.shape[2])
    else:
        try:
            rows = [tuple(row) for row in matrix]
        except TypeError as exc:
            raise BadShape(f"matrix rows must be sequences: {exc}") from exc
        n, k = len(rows), len(rows[0]) if rows else 0
        if any(len(row) != k for row in rows):
            raise BadShape("ragged matrix")
        entries = [a for row in rows for a in row]
    if n == 0 or k == 0:
        raise BadShape(f"empty matrix ({n} x {k})")
    return digit_rows(field, entries, "matrix entry").reshape(n, k, field.m)


def digit_images(rows: np.ndarray, p: int) -> np.ndarray:
    """Exact images of (len, m) digit rows, the format's one width split.

    int64 while len * q < 2^63, so a sum of len images or differences
    stays in range; Python ints past that (F_{2^64}).
    """
    count, m = rows.shape
    if count * p**m < 2**63:
        return rows @ p ** np.arange(m, dtype=np.int64)
    return rows.astype(object) @ np.array([p**i for i in range(m)], dtype=object)


# ----------------------------------------------------------------------
# Digit-expanded linear operators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExpandedMatrix:
    """An F_q matrix rewritten as an F_p matrix on flattened digit rows.

    ``entries`` has shape (m*n, m*k); block (i, j) is the m x m
    multiplication-by-A[i][j] operator in the basis (1, x, ..., x^(m-1)),
    rows/columns ordered least-significant digit first.  Row m*i + l is
    the coefficient of x^l of output coordinate i.
    """

    entries: np.ndarray
    n: int
    k: int
    m: int
    p: int


@lru_cache(maxsize=32)
def _x_power_operators(field: Field) -> np.ndarray:
    """(m, m, m) stack whose slice l is the operator of multiplication by x^l.

    Column j of slice l holds the digits of x^(l+j) reduced by the modulus,
    so all m slices are read off the 2m-1 reduced powers x^0 .. x^(2m-2),
    each the remainder of one :func:`_poly_divmod`; slice 1 is the
    companion matrix of ``field.poly`` and slice l its l-th power.
    Memoised per field, that is per (p, m, poly): every equal Field shares
    the one table, which is read-only.
    """
    p, m = field.p, field.m
    modulus = field.poly + (1,)
    powers = np.zeros((2 * m - 1, m), dtype=np.int64)
    for e in range(2 * m - 1):
        rem = _poly_divmod([0] * e + [1], modulus, p)[1]
        powers[e, : len(rem)] = rem
    hankel = np.add.outer(np.arange(m), np.arange(m))  # [l, j] -> l + j
    table = powers[hankel].transpose(0, 2, 1)  # [l, row, j]
    table.setflags(write=False)
    return table


def expand_operator(matrix, field: Field) -> ExpandedMatrix:
    """Expand an n x k matrix over F_q into its (m*n) x (m*k) F_p operator.

    ``matrix`` is read through :func:`matrix_digits`.  Defining property:
    entries @ digits(x) == digits(A x) for every x in F_q^k, digits(x)
    being the flattened (k, m) digit rows of x (coordinate-major, LSB
    first).  Block (i, j) is sum_l digit_l(A[i][j]) * X^l for the
    multiplication-by-x^l operators X^l, so every block comes out of one
    contraction of the (n, k, m) digit array; no field product is formed.
    """
    digits = matrix_digits(field, matrix)
    n, k, m = digits.shape
    blocks = np.einsum("ijl,lab->iajb", digits, _x_power_operators(field)) % field.p
    return ExpandedMatrix(entries=blocks.reshape(m * n, m * k), n=n, k=k, m=m, p=field.p)


def top_digit_submatrix(expanded: ExpandedMatrix, r: int) -> np.ndarray:
    """Rows of the expanded operator for the top m-r digits of each output.

    Keeps all m*k columns: the unknown stays the full digit vector of the
    message, only the noisy low-digit rows are dropped.
    """
    m = expanded.m
    if not 0 <= r < m:
        raise OutOfRange(f"low-digit cutoff r = {r} outside [0, {m - 1}]")
    return expanded.entries.reshape(expanded.n, m, -1)[:, r:].reshape(-1, m * expanded.k)
