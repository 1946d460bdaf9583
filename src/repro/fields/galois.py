"""Table-driven finite fields GF(q) for any prime power q.

Elements are encoded as integers ``0 .. q-1``: the element with polynomial
coefficients ``(c0, c1, ..., c_{m-1})`` over F_p (low degree first) is the
integer ``sum(c_i * p**i)``.  For prime fields the encoding is the value
itself, so arithmetic matches ordinary modular arithmetic.

All arithmetic is precomputed into numpy lookup tables (add/sub/mul/neg/inv)
at construction time, so every downstream operation — in particular the
O(N^2) dot-product adjacency construction of ER_q — is a vectorized gather
rather than a Python loop (per the hpc-parallel optimization guides).

Multiplication tables are derived from discrete log/antilog tables of a
primitive element, which also gives Slim Fly its generator sets for free.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.fields.primes import is_prime_power, prime_factors
from repro.fields.polynomials import (
    find_irreducible,
    poly_mod,
    poly_mul,
    poly_trim,
)

__all__ = ["FiniteField", "GF"]

#: Largest supported field order; tables are O(q^2) int64 entries.
MAX_ORDER = 4096


class FiniteField:
    """The finite field GF(q) with table-driven vectorized arithmetic.

    Use the :func:`GF` factory, which caches instances per order.

    Attributes
    ----------
    q, p, m:
        Field order, characteristic, and extension degree (``q == p**m``).
    modulus:
        Coefficients (low-first) of the irreducible modulus for ``m > 1``;
        ``(0, 1)`` (the polynomial ``x``) for prime fields.
    primitive_element:
        A fixed generator of the multiplicative group.
    """

    def __init__(self, q: int):
        pp = is_prime_power(q)
        if pp is None:
            raise ValueError(f"{q} is not a prime power; GF({q}) does not exist")
        if q > MAX_ORDER:
            raise ValueError(
                f"GF({q}) exceeds the supported table size (max order {MAX_ORDER})"
            )
        self.q = int(q)
        self.p, self.m = pp
        self.modulus = find_irreducible(self.p, self.m)
        self._build_tables()

    # ------------------------------------------------------------------
    # Element <-> polynomial encoding
    # ------------------------------------------------------------------
    def element_to_poly(self, e: int) -> tuple:
        """Base-p digit expansion of the element code (low degree first)."""
        digits = []
        e = int(e)
        for _ in range(self.m):
            digits.append(e % self.p)
            e //= self.p
        return poly_trim(digits)

    def poly_to_element(self, poly) -> int:
        """Inverse of :meth:`element_to_poly`."""
        e = 0
        for c in reversed(poly_trim(poly)):
            e = e * self.p + int(c)
        return e

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _poly_mul_elements(self, a: int, b: int) -> int:
        prod = poly_mul(self.element_to_poly(a), self.element_to_poly(b), self.p)
        return self.poly_to_element(poly_mod(prod, self.modulus, self.p))

    def _find_primitive(self) -> int:
        order = self.q - 1
        if order == 1:
            return 1
        checks = [order // r for r in prime_factors(order)]
        for cand in range(2, self.q):
            if all(self._element_pow_slow(cand, c) != 1 for c in checks):
                return cand
        raise RuntimeError("no primitive element found (impossible for a field)")

    def _element_pow_slow(self, base: int, exp: int) -> int:
        result = 1
        while exp > 0:
            if exp & 1:
                result = self._poly_mul_elements(result, base)
            base = self._poly_mul_elements(base, base)
            exp >>= 1
        return result

    def _build_tables(self) -> None:
        q, p, m = self.q, self.p, self.m
        codes = np.arange(q, dtype=np.int64)

        # Addition: digitwise mod-p over the base-p encoding, fully
        # vectorized via broadcasting (q x q x m gathers).
        digits = np.empty((q, m), dtype=np.int64)
        tmp = codes.copy()
        for i in range(m):
            digits[:, i] = tmp % p
            tmp //= p
        summed = (digits[:, None, :] + digits[None, :, :]) % p
        weights = p ** np.arange(m, dtype=np.int64)
        self._add = (summed * weights).sum(axis=2)
        negd = (p - digits) % p
        self._neg = (negd * weights).sum(axis=1)
        # Row-major like the others: the C route selector binds it as is.
        self._sub = np.ascontiguousarray(self._add[:, self._neg])

        # Multiplication via discrete logs of a primitive element.
        self.primitive_element = self._find_primitive()
        exp_table = np.empty(max(q - 1, 1), dtype=np.int64)
        acc = 1
        for i in range(q - 1):
            exp_table[i] = acc
            acc = self._poly_mul_elements(acc, self.primitive_element)
        log_table = np.zeros(q, dtype=np.int64)
        log_table[exp_table] = np.arange(q - 1)
        self._exp_table = exp_table
        self._log_table = log_table

        mul = np.zeros((q, q), dtype=np.int64)
        nz = codes[1:]
        logsum = (log_table[nz][:, None] + log_table[nz][None, :]) % (q - 1)
        mul[1:, 1:] = exp_table[logsum]
        self._mul = mul

        inv = np.zeros(q, dtype=np.int64)
        inv[nz] = exp_table[(-log_table[nz]) % (q - 1)]
        self._inv = inv

    # ------------------------------------------------------------------
    # Vectorized arithmetic (accept scalars or numpy integer arrays)
    # ------------------------------------------------------------------
    def add(self, a, b):
        """Field addition, elementwise."""
        return self._add[a, b]

    def sub(self, a, b):
        """Field subtraction, elementwise."""
        return self._sub[a, b]

    def mul(self, a, b):
        """Field multiplication, elementwise."""
        return self._mul[a, b]

    def neg(self, a):
        """Additive inverse, elementwise."""
        return self._neg[a]

    def inv(self, a):
        """Multiplicative inverse; raises on zero input."""
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def div(self, a, b):
        """Field division ``a / b``; raises when ``b`` contains zero."""
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        """Element power ``a**n`` (n >= 0), elementwise via log tables."""
        a = np.asarray(a)
        n = int(n)
        if n == 0:
            return np.ones_like(a)
        out = np.zeros_like(a)
        nz = a != 0
        logs = (self._log_table[a[nz]] * n) % (self.q - 1)
        out[nz] = self._exp_table[logs]
        return out if out.shape else int(out)

    # ------------------------------------------------------------------
    # 3-vector operations used by the ER_q construction
    # ------------------------------------------------------------------
    def dot(self, u, v):
        """Dot product of length-3 vectors over GF(q).

        ``u`` and ``v`` are integer arrays whose last axis has length 3 and
        broadcast against each other; returns the field codes of
        ``sum_i u_i * v_i``.
        """
        u = np.asarray(u)
        v = np.asarray(v)
        prod = self._mul[u, v]
        return self._add[self._add[prod[..., 0], prod[..., 1]], prod[..., 2]]

    def cross(self, u, v):
        """Cross product of length-3 vectors over GF(q) (last axis = 3)."""
        u = np.asarray(u)
        v = np.asarray(v)
        mul, sub = self._mul, self._sub
        c0 = sub[mul[u[..., 1], v[..., 2]], mul[u[..., 2], v[..., 1]]]
        c1 = sub[mul[u[..., 2], v[..., 0]], mul[u[..., 0], v[..., 2]]]
        c2 = sub[mul[u[..., 0], v[..., 1]], mul[u[..., 1], v[..., 0]]]
        return np.stack([c0, c1, c2], axis=-1)

    def left_normalize(self, vecs):
        """Scale nonzero 3-vectors so the first nonzero entry equals 1.

        This is the canonical projective-point representative used as the
        PolarFly vertex identity.  Vectorized over the leading axes.
        """
        vecs = np.atleast_2d(np.asarray(vecs))
        if np.any((vecs[..., 0] == 0) & (vecs[..., 1] == 0) & (vecs[..., 2] == 0)):
            raise ValueError("cannot normalize the zero vector")
        lead = np.where(
            vecs[..., 0] != 0,
            vecs[..., 0],
            np.where(vecs[..., 1] != 0, vecs[..., 1], vecs[..., 2]),
        )
        scale = self._inv[lead]
        return self._mul[scale[..., None], vecs]

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def elements(self) -> np.ndarray:
        """All element codes ``0..q-1``."""
        return np.arange(self.q, dtype=np.int64)

    def squares(self) -> np.ndarray:
        """The set of nonzero squares (quadratic residues) as a sorted array."""
        nz = np.arange(1, self.q, dtype=np.int64)
        return np.unique(self._mul[nz, nz])

    def is_square(self, a) -> bool:
        """True iff ``a`` is a square in GF(q) (0 counts as a square)."""
        a = int(a)
        if a == 0:
            return True
        if self.p == 2:
            return True  # squaring is a bijection in characteristic 2
        return int(self._log_table[a]) % 2 == 0


@lru_cache(maxsize=64)
def GF(q: int) -> FiniteField:
    """Cached accessor for GF(q); construction builds O(q^2) tables once."""
    return FiniteField(q)
