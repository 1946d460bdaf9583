"""Slim Fly: the MMS/Hafner diameter-2 topology (Besta & Hoefler, SC'14).

The comparison baseline the paper cares most about.  For a prime power
``q = 4w + delta`` with ``delta in {-1, 0, 1}``, the graph has
``N = 2 q**2`` vertices ``(s, x, y)`` with ``s in {0, 1}`` and
``x, y in GF(q)``, network radix ``k = (3q - delta) / 2``, and diameter 2 —
reaching ``8/9`` of the Moore bound asymptotically (vs PolarFly's 1).

Adjacency (generator sets ``X``, ``X'`` built from a primitive element
``xi``):

* ``(0, x, y) ~ (0, x, y')``  iff  ``y - y' in X``
* ``(1, m, c) ~ (1, m, c')``  iff  ``c - c' in X'``
* ``(0, x, y) ~ (1, m, c)``   iff  ``y = m*x + c``

Diameter 2 requires the classical difference-set conditions
(``X = -X``, ``X u X' = GF(q)*``, ``X u (X+X) = GF(q)*`` and likewise for
``X'``); the constructor validates them so an invalid generator choice can
never silently produce a wrong baseline.
"""

from __future__ import annotations

from repro.experiments.registry import TOPOLOGIES
from repro.fields import GF, is_prime_power
from repro.topologies.base import Topology
from repro.utils.graph import Graph

__all__ = ["SlimFly", "slimfly_delta", "slimfly_order", "slimfly_radix", "feasible_slimfly_q"]


def slimfly_delta(q: int) -> "int | None":
    """The ``delta in {-1, 0, 1}`` with ``q = 4w + delta``, if any."""
    for delta in (-1, 0, 1):
        if (q - delta) % 4 == 0 and (q - delta) // 4 >= 1:
            return delta
    return None


def slimfly_order(q: int) -> int:
    """Number of routers: ``2 q**2``."""
    return 2 * q * q


def slimfly_radix(q: int) -> int:
    """Network radix ``(3q - delta) / 2``."""
    delta = slimfly_delta(q)
    if delta is None:
        raise ValueError(f"q={q} is not of the form 4w + delta")
    return (3 * q - delta) // 2


def feasible_slimfly_q(k: int) -> "int | None":
    """A prime power ``q`` realizing Slim Fly radix exactly ``k``, or None."""
    for delta in (-1, 0, 1):
        q, rem = divmod(2 * k + delta, 3)
        if rem == 0 and q >= 2 and slimfly_delta(q) == delta and is_prime_power(q):
            return q
    return None


class SlimFly(Topology):
    """The MMS-graph Slim Fly topology.

    Parameters
    ----------
    q:
        Prime power of the form ``4w + delta``, ``delta in {-1, 0, 1}``.
    concentration:
        Endpoints per router (``p``); the paper pairs q=23 with p=18.
    """

    def __init__(self, q: int, concentration: int = 0):
        if is_prime_power(q) is None:
            raise ValueError(f"Slim Fly requires a prime power q, got {q}")
        delta = slimfly_delta(q)
        if delta is None:
            raise ValueError(f"q={q} is not of the form 4w + delta")
        self.q = int(q)
        self.delta = delta
        self.w = (q - delta) // 4
        self.field = GF(q)
        self.X, self.Xp = self._generator_sets()
        self._validate_generators()
        graph = self._build_graph()
        super().__init__(f"SF(q={q})", graph, concentration)

    # ------------------------------------------------------------------
    # Generator sets
    # ------------------------------------------------------------------
    def _generator_sets(self) -> tuple[frozenset, frozenset]:
        F = self.field
        q, w, delta = self.q, self.w, self.delta
        xi = F.primitive_element
        powers = [1]
        for _ in range(q - 2):
            powers.append(int(F.mul(powers[-1], xi)))
        if delta == 1:
            # Quadratic residues / non-residues (q = 1 mod 4 so -1 is a QR).
            X = frozenset(powers[0::2])
            Xp = frozenset(powers[1::2])
        elif delta == -1:
            # Hafner's symmetric sets: X = {+-xi^(2i) : 0 <= i < w}.  The
            # negatives are the odd powers xi^(2i + 2w - 1); X' = xi * X.
            base = [powers[2 * i] for i in range(w)]
            X = frozenset(base) | frozenset(int(F.neg(b)) for b in base)
            Xp = frozenset(int(F.mul(xi, b)) for b in X)
        else:
            # delta == 0 (q = 2**a): characteristic 2, so symmetry is free.
            # Even powers 0, 2, ..., q-2 give q/2 distinct exponents mod
            # the odd modulus q-1; X' = xi * X then overlaps X in exactly
            # one element, so together they cover GF(q)*.  Each set's own
            # covering condition is checked by _validate_generators (it
            # holds for every q = 4 ... 64).
            base = [powers[2 * i] for i in range(q // 2)]
            X = frozenset(base)
            Xp = frozenset(int(F.mul(xi, b)) for b in X)
        return X, Xp

    def _validate_generators(self) -> None:
        """Check the difference-set conditions that force diameter 2."""
        F = self.field
        q = self.q
        nonzero = set(range(1, q))
        for name, S in (("X", self.X), ("X'", self.Xp)):
            if 0 in S:
                raise RuntimeError(f"{name} must not contain 0")
            if {int(F.neg(s)) for s in S} != set(S):
                raise RuntimeError(f"{name} is not symmetric (X != -X)")
            sums = {
                int(F.add(a, b)) for a in S for b in S
            }
            if not nonzero <= (set(S) | sums):
                raise RuntimeError(
                    f"{name} u ({name}+{name}) does not cover GF({q})*"
                )
        if not nonzero <= (set(self.X) | set(self.Xp)):
            raise RuntimeError("X u X' does not cover GF(q)*")
        intra = (self.q - self.delta) // 2
        if len(self.X) != intra or len(self.Xp) != intra:
            raise RuntimeError(
                f"generator sets must have size (q-delta)/2 = {intra}"
            )

    # ------------------------------------------------------------------
    # Graph
    # ------------------------------------------------------------------
    def vertex_id(self, s: int, x: int, y: int) -> int:
        """Dense id of vertex ``(s, x, y)``."""
        return (s * self.q + x) * self.q + y

    def vertex_tuple(self, v: int) -> tuple[int, int, int]:
        """Inverse of :meth:`vertex_id`."""
        v, y = divmod(v, self.q)
        s, x = divmod(v, self.q)
        return s, x, y

    def _build_graph(self) -> Graph:
        F = self.field
        q = self.q
        edges: list[tuple[int, int]] = []
        # Intra-subgraph edges: Cayley structure within each column.
        for s, gen in ((0, self.X), (1, self.Xp)):
            for x in range(q):
                for y in range(q):
                    u = self.vertex_id(s, x, y)
                    for d in gen:
                        y2 = int(F.add(y, d))
                        v = self.vertex_id(s, x, y2)
                        if u < v:
                            edges.append((u, v))
        # Cross edges: (0, x, y) ~ (1, m, c) iff y = m*x + c — vectorized
        # over all (x, m) pairs.
        for x in range(q):
            for m in range(q):
                mx = int(F.mul(m, x))
                for c in range(q):
                    y = int(F.add(mx, c))
                    edges.append(
                        (self.vertex_id(0, x, y), self.vertex_id(1, m, c))
                    )
        return Graph(2 * q * q, edges)

    @property
    def moore_bound_efficiency(self) -> float:
        """``N / (k**2 + 1)`` — about 8/9 asymptotically."""
        k = slimfly_radix(self.q)
        return slimfly_order(self.q) / (k * k + 1)


@TOPOLOGIES.register("slimfly", example="slimfly:conc=2,q=5")
def _slimfly_from_spec(q: int, conc: int = 0) -> SlimFly:
    return SlimFly(q, concentration=conc)
