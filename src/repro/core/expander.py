"""Gabber-Galil expander graphs (Section III-A of the paper).

The paper builds its PRNG on the explicit expander construction of Gabber
and Galil [FOCS 1979].  For an integer ``m`` the vertex set is
``Z_m x Z_m`` (so ``n = m^2`` per side of the bipartite graph; the paper
says ``n = 2 m^2`` counting both sides).  A vertex ``(x, y)`` has exactly
seven neighbours:

====  =======================
k     neighbour of ``(x, y)``
====  =======================
0     ``(x, y)``
1     ``(x, 2x + y)``
2     ``(x, 2x + y + 1)``
3     ``(x, 2x + y + 2)``
4     ``(x + 2y, y)``
5     ``(x + 2y + 1, y)``
6     ``(x + 2y + 2, y)``
====  =======================

with all arithmetic modulo ``m``.  The edge expansion of this family is
``alpha(G) = (2 - sqrt(3)) / 2``.

Each of the seven neighbour maps is an *affine bijection* of
``Z_m x Z_m`` (map 0 is the identity); this is what makes the uniform
distribution stationary for the random walk and is property-tested in the
test suite.

The paper instantiates ``m = 2**32`` so a vertex packs into one 64-bit
word -- the value the generator emits.  For that size this module uses
``uint32`` wraparound arithmetic (no explicit ``%``), exactly as a CUDA
kernel's 32-bit registers would.  Smaller ``m`` (used by the spectral
analysis in :mod:`repro.core.spectral` and by the test-suite) takes the
general path with explicit reductions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.bits import pack_u32_pairs, unpack_u64
from repro.utils.checks import check_in_range, check_positive

__all__ = ["GabberGalilExpander", "DEGREE", "EDGE_EXPANSION_LOWER_BOUND"]

#: Degree of the Gabber-Galil construction used throughout the paper.
DEGREE = 7

#: Proven lower bound on the edge expansion of the family: (2 - sqrt(3)) / 2.
EDGE_EXPANSION_LOWER_BOUND = (2.0 - np.sqrt(3.0)) / 2.0

_U32 = np.uint32
_U64 = np.uint64

# (a, b, c) per neighbour map k, encoding either
#   y' = 2x + y + c   (axis == 'y', maps 1..3)  or
#   x' = x + 2y + c   (axis == 'x', maps 4..6)  or identity (map 0).
_Y_OFFSETS = (0, 1, 2)  # c for k = 1, 2, 3
_X_OFFSETS = (0, 1, 2)  # c for k = 4, 5, 6


class GabberGalilExpander:
    """A 7-regular Gabber-Galil expander on ``Z_m x Z_m``.

    Parameters
    ----------
    m : int
        Side modulus.  ``m = 2**32`` (the paper's choice) enables the fast
        wraparound path.  Any ``m >= 2`` is accepted.

    Examples
    --------
    >>> g = GabberGalilExpander(m=5)
    >>> g.neighbor(1, 2, 4)   # (x + 2y, y) mod 5 = (0, 2)
    (0, 2)
    >>> g.num_vertices
    25
    """

    def __init__(self, m: int = 2**32):
        check_positive("m", m)
        if m < 2:
            raise ValueError(f"m must be >= 2, got {m}")
        if m > 2**32:
            raise ValueError(
                f"m must be <= 2**32 so vertices fit in 64 bits, got {m}"
            )
        self.m = int(m)
        self._native = self.m == 2**32
        self.degree = DEGREE

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices on one side of the bipartite graph (m^2)."""
        return self.m * self.m

    @property
    def bits_per_vertex(self) -> int:
        """How many bits a packed vertex id occupies (64 for m = 2**32)."""
        return 2 * max(1, (self.m - 1).bit_length())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"GabberGalilExpander(m={self.m})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GabberGalilExpander) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("GabberGalilExpander", self.m))

    # ------------------------------------------------------------------
    # Neighbour maps
    # ------------------------------------------------------------------

    def _reduce(self, arr: np.ndarray) -> np.ndarray:
        """Reduce mod m (no-op on the native uint32-wraparound path)."""
        if self._native:
            return arr
        return arr % _U64(self.m)

    def _coerce(self, x, y) -> Tuple[np.ndarray, np.ndarray]:
        dtype = _U32 if self._native else _U64
        x = np.asarray(x, dtype=dtype)
        y = np.asarray(y, dtype=dtype)
        return x, y

    def neighbor_arrays(self, x, y, k) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized ``f(u, k)``: the k-th neighbour of vertices ``(x, y)``.

        ``x``, ``y``, ``k`` broadcast against each other.  ``k`` must hold
        values in ``0..6``.  Returns new ``(x', y')`` arrays; inputs are not
        modified.
        """
        x, y = self._coerce(x, y)
        k = np.asarray(k)
        if k.size and (k.min() < 0 or k.max() >= DEGREE):
            raise ValueError("neighbour index k must be in 0..6")
        x, y, k = np.broadcast_arrays(x, y, k)
        dtype = x.dtype
        two = dtype.type(2)

        nx = x.copy()
        ny = y.copy()

        # Maps 1..3: y' = 2x + y + (k - 1)
        sel = (k >= 1) & (k <= 3)
        if sel.any():
            c = (k[sel] - 1).astype(dtype)
            ny[sel] = self._reduce(two * x[sel] + y[sel] + c)

        # Maps 4..6: x' = x + 2y + (k - 4)
        sel = k >= 4
        if sel.any():
            c = (k[sel] - 4).astype(dtype)
            nx[sel] = self._reduce(x[sel] + two * y[sel] + c)

        return nx, ny

    def neighbor(self, x: int, y: int, k: int) -> Tuple[int, int]:
        """Scalar convenience wrapper around :meth:`neighbor_arrays`."""
        check_in_range("x", x, 0, self.m - 1)
        check_in_range("y", y, 0, self.m - 1)
        check_in_range("k", k, 0, DEGREE - 1)
        nx, ny = self.neighbor_arrays(
            np.asarray([x]), np.asarray([y]), np.asarray([k])
        )
        return int(nx[0]), int(ny[0])

    def neighbors(self, x: int, y: int) -> list[Tuple[int, int]]:
        """All seven neighbours of ``(x, y)`` in order ``k = 0..6``."""
        ks = np.arange(DEGREE)
        nx, ny = self.neighbor_arrays(
            np.full(DEGREE, x, dtype=np.int64),
            np.full(DEGREE, y, dtype=np.int64),
            ks,
        )
        return [(int(a), int(b)) for a, b in zip(nx, ny)]

    def inverse_neighbor_arrays(self, x, y, k) -> Tuple[np.ndarray, np.ndarray]:
        """Invert map ``k``: returns ``(x0, y0)`` with ``f((x0, y0), k) == (x, y)``.

        Every neighbour map is an affine bijection of ``Z_m x Z_m``:

        * maps 1..3 invert as ``y0 = y - 2x - c``;
        * maps 4..6 invert as ``x0 = x - 2y - c``;
        * map 0 is the identity.
        """
        x, y = self._coerce(x, y)
        k = np.asarray(k)
        if k.size and (k.min() < 0 or k.max() >= DEGREE):
            raise ValueError("neighbour index k must be in 0..6")
        x, y, k = np.broadcast_arrays(x, y, k)
        dtype = x.dtype
        two = dtype.type(2)
        mm = dtype.type(0) if self._native else dtype.type(self.m)

        px = x.copy()
        py = y.copy()

        sel = (k >= 1) & (k <= 3)
        if sel.any():
            c = (k[sel] - 1).astype(dtype)
            if self._native:
                py[sel] = y[sel] - two * x[sel] - c  # uint32 wraparound
            else:
                # Add 3m before subtracting to stay non-negative pre-reduction.
                py[sel] = (y[sel] + dtype.type(3) * mm - two * x[sel] - c) % mm

        sel = k >= 4
        if sel.any():
            c = (k[sel] - 4).astype(dtype)
            if self._native:
                px[sel] = x[sel] - two * y[sel] - c
            else:
                px[sel] = (x[sel] + dtype.type(3) * mm - two * y[sel] - c) % mm

        return px, py

    # ------------------------------------------------------------------
    # Vertex-id packing
    # ------------------------------------------------------------------

    def pack(self, x, y) -> np.ndarray:
        """Pack ``(x, y)`` pairs into integer vertex ids.

        For the native ``m = 2**32`` graph this is the 64-bit number the
        PRNG emits: ``(x << 32) | y``.  For general ``m`` the id is
        ``x * m + y``.
        """
        if self._native:
            return pack_u32_pairs(
                np.asarray(x, dtype=_U64), np.asarray(y, dtype=_U64)
            )
        x = np.asarray(x, dtype=_U64)
        y = np.asarray(y, dtype=_U64)
        return x * _U64(self.m) + y

    def unpack(self, vid) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`pack`."""
        if self._native:
            return unpack_u64(vid)
        vid = np.asarray(vid, dtype=_U64)
        return (vid // _U64(self.m)), (vid % _U64(self.m))

    # ------------------------------------------------------------------
    # Composed affine form (analysis helper)
    # ------------------------------------------------------------------

    def composed_affine(self, ks) -> Tuple[np.ndarray, np.ndarray]:
        """The affine map equal to applying neighbour maps ``ks`` in order.

        Since every step is affine over ``Z_m^2``, a whole walk collapses to
        ``v_out = A @ v_in + b (mod m)``.  Returns ``(A, b)`` as Python-int
        arrays (``A`` is 2x2, ``b`` length-2), reduced mod m.  Used by the
        analysis tooling and tests to cross-check the walk engine.
        """
        m = self.m
        A = np.array([[1, 0], [0, 1]], dtype=object)
        b = np.array([0, 0], dtype=object)
        for k in np.asarray(ks).ravel():
            k = int(k)
            if k == 0:
                continue
            if 1 <= k <= 3:
                step_A = np.array([[1, 0], [2, 1]], dtype=object)
                step_b = np.array([0, k - 1], dtype=object)
            elif 4 <= k <= 6:
                step_A = np.array([[1, 2], [0, 1]], dtype=object)
                step_b = np.array([k - 4, 0], dtype=object)
            else:
                raise ValueError("neighbour index k must be in 0..6")
            A = (step_A @ A) % m
            b = (step_A @ b + step_b) % m
        return A, b

    def apply_affine(self, A, b, x: int, y: int) -> Tuple[int, int]:
        """Apply an ``(A, b)`` pair from :meth:`composed_affine` to a vertex."""
        v = np.array([int(x), int(y)], dtype=object)
        out = (A @ v + b) % self.m
        return int(out[0]), int(out[1])
