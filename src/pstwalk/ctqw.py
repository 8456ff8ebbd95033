"""Numeric continuous-time quantum walks.

The walk on a graph with adjacency matrix A evolves by the unitary
U(t) = exp(-i t A); perfect state transfer from vertex x to vertex y at
time t means |U(t)[y, x]| = 1.  This module provides the dense-numpy
machinery used to cross-check the exact eigenvalue certificates: one
``eigh`` call per graph, transfer fidelities read at the chosen vertex
pairs only, and a scan that derives the transfer time pi/g from an
integer spectrum and verifies the transfer (including at the odd
multiple 3 pi/g, and that it is *incomplete* at the half time).

Every graph the certificates cover carries a pairing P: a fixed-point-free
involutive automorphism (x -> -x on the Cayley graphs, rH -> zrH on the
double-coset graph).  Given P, :meth:`WalkSystem.from_adjacency` writes A
in the basis (e_x + e_Px)/sqrt 2, (e_x - e_Px)/sqrt 2 over the pairs x < Px,
where it splits into the blocks A+ = A[lo, lo] + A[lo, P lo] and
A- = A[lo, lo] - A[lo, P lo] on P's +1 and -1 eigenspaces.  One stacked
``eigh`` diagonalises both half-size blocks, a quarter of the cubic work of
the n x n matrix, and each side's eigenvalues can be compared with the
exact rows of that sign.  Without a pairing the single block is A.

Everything here is floating point and deliberately independent of the
character-sum route, so agreement between the two is evidence rather
than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, pi
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NonIntegralSpectrumError",
    "PairingError",
    "WalkSystem",
    "integer_eigenvalues",
    "derive_transfer_time",
    "TransferReport",
    "pst_scan",
]


# symmetry, eigendecomposition drift and integrality tolerance
TOL = 1e-8
# how far short of 1 the transfer fidelity may fall
FIDELITY_TOL = 1e-9
# how far short of 1 the half-time fidelity must fall
MID_SLACK = 1e-3
# rows per slice of the symmetry, pairing and eigendecomposition drift
# checks, so that none of them holds an n x n temporary
CHECK_ROWS = 128


class NonIntegralSpectrumError(ValueError):
    """The numeric spectrum is not integral, so no time can be derived."""


class PairingError(ValueError):
    """The pairing is not a fixed-point-free involutive automorphism of A."""


def _row_slices(n: int):
    return (slice(i, i + CHECK_ROWS) for i in range(0, n, CHECK_ROWS))


def _checked_pairing(a: np.ndarray, pairing) -> np.ndarray:
    """``pairing`` as an index array, or :class:`PairingError` at the first bad vertex.

    The automorphism test A[P][:, P] == A is exact.
    """
    import numpy as np

    n = len(a)
    p = np.asarray(pairing)
    if p.shape != (n,) or not np.issubdtype(p.dtype, np.integer) or ((p < 0) | (p >= n)).any():
        raise PairingError(f"the pairing must map each of the {n} vertices to a vertex")
    vertices = np.arange(n)
    for what, bad in (("fixes", p == vertices), ("is not an involution at", p[p] != vertices)):
        if bad.any():
            raise PairingError(f"the pairing {what} vertex {int(bad.argmax())}")
    for rows in _row_slices(n):
        bad = (a[np.ix_(p[rows], p)] != a[rows]).any(axis=1)
        if bad.any():
            vertex = rows.start + int(bad.argmax())
            raise PairingError(f"the pairing is not an automorphism: it moves the edges of vertex {vertex}")
    return p


def _drift(blocks: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """Largest entry of V diag(w) V^T - A in the vertex basis.

    With two blocks a vertex-basis entry is (R+ +- R-)/2 for the block
    residuals R+ and R-, so its largest size is (|R+| + |R-|)/2.
    """
    vt = v.transpose(0, 2, 1)
    return max(
        (abs((v[:, rows] * w[:, None]) @ vt - blocks[:, rows]).sum(axis=0) / len(blocks)).max()
        for rows in _row_slices(blocks.shape[1])
    )


@dataclass
class WalkSystem:
    """Eigendecomposition of a real symmetric adjacency matrix, block by block.

    There is one block, A, or two, A+ and A- on the +1 and -1 eigenspaces of
    a pairing; ``block_signs`` names the side of each block, ``(None,)`` or
    ``(1, -1)``.  Vertex y enters row ``rows[y]`` of block j with coefficient
    ``signs[j, y] / sqrt(blocks)``.
    """

    eigenvalues: np.ndarray  # the sorted union of the blocks' eigenvalues
    block_eigenvalues: np.ndarray  # (blocks, m), each row ascending
    block_vectors: np.ndarray  # (blocks, m, m), eigenvectors as columns
    block_signs: tuple  # the pairing's eigenvalue on each block, None unpaired
    rows: np.ndarray  # (n,)
    signs: np.ndarray  # (blocks, n) of +-1

    @classmethod
    def from_adjacency(cls, adjacency, pairing=None) -> "WalkSystem":
        """Diagonalise A, or A+ and A- for a pairing P, with one ``eigh`` call.

        Raises :class:`PairingError` when ``pairing`` is given and is not a
        fixed-point-free involutive automorphism of A.
        """
        import numpy as np

        a = np.asarray(adjacency)
        if a.dtype.kind not in "if":
            a = a.astype(float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        n = len(a)
        if any(np.abs(a[rows] - a[:, rows].T).max() > TOL for rows in _row_slices(n)):
            raise ValueError("adjacency must be symmetric")
        if pairing is None:
            blocks, sides = a.astype(float, copy=False)[None], (None,)
            rows, signs = np.arange(n), np.ones((1, n))
        else:
            p = _checked_pairing(a, pairing)
            lo = np.flatnonzero(np.arange(n) < p)
            rows = np.empty(n, dtype=int)
            rows[lo] = rows[p[lo]] = np.arange(len(lo))
            signs = np.ones((2, n))
            signs[1, p[lo]] = -1
            # the two halves are read from A as it is; only the stack is float
            near, far = a[np.ix_(lo, lo)], a[np.ix_(lo, p[lo])]
            blocks, sides = np.empty((2, len(lo), len(lo))), (1, -1)
            np.add(near, far, out=blocks[0])
            np.subtract(near, far, out=blocks[1])
            del near, far
        w, v = np.linalg.eigh(blocks)
        drift = _drift(blocks, w, v)
        if drift > TOL:
            raise ValueError(f"eigendecomposition drift {drift:.3e} exceeds {TOL:.0e}")
        return cls(np.sort(w, axis=None), w, v, sides, rows, signs)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def fidelities(self, t: float, pairs: Sequence[tuple[int, int]]) -> list[float]:
        """|exp(-i t A)[y, x]| for each pair (x, y), read off the eigenvector rows.

        The entry is sum_j signs[j, y] signs[j, x] / blocks times
        sum_k v_j[rows[y], k] v_j[rows[x], k] exp(-i t lambda_jk); its cosine
        and sine parts are real sums, so no n x n unitary is formed. Each row
        is summed on its own, so a pair reads the same value in any batch.
        """
        import numpy as np

        xs, ys = np.asarray(pairs, dtype=int).reshape(-1, 2).T
        ry, rx = self.rows[ys], self.rows[xs]
        blocks = len(self.block_vectors)
        re = im = 0.0
        for v, lam, sign in zip(self.block_vectors, self.block_eigenvalues, self.signs):
            weights = v[ry] * v[rx]
            weights *= (sign[ys] * sign[xs] / blocks)[:, None]
            re = re + (weights * np.cos(t * lam)).sum(axis=1)
            im = im + (weights * np.sin(t * lam)).sum(axis=1)
        return np.hypot(re, im).tolist()


def _as_walk(adjacency) -> WalkSystem:
    if isinstance(adjacency, WalkSystem):
        return adjacency
    return WalkSystem.from_adjacency(adjacency)


def integer_eigenvalues(walk: WalkSystem) -> np.ndarray:
    """Rounded spectrum, or :class:`NonIntegralSpectrumError` if off by > TOL."""
    import numpy as np

    rounded = np.rint(walk.eigenvalues)
    drift = np.abs(walk.eigenvalues - rounded).max()
    if drift > TOL:
        raise NonIntegralSpectrumError(
            f"spectrum is not integral (largest deviation {drift:.3e}); "
            f"pass an explicit transfer time instead"
        )
    return rounded.astype(int)


def derive_transfer_time(walk: WalkSystem) -> tuple[int, float]:
    """(g, pi/g) for g the gcd of differences from the top eigenvalue."""
    ints = integer_eigenvalues(walk)
    theta0 = int(ints.max())
    g = 0
    for theta in ints:
        g = gcd(g, theta0 - int(theta))
    if g == 0:
        raise ValueError("all eigenvalues are equal; there is no walk")
    return g, pi / g


@dataclass(frozen=True)
class TransferReport:
    """Numeric verdict of a transfer scan."""

    ok: bool
    time: float
    times_checked: tuple[float, ...]
    min_fidelity: float
    mid_fidelity: float
    pairs_checked: int
    reason: str = ""


def pst_scan(
    adjacency,
    pairs: Sequence[tuple[int, int]],
    time: float | None = None,
) -> TransferReport:
    """Simulate the walk and check perfect state transfer on ``pairs``.

    With ``time`` omitted the spectrum must be integral and the time is
    derived as pi/g; the transfer is then also required at the odd
    multiple 3 pi/g.  The fidelity must reach 1 - ``FIDELITY_TOL`` at
    every checked time.  In both modes the fidelity at the *half* time must
    fall short of 1 by at least ``MID_SLACK``, so that a trivial
    always-returning walk cannot pass.
    """
    if not pairs:
        raise ValueError("no vertex pairs given")
    walk = _as_walk(adjacency)
    if time is None:
        _, tau = derive_transfer_time(walk)
        times = (tau, 3 * tau)
    else:
        tau = float(time)
        times = (tau,)
    min_fid = float(min(f for t in times for f in walk.fidelities(t, pairs)))
    mid_fid = float(max(walk.fidelities(tau / 2, pairs)))
    ok = bool(min_fid >= 1 - FIDELITY_TOL and mid_fid < 1 - MID_SLACK)
    reason = ""
    if min_fid < 1 - FIDELITY_TOL:
        reason = f"fidelity {min_fid:.12f} below 1 - {FIDELITY_TOL:.0e}"
    elif mid_fid >= 1 - MID_SLACK:
        reason = f"half-time fidelity {mid_fid:.6f} already complete"
    return TransferReport(
        ok=ok,
        time=tau,
        times_checked=times,
        min_fidelity=min_fid,
        mid_fidelity=mid_fid,
        pairs_checked=len(pairs),
        reason=reason,
    )
