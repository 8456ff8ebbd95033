"""Numeric continuous-time quantum walks.

The walk on a graph with adjacency matrix A evolves by the unitary
U(t) = exp(-i t A); perfect state transfer from vertex x to vertex y at
time t means |U(t)[y, x]| = 1.  This module provides the dense-numpy
machinery used to cross-check the exact eigenvalue certificates: one
eigendecomposition per graph, transfer fidelities read at the chosen
vertex pairs only, and a scan that derives the transfer time pi/g from
an integer spectrum and verifies the transfer (including at the odd
multiple 3 pi/g, and that it is *incomplete* at the half time).

Everything here is floating point and deliberately independent of the
character-sum route, so agreement between the two is evidence rather
than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, pi
from typing import Sequence

import numpy as np

__all__ = [
    "NonIntegralSpectrumError",
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
# rows per block of the exact eigendecomposition drift check, so that the
# check holds no n x n temporary
DRIFT_BLOCK_ROWS = 128


class NonIntegralSpectrumError(ValueError):
    """The numeric spectrum is not integral, so no time can be derived."""


@dataclass
class WalkSystem:
    """Eigendecomposition of a real symmetric adjacency matrix."""

    adjacency: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_adjacency(cls, adjacency) -> "WalkSystem":
        a = np.asarray(adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if np.abs(a - a.T).max() > TOL:
            raise ValueError("adjacency must be symmetric")
        w, v = np.linalg.eigh(a)
        drift = max(
            np.abs((v[i : i + DRIFT_BLOCK_ROWS] * w) @ v.T - a[i : i + DRIFT_BLOCK_ROWS]).max()
            for i in range(0, len(a), DRIFT_BLOCK_ROWS)
        )
        if drift > TOL:
            raise ValueError(f"eigendecomposition drift {drift:.3e} exceeds {TOL:.0e}")
        return cls(a, w, v)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def fidelities(self, t: float, pairs: Sequence[tuple[int, int]]) -> list[float]:
        """|exp(-i t A)[y, x]| for each pair (x, y), read off the eigenvector rows.

        The entry is sum_k v[y, k] v[x, k] exp(-i t lambda_k); its cosine and
        sine parts are two real sums, so no n x n unitary is formed. Each row is
        summed on its own, so a pair reads the same value in any batch.
        """
        xs, ys = np.asarray(pairs, dtype=int).reshape(-1, 2).T
        weights = self.eigenvectors[ys] * self.eigenvectors[xs]
        phases = t * self.eigenvalues
        re = (weights * np.cos(phases)).sum(axis=1)
        im = (weights * np.sin(phases)).sum(axis=1)
        return np.hypot(re, im).tolist()


def _as_walk(adjacency) -> WalkSystem:
    if isinstance(adjacency, WalkSystem):
        return adjacency
    return WalkSystem.from_adjacency(adjacency)


def integer_eigenvalues(walk: WalkSystem) -> np.ndarray:
    """Rounded spectrum, or :class:`NonIntegralSpectrumError` if off by > TOL."""
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
