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
double-coset graph).  The walk is split along a free cyclic symmetry sigma
of even order c whose power sigma^(c/2) is P: x -> s x u^-1 on a Cayley
graph, for a torus generator s with s^(|s|/2) = -I and a unipotent u
(c = p |s|), and rH -> s rH for a Singer element s of GL(2, q^2) on the
double-coset graph (c = (q + 1)(q^2 + 1)).  The walk reads only the stack
B[d] = A[lo, sigma^d lo] for one vertex lo_r on each of the m = n/c orbits,
q -+ 1 at a prime q, (q -+ 1) q/p at a power of p and q on the coset graph,
scattered from the graph's neighbour lists by :func:`graph_stack`.  In the
basis sigma^p lo_r, A is block circulant, so the Fourier vectors along each
orbit split it into the c blocks A_j = sum_d omega^(jd) B[d] of size m,
omega = exp(2 pi i / c) (Babai, *Spectra of Cayley graphs*, 1979; Davis,
*Circulant Matrices*, 1979).
Block c - j is the conjugate of block j, so one stacked ``eigh`` of the
blocks j = 0 ... c/2, complex Hermitian when c > 2, diagonalises A.  P acts
as (-1)^j on block j, so each side's eigenvalues can be compared with the
exact rows of that sign.  With c = 2 the blocks are the two real halves
A[lo, lo] +- A[lo, P lo]; without a symmetry the single block is A.
The checks are exact: sigma's orbits on the permutation, A = A^T as
B[-d] = B[d]^T.  An integer stack, such as the one-byte 0/1 stacks of the
explicit graphs, is read as it is; only the Fourier products are float.

Everything here is floating point and deliberately independent of the
character-sum route, so agreement between the two is evidence rather
than tautology.
"""

from __future__ import annotations

from math import gcd, pi
from typing import TYPE_CHECKING, Sequence

from . import scheme
from .record import Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NonIntegralSpectrumError",
    "PairingError",
    "WalkSystem",
    "check_symmetric",
    "graph_stack",
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
# rows per slice of the symmetry and drift checks, so that neither holds an n x n temporary
CHECK_ROWS = 128
# Fourier blocks per step of the fidelity sums, a fixed run so that a pair sums alike in any batch
FIDELITY_BLOCKS = 16


class NonIntegralSpectrumError(ValueError):
    """The numeric spectrum is not integral, so no time can be derived."""


class PairingError(ValueError):
    """The symmetry is not a free cyclic automorphism of A of even order."""


def _row_slices(n: int):
    return (slice(i, i + CHECK_ROWS) for i in range(0, n, CHECK_ROWS))


def check_symmetric(orbits: np.ndarray, stack: np.ndarray) -> None:
    """Refuse a stack with B[d][i, r] != B[-d][r, i] anywhere: exactly for integers, within TOL for floats.

    A[sigma^a lo_i, sigma^b lo_r] is B[b - a][i, r], so for an automorphism
    sigma this is the test of A = A^T.  Each slice of rows i is compared
    with a copy of the matching columns, so no temporary exceeds c slices.
    The refusal names the least asymmetric entry (x, y) of A in row-major order:
    x the first lo_i with a bad cell (d, i, r), y the least sigma^d lo_r of its cells.
    """
    import numpy as np

    back = -np.arange(len(stack)) % len(stack)
    for rows in _row_slices(stack.shape[1]):
        upper = stack[:, rows]
        lower = stack[:, :, rows].take(back, axis=0).transpose(0, 2, 1)
        bad = upper != lower if stack.dtype.kind in "ui" else np.abs(upper - lower) > TOL
        if bad.any():
            d, i, r = np.nonzero(bad)
            x, y = orbits[0, rows][i], orbits[d, r]
            k = int(np.argmin(x * orbits.size + y))
            a, b = upper[d[k], i[k], r[k]].item(), lower[d[k], i[k], r[k]].item()
            raise ValueError(f"adjacency must be symmetric: entry ({x[k]}, {y[k]}) is {a} but ({y[k]}, {x[k]}) is {b}")


def _refusal(order: int, reason: str) -> PairingError:
    if order == 2:
        return PairingError(f"the pairing {reason}")
    return PairingError(f"the pairing is not an involution at vertex 0, and the symmetry {reason}")


def _not_an_automorphism(order: int, detail: str) -> PairingError:
    return _refusal(order, f"{'' if order == 2 else f'of order {order} '}is not an automorphism: {detail}")


def _orbits(symmetry, n: int) -> np.ndarray:
    """The orbits of ``symmetry`` as a (c, m) table, row d holding sigma^d of each orbit's least vertex.

    The order c is the length of vertex 0's orbit.  Raises
    :class:`PairingError` at the first bad vertex unless sigma is a map of
    the n vertices with sigma^c the identity, no sigma^k for 0 < k < c fixes
    a vertex, and c is even: O(n c) gathers on the permutation alone.  With
    c = 2 sigma is the pairing; a sigma of any other order is not an
    involution at vertex 0, and its refusal says so first.
    """
    import numpy as np

    s = np.asarray(symmetry)
    if s.shape != (n,) or not np.issubdtype(s.dtype, np.integer) or ((s < 0) | (s >= n)).any():
        raise PairingError(f"the pairing must map each of the {n} vertices to a vertex")
    vertices = np.arange(n)
    if (s == vertices).any():
        raise PairingError(f"the pairing fixes vertex {int((s == vertices).argmax())}")
    c, x = 1, int(s[0])
    while x != 0 and c <= n:
        c, x = c + 1, int(s[x])
    if c > n:
        raise _refusal(c, "does not return vertex 0")
    if c % 2:
        raise _refusal(c, f"has odd order {c}")
    power, least = s, np.minimum(vertices, s)
    for k in range(2, c + 1):
        power = s[power]
        returned = power == vertices
        if k < c and returned.any():
            raise _refusal(c, f"of order {c} returns vertex {int(returned.argmax())} after {k} steps")
        least = np.minimum(least, power)
    if not returned.all():
        if c == 2:
            raise _refusal(c, f"is not an involution at vertex {int(returned.argmin())}")
        raise _refusal(c, f"of order {c} does not return vertex {int(returned.argmin())} after {c} steps")
    orbits = np.empty((c, n // c), dtype=np.int64)
    orbits[0] = np.flatnonzero(least == vertices)
    for d in range(1, c):
        orbits[d] = s[orbits[d - 1]]
    return orbits


def _row_sets(cols: np.ndarray) -> np.ndarray:
    """Each row of ``cols`` sorted, a repeated entry read as -1, so equal rows are equal sets."""
    import numpy as np

    cols = np.sort(cols, axis=1)
    cols[:, 1:][cols[:, 1:] == cols[:, :-1]] = -1
    cols.sort(axis=1)
    return cols


def _scan_automorphism(rows, symmetry: np.ndarray, order: int, count: int) -> None:
    """Refuse a sigma with sigma(N(x)) != N(sigma x) for one of the first ``count`` vertices x.

    Both sets are read from ``rows.neighbours`` as sorted rows in the narrowest
    signed type that holds n, about ``scheme.BLOCK_ENTRIES`` entries at a time
    (sorted, since np.unique and np.setxor1d load numpy.ma, 1.4 MB of RSS).
    """
    import numpy as np

    sigma = symmetry.astype(np.min_scalar_type(-len(symmetry)))
    step = max(1, scheme.BLOCK_ENTRIES // max(1, len(rows.connection)))
    for start in range(0, count, step):
        block = np.arange(start, min(start + step, count))
        image, near = sigma[rows.neighbours(block)], rows.neighbours(sigma[block])
        bad = (_row_sets(image) != _row_sets(near)).any(axis=1)
        if bad.any():
            raise _not_an_automorphism(order, f"it moves the edges of vertex {start + int(bad.argmax())}")


def graph_stack(graph) -> tuple[np.ndarray, np.ndarray]:
    """The orbit table of a :class:`~pstwalk.scheme.Graph`'s symmetry and its checked stack.

    sigma's structure is checked on the permutation (:func:`_orbits`).  When
    sigma is the map x -> s x v of the graph's ``translation``, sigma(x S) is
    s x S v and the neighbours of sigma(x) are s x v S, so vertex 0's
    neighbours decide that it is an automorphism (v S v^-1 = S; a class union
    S always passes); otherwise every vertex is scanned.  The stack is
    scattered from the neighbour lists of the orbits' least vertices, each
    neighbour sigma^d lo_r of lo_i marking B[d][i, r] once, and must satisfy
    B[-d] = B[d]^T.  Raises :class:`PairingError` or ``ValueError``.
    """
    import numpy as np

    rows, sigma = graph.translates, graph.symmetry
    orbits = _orbits(sigma, len(rows))
    (c, m), n = orbits.shape, len(rows)
    translated = graph.translation and np.array_equal(sigma, scheme.translation_map(rows.lookup, *graph.translation))
    _scan_automorphism(rows, sigma, c, 1 if translated else n)
    # vertex sigma^d lo_r is cell d m^2 + r of the flat stack, in the narrowest type that holds n m
    cell = np.empty(n, dtype=np.min_scalar_type(n * m))
    cell[orbits] = np.arange(0, n * m, m * m)[:, None] + np.arange(m)
    stack = np.zeros((c, m, m), dtype=np.uint8)
    step = max(1, scheme.BLOCK_ENTRIES // max(1, len(rows.connection)))
    for start in range(0, m, step):
        block = np.arange(start, min(start + step, m))
        stack.reshape(-1)[cell[rows.neighbours(orbits[0, block])] + (block[:, None] * m).astype(cell.dtype)] = 1
    del cell  # before the symmetry check, whose copies of the stack set the peak
    check_symmetric(orbits, stack)
    return orbits, stack


def _fourier_blocks(stack: np.ndarray) -> np.ndarray:
    """The blocks A_j = sum_d omega^(jd) B[d] for j = 0 ... c/2.

    The stack is read as float once.  The cosine and sine rows are made
    ``scheme.BLOCK_ENTRIES`` at a time, a run of j per product, so no temporary
    grows with c^2.  With c = 2 the blocks are B[0] + B[1] and B[0] - B[1],
    exactly, and with c = 1 the one block is B[0].
    """
    import numpy as np

    c, m = len(stack), stack.shape[1]
    if c == 1:
        return stack.astype(float, copy=False)
    if c == 2:
        blocks = np.empty((2, m, m))
        np.add(stack[0], stack[1], out=blocks[0], dtype=float)
        np.subtract(stack[0], stack[1], out=blocks[1], dtype=float)
        return blocks
    flat = stack.reshape(c, m * m).astype(float)
    half = c // 2 + 1
    blocks = np.empty((half, m * m), dtype=complex)
    step = max(1, scheme.BLOCK_ENTRIES // max(c, m * m))
    for start in range(0, half, step):
        j = np.arange(start, min(start + step, half))
        angles = 2 * pi / c * (np.outer(j, np.arange(c)) % c)
        blocks.real[start : start + len(j)] = np.cos(angles) @ flat
        blocks.imag[start : start + len(j)] = np.sin(angles) @ flat
    return blocks.reshape(half, m, m)


def _drift(blocks: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """Largest entry of V_j diag(w_j) V_j^H - A_j over the blocks.

    Each slice of rows is read as the conjugate, conj(V diag(w)) V^T -
    conj(A_j), so V^T stays a view.  A vertex-basis entry of the residual is
    an average of block entries, so it is no larger.
    """
    vt = v.transpose(0, 2, 1)
    return max(
        abs((v[:, rows] * w[:, None]).conj() @ vt - blocks[:, rows].conj()).max(initial=0.0)
        for rows in _row_slices(blocks.shape[1])
    )


def _counts(order: int) -> list[int]:
    """How many of the c Fourier blocks each block j = 0 ... c/2 stands for: itself and its conjugate."""
    return [1 if 2 * j in (0, order) else 2 for j in range(order // 2 + 1)]


class WalkSystem:
    """Eigendecomposition of a real symmetric adjacency matrix, block by block.

    Block j, for j = 0 ... c/2, is the Fourier block of a free cyclic
    symmetry of order ``order`` = c, or the one block A with ``order`` 1;
    ``block_signs`` names the pairing's eigenvalue (-1)^j on each, ``(None,)``
    without a symmetry.  Vertex x is sigma^p lo_r for r = ``rows[x]`` and
    p = ``offsets[x]``: it enters row r of block j with coefficient
    omega^(jp) / sqrt(c), and block c - j with the conjugate.  ``pairing`` is
    sigma^(c/2), ``None`` without a symmetry.
    """

    __slots__ = (
        "eigenvalues", "block_eigenvalues", "block_vectors", "block_signs",
        "order", "rows", "offsets", "pairing",
    )

    def __init__(
        self,
        eigenvalues: np.ndarray,  # the sorted union of all c blocks' eigenvalues, length n
        block_eigenvalues: np.ndarray,  # (c/2 + 1, m), each row ascending
        block_vectors: np.ndarray,  # (c/2 + 1, m, m), eigenvectors as columns
        block_signs: tuple,  # the pairing's eigenvalue on each block, None without a symmetry
        order: int,  # c
        rows: np.ndarray,  # (n,) the orbit of each vertex
        offsets: np.ndarray,  # (n,) its place on that orbit
        pairing: np.ndarray | None,  # (n,) sigma^(c/2)
    ):
        self.eigenvalues = eigenvalues
        self.block_eigenvalues = block_eigenvalues
        self.block_vectors = block_vectors
        self.block_signs = block_signs
        self.order = order
        self.rows = rows
        self.offsets = offsets
        self.pairing = pairing

    @classmethod
    def from_stack(cls, orbits: np.ndarray, stack: np.ndarray) -> "WalkSystem":
        """Diagonalise a graph from its checked stack B[d] = A[lo, sigma^d lo] with one ``eigh`` call.

        ``orbits`` is sigma's (c, m) orbit table, row d holding sigma^d of
        each orbit's least vertex; c = 1 is a graph without a symmetry.
        Raises ``ValueError`` when the decomposition drifts by more than
        ``TOL``.
        """
        import numpy as np

        c, m = orbits.shape
        n = c * m
        blocks = _fourier_blocks(stack)
        if c == 1:
            pairing, sides = None, (None,)
        else:
            pairing = np.empty(n, dtype=np.int64)
            pairing[orbits] = np.roll(orbits, -(c // 2), axis=0)
            sides = tuple((-1) ** j for j in range(len(blocks)))
        rows, offsets = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        rows[orbits], offsets[orbits] = np.arange(m), np.arange(c)[:, None]
        w, v = np.linalg.eigh(blocks)
        drift = _drift(blocks, w, v)
        if drift > TOL:
            raise ValueError(f"eigendecomposition drift {drift:.3e} exceeds {TOL:.0e}")
        union = np.sort(np.repeat(w, _counts(c), axis=0), axis=None)
        return cls(union, w, v, sides, c, rows, offsets, pairing)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def sides(self) -> dict:
        """Sorted eigenvalues on each side of the pairing, keyed by its sign (``None`` without one).

        A block that stands for itself and its conjugate counts twice.
        """
        import numpy as np

        parts: dict = {}
        for w, k, sign in zip(self.block_eigenvalues, _counts(self.order), self.block_signs):
            parts.setdefault(sign, []).append(np.repeat(w, k))
        return {sign: np.sort(np.concatenate(side)) for sign, side in parts.items()}

    def fidelities(self, t: float, pairs: Sequence[tuple[int, int]]) -> list[float]:
        """|exp(-i t A)[y, x]| for each pair (x, y), read off the eigenvector rows.

        The entry is (1/c) sum_j omega^(j (p_y - p_x)) sum_k v_j[r_y, k]
        conj(v_j[r_x, k]) exp(-i t lambda_jk) over all c blocks, r and p the
        ``rows`` and ``offsets``.  Blocks j and c - j are conjugate, so
        together they weigh each exp(-i t lambda_jk) with twice the real part
        of block j's term: every weight is real, and the cosine and sine
        parts are real sums.  No n x n unitary is formed, and each row is
        summed on its own, so a pair reads the same value in any batch.
        The entry depends only on (r_x, r_y, p_y - p_x mod c), so it is
        summed once per distinct triple, ``FIDELITY_BLOCKS`` blocks at a
        time: once per orbit for the pairs (x, sigma^(c/2) x).
        """
        import numpy as np

        xs, ys = np.asarray(pairs, dtype=int).reshape(-1, 2).T
        c, (blocks, m, _) = self.order, self.block_vectors.shape
        keys = (self.rows[xs] * m + self.rows[ys]) * c + (self.offsets[ys] - self.offsets[xs]) % c
        keys, back = np.unique(keys, return_inverse=True)
        rx, ry, shift = np.unravel_index(keys, (m, m, c))
        # vectors[r, j] is row r of block j: a key's weights over a run of blocks are one row
        vectors, counts = self.block_vectors.transpose(1, 0, 2), np.array(_counts(c)) / c
        re = im = 0.0
        for start in range(0, blocks, FIDELITY_BLOCKS):
            run = slice(start, start + FIDELITY_BLOCKS)
            # omega^(j shift) for each block j of the run, read at an angle below 2 pi
            phase = np.exp(2j * pi / c * (shift[:, None] * np.arange(blocks)[run] % c)) * counts[run]
            weights = (vectors[ry, run] * vectors[rx, run].conj() * phase[..., None]).real
            lam = t * self.block_eigenvalues[run]
            re = re + (weights * np.cos(lam)).reshape(len(keys), -1).sum(axis=1)
            im = im + (weights * np.sin(lam)).reshape(len(keys), -1).sum(axis=1)
        return np.hypot(re, im)[back.reshape(-1)].tolist()


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


class TransferReport(Record):
    """Numeric verdict of a transfer scan."""

    __slots__ = _fields = (
        "ok", "time", "times_checked", "min_fidelity", "mid_fidelity", "pairs_checked", "reason"
    )

    def __init__(
        self,
        ok: bool,
        time: float,
        times_checked: tuple[float, ...],
        min_fidelity: float,
        mid_fidelity: float,
        pairs_checked: int,
        reason: str = "",
    ):
        self._fill(ok, time, times_checked, min_fidelity, mid_fidelity, pairs_checked, reason)


def pst_scan(
    walk: WalkSystem,
    pairs: Sequence[tuple[int, int]],
    time: float | None = None,
) -> TransferReport:
    """Check perfect state transfer on ``pairs`` in a walk built by :meth:`WalkSystem.from_stack`.

    With ``time`` omitted the spectrum must be integral and the time is
    derived as pi/g; the transfer is then also required at the odd
    multiple 3 pi/g.  The fidelity must reach 1 - ``FIDELITY_TOL`` at
    every checked time.  In both modes the fidelity at the *half* time must
    fall short of 1 by at least ``MID_SLACK``, so that a trivial
    always-returning walk cannot pass.
    """
    if not pairs:
        raise ValueError("no vertex pairs given")
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
