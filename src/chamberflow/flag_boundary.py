"""The Furstenberg boundary of SL(n, R) as the full flag variety.

A flag is stored as a canonical orthogonal frame modulo diagonal signs;
two flags are equal when their flag distance is below 1e-8.
Transversality is the Bruhat big-cell criterion on a comparison matrix,
and boundary_margin_estimate gives the exact distance from a flag to the
complement of a Bruhat cell in closed form, from principal angles between
subspaces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotTransverse
from .linalg_core import (
    Config,
    DEFAULT_CONFIG,
    GroupElement,
    _freeze,
    _kan_stack,
    _lu_stack,
    sign_vectors,
)


@functools.cache
def k_iota(n: int) -> np.ndarray:
    """Antidiagonal permutation with the (1, n) entry sign fixed so det = +1,
    as one read-only array per n."""
    j = np.zeros((n, n))
    for i in range(n):
        j[i, n - 1 - i] = 1.0
    if np.linalg.det(j) < 0:
        j[0, n - 1] = -1.0
    j.setflags(write=False)
    return j


def canonicalize_rep(rep: np.ndarray) -> np.ndarray:
    """Fix the M-gauge of one frame or of each frame of a stack:
    largest-magnitude entry of each of the first n-1 columns positive (ties
    by lowest row index); the last column's sign is then forced by det = +1."""
    rep = np.array(rep, dtype=float)
    n = rep.shape[-1]
    frames = rep.reshape(-1, n, n)
    head = frames[:, :, : n - 1]
    rows = np.abs(head).argmax(axis=1)
    lead = head[np.arange(len(frames))[:, np.newaxis], rows, np.arange(n - 1)]
    head *= np.where(lead < 0, -1.0, 1.0)[:, np.newaxis, :]
    # the last column's sign is free for the flag; fix it so det = +1
    frames[:, :, n - 1] *= np.where(np.linalg.det(frames) < 0, -1.0, 1.0)[:, np.newaxis]
    return rep


@dataclass(frozen=True)
class Flag:
    """Point of the full flag variety: SO(n) frame modulo diagonal signs."""

    rep: np.ndarray

    def __post_init__(self):
        rep = np.asarray(self.rep, dtype=float)
        if np.linalg.norm(rep.T @ rep - np.eye(rep.shape[0])) > 1e-8:
            raise ValueError("flag representative must be orthogonal")
        object.__setattr__(self, "rep", _freeze(canonicalize_rep(rep)))

    @property
    def n(self) -> int:
        return self.rep.shape[0]


def standard_flag(n: int) -> Flag:
    return Flag(np.eye(n))


@functools.cache
def opposite_flag(n: int) -> Flag:
    """The flag of the antidiagonal frame, transverse to the standard one,
    as one frozen value per n."""
    return Flag(k_iota(n))


def _span_flag(mat: np.ndarray) -> Flag:
    """Flag of the nested column spans of an invertible matrix: its K-part."""
    return Flag(_kan_stack(mat[np.newaxis])[0][0])


def flag_of(g: GroupElement) -> Flag:
    """Flag of the nested column spans of g: K-part of its KAN decomposition."""
    return _span_flag(g.entries)


def act(g: GroupElement, xi: Flag) -> Flag:
    return _span_flag(g.entries @ xi.rep)


@functools.cache
def _sign_array(n: int) -> np.ndarray:
    out = np.asarray([m.signs for m in sign_vectors(n)], dtype=float)
    out.setflags(write=False)
    return out


def flag_distances(reps: np.ndarray, others: np.ndarray) -> np.ndarray:
    """flag_distance between flag representatives, broadcast over stacks of
    (n, n) frames."""
    n = reps.shape[-1]
    diffs = reps[..., np.newaxis, :, :] - others[..., np.newaxis, :, :] * _sign_array(n)[:, np.newaxis, :]
    return np.sqrt(np.min(np.einsum("...ij,...ij->...", diffs, diffs), axis=-1))


def flag_distance(xi: Flag, eta: Flag) -> float:
    """Chordal K-invariant metric: min over the sign group M of the
    Frobenius distance between representatives."""
    if xi.n != eta.n:
        raise ValueError("flags must share the ambient dimension")
    return float(flag_distances(xi.rep, eta.rep))


def flags_equal(xi: Flag, eta: Flag) -> bool:
    """flag_distance below 1e-8, however the canonical representatives tie."""
    return xi.n == eta.n and flag_distance(xi, eta) < 1e-8


def _comparisons(reps: np.ndarray, checks: np.ndarray) -> np.ndarray:
    """Comparison matrices J check^T rep, broadcast over stacks of (n, n)
    frames on either side; a pair is transverse exactly when its matrix is
    in the big cell. J is a signed permutation, so J check^T is exact."""
    return (k_iota(reps.shape[-1]) @ np.swapaxes(checks, -1, -2)) @ reps


def _pair_comparisons(pairs: list) -> np.ndarray:
    """The (N, n, n) stack of comparison matrices of a list of (xi,
    xi_check) flag pairs."""
    return _comparisons(np.stack([xi.rep for xi, _ in pairs]), np.stack([check.rep for _, check in pairs]))


def _comparison_transverse(c: np.ndarray, config: Config) -> np.ndarray:
    """is_transverse of each pair whose comparison matrix is one of an
    (N, n, n) stack, from one stacked LU."""
    first_fail = _lu_stack(c, config)[1]
    return first_fail == c.shape[-1]


def is_transverse(xi: Flag, xi_check: Flag, config: Config = DEFAULT_CONFIG) -> bool:
    return bool(_comparison_transverse(_comparisons(xi.rep, xi_check.rep)[np.newaxis], config)[0])


@functools.cache
def _so_directions(n: int, mesh: int) -> np.ndarray:
    """Deterministic unit-norm skew-symmetric directions, as one read-only
    array per (n, mesh); the first `mesh` entries of a fixed stream, so
    refinements extend coarser meshes."""
    dim = n * (n - 1) // 2
    rng = np.random.default_rng(20240229)
    dirs = []
    # coordinate directions first, then a reproducible random fill
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            x = np.zeros((n, n))
            x[i, j], x[j, i] = 1.0, -1.0
            basis.append(x / np.sqrt(2.0))
    for b in basis:
        dirs.append(b)
        dirs.append(-b)
    while len(dirs) < mesh:
        c = rng.standard_normal(dim)
        c /= np.linalg.norm(c)
        x = sum(ci * bi for ci, bi in zip(c, basis))
        dirs.append(x)
    out = np.asarray(dirs[:mesh])
    out.setflags(write=False)
    return out


_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def _rotations(directions: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """exp(t * X) for each skew-symmetric direction X of an (N, n, n) stack
    and angle t of an (N,) array: Rodrigues at n = 3, otherwise
    V diag(e^{-i t mu}) V* from one stacked eigh of the Hermitian
    i X = V diag(mu) V*. A zero angle gives exactly I."""
    n = directions.shape[-1]
    if n != 3:
        mu, v = np.linalg.eigh(1j * directions)
        turns = v * np.exp(-1j * angles[:, np.newaxis] * mu)[:, np.newaxis, :]
        out = (turns @ np.conj(np.swapaxes(v, -1, -2))).real
        out[angles == 0.0] = np.eye(n)
        return out
    theta = angles * np.sqrt(0.5 * (directions * directions).reshape(-1, 9).sum(axis=1))
    still = theta == 0.0
    k = directions * (angles / np.where(still, 1.0, theta))[:, np.newaxis, np.newaxis]
    out = (
        _EYE3
        + np.sin(theta)[:, np.newaxis, np.newaxis] * k
        + (1.0 - np.cos(theta))[:, np.newaxis, np.newaxis] * (k @ k)
    )
    out[still] = _EYE3
    return out


def _comparison_margins(c: np.ndarray, config: Config) -> np.ndarray:
    """boundary_margin_estimate of each pair whose comparison matrix is one
    of an (N, n, n) stack: one stacked Bruhat factorisation and one stacked
    SVD per leading block. The margin is 0 exactly at the pairs that fail
    the pivot test; a pair that passes it has every leading block
    invertible, so a positive margin.
    """
    n = c.shape[-1]
    first_fail = _lu_stack(c, config)[1]
    # the closed form is increasing in s_k, so its minimum is at min_k s_k;
    # s_1 = |c_11| (LAPACK's singular value of a 1 x 1 block is that, bit for bit)
    s = np.min(
        [np.abs(c[:, 0, 0])]
        + [np.linalg.svd(c[:, :k, :k], compute_uv=False)[:, -1] for k in range(2, n)],
        axis=0,
    )
    margin = 2.0 * s / np.sqrt(1.0 + np.sqrt(np.maximum(0.0, 1.0 - s * s)))
    return np.where(first_fail == n, margin, 0.0)


def boundary_margins(reps: np.ndarray, xi_check: Flag, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """boundary_margin_estimate of each flag representative of an (N, n, n)
    stack against one xi_check, from one stack of comparison matrices."""
    return _comparison_margins(_comparisons(reps, xi_check.rep), config)


def boundary_margin_estimate(
    xi: Flag, xi_check: Flag, config: Config = DEFAULT_CONFIG
) -> float:
    """Exact flag distance from xi to the complement of b(xi_check); 0 for
    non-transverse pairs.

    Let C = J xi_check^T xi be the comparison matrix. Its leading block
    C[:k, :k] pairs xi_k with the orthogonal complement of xi_check_{n-k},
    so s_k = sigma_min(C[:k, :k]) = sin(theta_k), where theta_k is the
    smallest principal angle between xi_k and xi_check_{n-k}. The
    complement of the cell is the union over k = 1..n-1 of the flags eta
    with eta_k meeting xi_check_{n-k}, and the distance is

        min_k sqrt(8) sin(theta_k / 2) = min_k 2 s_k / sqrt(1 + sqrt(1 - s_k^2)).

    The sine form is used because arccos of a cosine near 1 loses about
    half the digits.

    Upper bound: rotating xi in the plane of the k-th pair of principal
    vectors by theta_k gives a flag whose k-plane meets xi_check_{n-k}, at
    Frobenius distance ||I - R|| = sqrt(8) sin(theta_k / 2).

    Lower bound: if eta_k meets xi_check_{n-k}, the largest principal angle
    between eta_k and xi_k is at least theta_k, and so is the largest one
    between the complements eta_k^perp and xi_k^perp. By orthogonal
    Procrustes, each of the two column blocks (first k, last n - k) of
    xi.rep - eta.rep m, for any m in M, has Frobenius norm at least
    2 sin(theta_k / 2), so the whole difference has norm at least
    sqrt(8) sin(theta_k / 2).
    """
    return float(boundary_margins(xi.rep[np.newaxis], xi_check, config)[0])


def cell_margin(xi: Flag, xi_check: Flag, config: Config = DEFAULT_CONFIG) -> float:
    """boundary_margin_estimate, raising NotTransverse for a pair whose
    margin is 0. No library code calls it: it stays only because the
    benchmark's per-layer metrics look up flag_boundary.cell_margin by
    name, and goes with the benchmark's next change."""
    margin = boundary_margin_estimate(xi, xi_check, config)
    if margin == 0.0:
        raise NotTransverse("cell_margin requires a transverse pair")
    return margin
