"""The Furstenberg boundary of SL(n, R) as the full flag variety.

A flag is stored as an orthogonal frame modulo diagonal signs; the
canonical representative makes flag equality a plain matrix comparison.
Transversality is the Bruhat big-cell criterion on a comparison matrix,
and cell_margin estimates the distance from a flag to the complement of
a Bruhat cell by bisection along geodesics of SO(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotInBigCell, NotTransverse
from .linalg_core import (
    Config,
    DEFAULT_CONFIG,
    GroupElement,
    _freeze,
    bruhat_lu,
    iwasawa_kan,
    leading_minors,
    sign_vectors,
)


def k_iota(n: int) -> np.ndarray:
    """Antidiagonal permutation with the (1, n) entry sign fixed so det = +1."""
    j = np.zeros((n, n))
    for i in range(n):
        j[i, n - 1 - i] = 1.0
    if np.linalg.det(j) < 0:
        j[0, n - 1] = -1.0
    return j


def canonicalize_rep(rep: np.ndarray) -> np.ndarray:
    """Fix the M-gauge: largest-magnitude entry of each of the first n-1
    columns positive (ties by lowest row index); the last column's sign is
    then forced by det = +1."""
    rep = np.asarray(rep, dtype=float).copy()
    n = rep.shape[0]
    for j in range(n - 1):
        i = int(np.argmax(np.abs(rep[:, j])))
        if rep[i, j] < 0:
            rep[:, j] = -rep[:, j]
    # the last column's sign is free for the flag; fix it so det = +1
    if np.linalg.det(rep) < 0:
        rep[:, n - 1] = -rep[:, n - 1]
    return rep


@dataclass(frozen=True)
class Flag:
    """Point of the full flag variety: SO(n) frame modulo diagonal signs."""

    rep: np.ndarray
    canonical: bool = False

    def __post_init__(self):
        rep = np.asarray(self.rep, dtype=float)
        if np.linalg.norm(rep.T @ rep - np.eye(rep.shape[0])) > 1e-8:
            raise ValueError("flag representative must be orthogonal")
        if not self.canonical:
            rep = canonicalize_rep(rep)
            object.__setattr__(self, "canonical", True)
        object.__setattr__(self, "rep", _freeze(rep))

    @property
    def n(self) -> int:
        return self.rep.shape[0]


def flags_equal(xi: Flag, eta: Flag, tol: float = 1e-8) -> bool:
    return xi.n == eta.n and bool(np.allclose(xi.rep, eta.rep, atol=tol))


def standard_flag(n: int) -> Flag:
    return Flag(np.eye(n))


def opposite_flag(n: int) -> Flag:
    """The flag of the antidiagonal frame, transverse to the standard one."""
    return Flag(k_iota(n))


def flag_of(g: GroupElement, config: Config = DEFAULT_CONFIG) -> Flag:
    """Flag of the nested column spans of g: K-part of its KAN decomposition."""
    return Flag(iwasawa_kan(g, config).k)


def act(g: GroupElement, xi: Flag, config: Config = DEFAULT_CONFIG) -> Flag:
    return flag_of(GroupElement(g.entries @ xi.rep), config)


_SIGN_ARRAY_CACHE: dict = {}


def _sign_array(n: int) -> np.ndarray:
    cached = _SIGN_ARRAY_CACHE.get(n)
    if cached is None:
        cached = np.asarray([m.signs for m in sign_vectors(n)], dtype=float)
        _SIGN_ARRAY_CACHE[n] = cached
    return cached


def flag_distance(xi: Flag, eta: Flag) -> float:
    """Chordal K-invariant metric: min over the sign group M of the
    Frobenius distance between representatives."""
    if xi.n != eta.n:
        raise ValueError("flags must share the ambient dimension")
    diffs = xi.rep[np.newaxis, :, :] - eta.rep[np.newaxis, :, :] * _sign_array(xi.n)[:, np.newaxis, :]
    return float(np.sqrt(np.min(np.einsum("kij,kij->k", diffs, diffs))))


def comparison_matrix(xi: Flag, xi_check: Flag) -> GroupElement:
    """Matrix whose big-cell membership detects transversality of (xi, xi_check)."""
    n = xi.n
    return GroupElement(k_iota(n) @ xi_check.rep.T @ xi.rep)


def is_transverse(xi: Flag, xi_check: Flag, config: Config = DEFAULT_CONFIG) -> bool:
    try:
        bruhat_lu(comparison_matrix(xi, xi_check), config)
        return True
    except NotInBigCell:
        return False


def minor_margin(xi: Flag, xi_check: Flag) -> float:
    """Heuristic transversality margin: min |leading principal minor| of the
    comparison matrix. Coordinate quantity, not a distance."""
    return float(np.min(np.abs(leading_minors(comparison_matrix(xi, xi_check).entries))))


_DIRECTION_CACHE: dict = {}


def _so_directions(n: int, mesh: int) -> np.ndarray:
    """Deterministic unit-norm skew-symmetric directions; the first `mesh`
    entries of a fixed stream, so refinements extend coarser meshes."""
    cached = _DIRECTION_CACHE.get(n)
    if cached is not None and len(cached) >= mesh:
        return cached[:mesh]
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
    _DIRECTION_CACHE[n] = out
    return out


_EYE3 = np.eye(3)


def _rotation(direction: np.ndarray, t: float) -> np.ndarray:
    """exp(t * direction) for a skew-symmetric direction (Rodrigues for n = 3)."""
    n = direction.shape[0]
    if n == 3:
        theta = t * float(np.sqrt(0.5 * (direction * direction).sum()))
        if theta == 0.0:
            return _EYE3.copy()
        k = direction * (t / theta)
        return _EYE3 + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)
    return scipy.linalg.expm(t * direction)


def _in_big_cell(mat: np.ndarray, tol_minor: float) -> bool:
    """Pivot loop of the Bruhat LU, success/failure only (no factor output)."""
    a = mat.copy()
    n = a.shape[0]
    scale = float(np.abs(mat).max())
    for k in range(n - 1):
        piv = a[k, k]
        if abs(piv) <= tol_minor * scale:
            return False
        factors = a[k + 1:, k] / piv
        a[k + 1:, k:] -= np.outer(factors, a[k, k:])
    return abs(a[n - 1, n - 1]) > tol_minor * scale


def _leading_minor_values(mat: np.ndarray) -> np.ndarray:
    """Leading principal minors det(mat[:k,:k]) for k = 1..n-1 (the n-th is
    the constant determinant along a geodesic and never vanishes)."""
    n = mat.shape[0]
    if n == 3:
        m1 = mat[0, 0]
        m2 = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        return np.array([m1, m2])
    return np.array([np.linalg.det(mat[: k + 1, : k + 1]) for k in range(n - 1)])


def _boundary_exit_distance(
    xi: Flag,
    xi_check: Flag,
    direction: np.ndarray,
    config: Config,
    coarse_steps: int = 24,
    bisect_iters: int = 30,
) -> float:
    """Flag distance from xi to the first boundary crossing of b(xi_check)
    along the left geodesic exp(t * direction) . xi; inf if none before t_max.

    The complement of the cell is a hypersurface, so crossings are isolated
    in t: they are located as sign changes (or near-zero dips) of the
    leading principal minors of the comparison matrix, then bisected.
    """
    base_left = k_iota(xi.n) @ xi_check.rep.T
    xi_rep = xi.rep
    scale = 1.0  # comparison matrices are orthogonal

    def minors_at(t: float) -> np.ndarray:
        return _leading_minor_values(base_left @ _rotation(direction, t) @ xi_rep)

    t_max = np.pi
    ts = np.linspace(0.0, t_max, coarse_steps + 1)
    prev_minors = minors_at(0.0)
    hit = None
    for i in range(1, len(ts)):
        cur = minors_at(ts[i])
        crossing = (np.sign(cur) != np.sign(prev_minors)) | (
            np.abs(cur) <= config.tol_minor * scale
        )
        if np.any(crossing):
            hit = (ts[i - 1], ts[i], int(np.argmax(crossing)))
            break
        prev_minors = cur
    if hit is None:
        return np.inf
    lo, hi, k = hit
    f_lo = minors_at(lo)[k]
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        f_mid = minors_at(mid)[k]
        if np.sign(f_mid) == np.sign(f_lo) and abs(f_mid) > config.tol_minor * scale:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    boundary = Flag(_rotation(direction, hi) @ xi_rep)
    return flag_distance(xi, boundary)


def cell_margin(
    xi: Flag,
    xi_check: Flag,
    mesh: int = 64,
    config: Config = DEFAULT_CONFIG,
    certified: bool = True,
) -> float:
    """Lower bound on the distance from xi to the complement of b(xi_check).

    For n = 2 the complement is the single flag xi_check and the value is
    exact. Otherwise the boundary is scanned by geodesic bisection along a
    deterministic direction mesh (refinements extend coarser meshes), and
    the certified value applies a mesh-resolution deflation factor.
    """
    if not is_transverse(xi, xi_check, config):
        raise NotTransverse("cell_margin requires a transverse pair")
    n = xi.n
    if n == 2:
        return flag_distance(xi, xi_check)
    best = np.inf
    for direction in _so_directions(n, mesh):
        best = min(best, _boundary_exit_distance(xi, xi_check, direction, config))
    if not np.isfinite(best):
        return 0.0
    factor = max(0.0, 1.0 - 1.0 / np.sqrt(mesh)) if certified else 1.0
    return best * factor


def boundary_margin_estimate(
    xi: Flag, xi_check: Flag, mesh: int = 8, config: Config = DEFAULT_CONFIG
) -> float:
    """Cheap distance-to-cell-boundary estimate used by sampling loops.

    Returns 0 for non-transverse pairs instead of raising.
    """
    if not is_transverse(xi, xi_check, config):
        return 0.0
    if xi.n == 2:
        return flag_distance(xi, xi_check)
    best = np.inf
    for direction in _so_directions(xi.n, mesh):
        best = min(
            best,
            _boundary_exit_distance(
                xi, xi_check, direction, config, coarse_steps=12, bisect_iters=12
            ),
        )
    return 0.0 if not np.isfinite(best) else best
