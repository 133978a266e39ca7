"""Exact-shape matrix decompositions of SL(n, R).

Implements the KAN and KAN- Iwasawa decompositions, the Cartan KA+K
decomposition, the Jordan projection, and the Bruhat LU factorization
g = u_minus * diag(m) * exp(a) * u_plus for elements of the big cell.

All outputs follow a deterministic sign gauge so repeated calls are
bitwise identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, NonInvertible, NotInBigCell, OutOfDomain


@dataclass(frozen=True)
class Config:
    """The tolerances and budgets a run can set; a function takes `config`
    only when it, or a function it calls, reads one of these fields."""

    tol_minor: float = 1e-10     # Bruhat pivot threshold, relative to max |entry|
    tol_recon: float = 1e-9      # reconstruction tolerance
    tol_id: float = 1e-8         # identity-check tolerance
    tol_lox: float = 1e-6        # relative eigenvalue-moduli separation
    max_words: int = 200_000     # words one Schottky word sweep may enumerate
    max_power: int = 8           # largest power build_schottky tries to certify


DEFAULT_CONFIG = Config()

TOL_DET = 1e-9                   # relative determinant tolerance of GroupElement
MAX_SAMPLE_TRIES = 100           # Gaussian draws random_group_element may reject


def _trace_free(coords: np.ndarray) -> np.ndarray:
    """Project the last axis onto the trace-zero subspace (the normal form
    of CartanVector coordinates)."""
    return coords - coords.mean(axis=-1, keepdims=True)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=float))
    out.setflags(write=False)
    return out


def _cartan_normal_form(coords) -> np.ndarray:
    """CartanVector coordinates of one vector or of each row of a stack
    (the last axis): the trace-free projection, frozen. Raises ValueError
    if a vector still does not sum to 0."""
    coords = _freeze(_trace_free(np.asarray(coords, dtype=float)))
    if (np.abs(coords.sum(axis=-1)) > 1e-10).any():
        raise ValueError("CartanVector coordinates must sum to 0")
    return coords


@dataclass(frozen=True)
class GroupElement:
    """An n x n real matrix of determinant 1."""

    entries: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        mat = _freeze(self.entries)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "n", mat.shape[0])
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ValueError("GroupElement requires a square matrix of size >= 2")
        if not np.all(np.isfinite(mat)):
            raise ValueError("GroupElement entries must be finite")
        det = float(np.linalg.det(mat))
        excess = abs(det - 1.0)
        # excess > TOL_DET * max(1, prod_j |col_j|) (Hadamard's bound on |det|),
        # in logs, since the product overflows; hypot keeps each norm finite
        if excess > TOL_DET:
            with np.errstate(divide="ignore"):
                log_hadamard = float(np.log(np.hypot.reduce(mat, axis=0)).sum())
            if math.log(excess) - math.log(TOL_DET) > log_hadamard:
                raise ValueError(f"determinant {det} is not 1 within tolerance")

    def inv(self) -> "GroupElement":
        return GroupElement(np.linalg.inv(self.entries))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.entries @ other.entries)


def project_to_sl(mat: np.ndarray) -> GroupElement:
    """Scale (and sign-fix) an invertible matrix onto det = 1."""
    mat = np.asarray(mat, dtype=float).copy()
    det = np.linalg.det(mat)
    if det == 0 or not np.isfinite(det):
        raise NonInvertible("matrix is singular")
    if det < 0:
        mat[:, 0] = -mat[:, 0]
        det = -det
    mat /= det ** (1.0 / mat.shape[0])
    return GroupElement(mat)


@dataclass(frozen=True)
class CartanVector:
    """Element of the Cartan subalgebra: length-n vector summing to 0."""

    coords: np.ndarray
    tag: str | None = None  # None | "chamber_plus" | "chamber_plus_plus"

    def __post_init__(self):
        # project out the numerical drift of the trace-zero constraint
        object.__setattr__(self, "coords", _cartan_normal_form(self.coords))
        diffs = np.diff(self.coords)
        if self.tag == "chamber_plus" and np.any(diffs > 1e-12):
            raise ValueError("chamber_plus requires non-increasing coordinates")
        if self.tag == "chamber_plus_plus" and np.any(diffs >= 0):
            raise ValueError("chamber_plus_plus requires strictly decreasing coordinates")

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class SignVector:
    """Diagonal sign matrix in SO(n): signs in {+1,-1} with product +1."""

    signs: tuple

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        object.__setattr__(self, "signs", signs)
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        if int(np.prod(signs)) != 1:
            raise ValueError("product of signs must be +1")

    @property
    def n(self) -> int:
        return len(self.signs)

    def __mul__(self, other: "SignVector") -> "SignVector":
        return SignVector(tuple(a * b for a, b in zip(self.signs, other.signs)))

    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.signs, dtype=float))

    @staticmethod
    def identity(n: int) -> "SignVector":
        return SignVector((1,) * n)


@functools.cache
def sign_vectors(n: int) -> tuple:
    """All 2^(n-1) sign vectors with product +1, in a fixed order."""
    out = []
    for bits in range(1 << (n - 1)):
        head = tuple(-1 if (bits >> i) & 1 else 1 for i in range(n - 1))
        out.append(SignVector(head + (int(np.prod(head)),)))
    return tuple(out)


@dataclass(frozen=True)
class AMElement:
    """Element of AM = (positive diagonal, sign diagonal); group law is componentwise."""

    a: CartanVector
    m: SignVector

    def __post_init__(self):
        if self.a.n != self.m.n:
            raise ValueError("a and m must have matching size")

    @property
    def n(self) -> int:
        return self.a.n

    @staticmethod
    @functools.cache
    def identity(n: int) -> "AMElement":
        """The identity of AM, one frozen value per n."""
        return AMElement(CartanVector(np.zeros(n)), SignVector.identity(n))

    def __mul__(self, other: "AMElement") -> "AMElement":
        return AMElement(CartanVector(self.a.coords + other.a.coords), self.m * other.m)

    def inv(self) -> "AMElement":
        return AMElement(CartanVector(-self.a.coords), self.m)

    def __pow__(self, k: int) -> "AMElement":
        m = self.m if k % 2 else SignVector.identity(self.n)
        return AMElement(CartanVector(k * self.a.coords), m)

    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.m.signs, dtype=float) * np.exp(self.a.coords))


def am_distance(x: AMElement, y: AMElement) -> float:
    """Distance on AM: Euclidean on A within a connected component, +inf across."""
    if x.m.signs != y.m.signs:
        return float("inf")
    return float(np.linalg.norm(x.a.coords - y.a.coords))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of an (N, k) array, bit for bit: that is the
    square root of the row's dot product, and a (1, k) @ (k, 1) matmul takes
    the same dot routine."""
    return np.sqrt(np.matmul(x[:, np.newaxis, :], x[:, :, np.newaxis])[:, 0, 0])


@dataclass(frozen=True)
class IwasawaTriple:
    """(k, a, u) with k in SO(n), a in the Cartan subalgebra, u unitriangular."""

    k: np.ndarray
    a: CartanVector
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _freeze(self.k))
        object.__setattr__(self, "u", _freeze(self.u))

    def reconstruct(self) -> np.ndarray:
        return self.k @ np.diag(np.exp(self.a.coords)) @ self.u


def _kan_stack(mats: np.ndarray):
    """KAN of each matrix of an (N, n, n) stack: (k, log of the positive
    diagonal of the triangular factor, u), arrays over the stack. The logs
    are not yet projected to trace zero (CartanVector does that)."""
    q, r = np.linalg.qr(mats)
    if not np.all(np.isfinite(r)):
        raise NonInvertible("QR factor is not finite: the input is non-finite or overflows")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if np.any(diag == 0):
        raise NonInvertible("QR factor has a zero diagonal entry")
    d = np.sign(diag)
    k = q * d[..., np.newaxis, :]
    r = r * d[..., :, np.newaxis]
    rdiag = np.diagonal(r, axis1=-2, axis2=-1)
    return k, np.log(rdiag), r / rdiag[..., :, np.newaxis]


def _first_am(parts, refusal: str) -> AMElement:
    """The AMElement of the first entry of stacked (logs, signs, inside), as
    the section reads return them; OutOfDomain(refusal) when it is not inside."""
    logs, signs, inside = parts
    if not inside[0]:
        raise OutOfDomain(refusal)
    return AMElement(CartanVector(logs[0]), SignVector(signs[0]))


def iwasawa_kan(g: GroupElement) -> IwasawaTriple:
    """g = k exp(a) u with k in SO(n), u unit upper-triangular."""
    k, logs, u = _kan_stack(g.entries[np.newaxis])
    return IwasawaTriple(k[0], CartanVector(logs[0]), u[0])


def _flip(mat: np.ndarray) -> np.ndarray:
    """Conjugation by the antidiagonal permutation: reverse rows and columns."""
    return mat[::-1, ::-1]


def iwasawa_kan_minus(g: GroupElement) -> IwasawaTriple:
    """g = k exp(a) u with u unit lower-triangular, via the antidiagonal flip."""
    t = iwasawa_kan(GroupElement(_flip(g.entries)))
    return IwasawaTriple(_flip(t.k), CartanVector(t.a.coords[::-1]), _flip(t.u))


def cartan_kak(g: GroupElement):
    """g = k1 exp(a) k2 with a non-increasing (singular values) and k1, k2 in SO(n)."""
    u, s, vt = np.linalg.svd(g.entries)
    if np.linalg.det(u) < 0:
        # det(u) = det(v) since det(g) = 1 > 0; flip both into SO(n)
        u = u.copy()
        vt = vt.copy()
        u[:, -1] = -u[:, -1]
        vt[-1, :] = -vt[-1, :]
    a = CartanVector(np.log(s), tag="chamber_plus")
    return u, a, vt


def jordan_projection(g: GroupElement) -> CartanVector:
    """Non-increasing logs of the eigenvalue moduli, from the eigenvalues of
    np.linalg.eig (the route classify takes, so the two agree bit for bit
    on a loxodromic g)."""
    logs = np.log(np.abs(np.linalg.eig(g.entries)[0]))
    return CartanVector(np.sort(logs)[::-1], tag="chamber_plus")


def _lu_stack(mats: np.ndarray, config: Config):
    """Doolittle LU without pivoting of each matrix of an (N, n, n) stack.

    Returns (a, first_fail): the eliminated matrices, whose upper triangle
    is diag(m) exp(a) u_plus and whose strict lower triangle holds the unit
    lower factor (_unit_lower reads it), and, per matrix, the index of the
    first pivot at or below config.tol_minor relative to its largest entry
    (n when none is). Past its first failing pivot a matrix may fill with
    inf and nan, and its factors mean nothing.
    """
    a = np.array(mats, dtype=float)
    n = a.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1):
            # the factors are stored in place of the entries they eliminate
            a[:, k + 1:, k] /= a[:, k, k, np.newaxis]
            a[:, k + 1:, k + 1:] -= a[:, k + 1:, k, np.newaxis] * a[:, np.newaxis, k, k + 1:]
    threshold = config.tol_minor * np.abs(mats).max(axis=(-2, -1))
    # a pivot is final once reached, and every pivot before the first
    # failing one is a true (finite, nonzero) pivot
    small = np.abs(np.diagonal(a, axis1=-2, axis2=-1)) <= threshold[:, np.newaxis]
    first_fail = np.where(small.any(axis=1), small.argmax(axis=1), n)
    return a, first_fail


def _unit_lower(a: np.ndarray) -> np.ndarray:
    """The unit lower factors of an (N, n, n) stack that _lu_stack eliminated."""
    n = a.shape[-1]
    return np.where(np.tri(n, k=-1, dtype=bool), a, np.eye(n))


def bruhat_lu(g: GroupElement, config: Config = DEFAULT_CONFIG):
    """g = u_minus diag(m) exp(a) u_plus (Doolittle LU without pivoting).

    Raises NotInBigCell when a leading principal minor is below
    config.tol_minor relative to the largest entry of g.
    """
    a, first_fail = _lu_stack(g.entries[np.newaxis], config)
    k = int(first_fail[0])
    if k < g.n:
        raise NotInBigCell(k, float(a[0, k, k]))
    lower, a = _unit_lower(a)[0], np.triu(a[0])
    x = AMElement(CartanVector(np.log(np.abs(np.diag(a)))), SignVector(np.sign(np.diag(a))))
    u_plus = a / np.diag(a)[:, np.newaxis]
    return lower, x, u_plus


def random_group_element(rng: np.random.Generator, n: int) -> GroupElement:
    """Entrywise Gaussian sample projected onto SL(n, R); raises
    BudgetExceeded after MAX_SAMPLE_TRIES near-singular draws."""
    for _ in range(MAX_SAMPLE_TRIES):
        mat = rng.standard_normal((n, n))
        if abs(np.linalg.det(mat)) > 1e-6:
            return project_to_sl(mat)
    raise BudgetExceeded(f"no draw with |det| > 1e-6 in {MAX_SAMPLE_TRIES} tries")


def _random_rotations(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count draws of random_rotation as one (count, n, n) stack; the
    Gaussian block is drawn as count successive (n, n) draws would be."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, np.newaxis, :]
    q[:, :, -1] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[:, np.newaxis]
    return q


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random element of SO(n) (QR of a Gaussian, det-corrected)."""
    return _random_rotations(rng, n, 1)[0]
