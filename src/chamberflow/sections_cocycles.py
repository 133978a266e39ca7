"""Bruhat cross-sections, transition maps, signed AM-cocycles, and
Bruhat-Hopf coordinates.

A section is determined by its base flag (its domain is the Bruhat cell
opposite to the base) and an AM offset; the unipotent kind evaluates to
translated unit lower-triangular matrices, the compact kind to their
orthogonal parts. An optional left translation supports the K_r-translated
families used by the equicontinuity estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotInBigCell, NotTransverse, OutOfDomain
from .linalg_core import (
    AMElement,
    CartanVector,
    Config,
    DEFAULT_CONFIG,
    GroupElement,
    SignVector,
    _kan_stack,
    _lu_stack,
    _row_norms,
    bruhat_lu,
    iwasawa_kan,
)
from .flag_boundary import Flag, act, boundary_margin_estimate, flag_of, k_iota


@dataclass(frozen=True)
class Section:
    """Bruhat cross-section descriptor.

    kind: "unipotent" or "compact"; base: the flag whose opposite Bruhat
    cell is the domain; offset: right AM translation; translate: optional
    left translation by an element of K (h.s with (h.s)(xi) = h s(h^-1 xi)),
    or an (N, n, n) stack of them, one per flag of a stacked evaluation.
    """

    kind: str
    base: Flag
    offset: AMElement
    translate: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("unipotent", "compact"):
            raise ValueError("section kind must be 'unipotent' or 'compact'")
        if self.translate is not None:
            t = np.asarray(self.translate, dtype=float)
            t.setflags(write=False)
            object.__setattr__(self, "translate", t)

    @property
    def n(self) -> int:
        return self.base.n

    def with_offset(self, x: AMElement) -> "Section":
        return Section(self.kind, self.base, self.offset * x, self.translate)


def unipotent_section(base: Flag) -> Section:
    return Section("unipotent", base, AMElement.identity(base.n))


def compact_section(base: Flag) -> Section:
    return Section("compact", base, AMElement.identity(base.n))


def _base_frame(base: Flag) -> np.ndarray:
    """The h in K with h . (opposite of the standard flag) = base."""
    return base.rep @ k_iota(base.n).T


def eval_sections(
    s: Section, reps: np.ndarray, config: Config = DEFAULT_CONFIG
) -> tuple[np.ndarray, np.ndarray]:
    """eval_section at each flag representative of an (N, n, n) stack.

    Returns the (N, n, n) values and the mask of the flags in the section's
    domain; the value at a flag outside it is a placeholder.
    """
    n = s.n
    if s.translate is not None:
        reps = np.swapaxes(s.translate, -1, -2) @ reps
    h = _base_frame(s.base)
    # [e](zeta): the unique u in N- with u . (standard flag) = zeta
    lower, _, first_fail = _lu_stack(h.T @ reps, config)
    inside = first_fail == n
    value = h @ np.where(inside[:, np.newaxis, np.newaxis], lower, np.eye(n))
    if s.kind == "compact":
        value = _kan_stack(value)[0]
    value = value @ s.offset.matrix()
    if s.translate is not None:
        value = s.translate @ value
    return value, inside


def eval_section(s: Section, xi: Flag, config: Config = DEFAULT_CONFIG) -> GroupElement:
    """Evaluate the section at xi; the result projects to xi under flag_of."""
    value, inside = eval_sections(s, xi.rep[np.newaxis], config)
    if not inside[0]:
        raise OutOfDomain("flag is not transverse to the section base")
    return GroupElement(value[0])


AM_PART_TOL = 1e-8   # largest strict lower part, relative, of an (AM)N matrix


def _upper_am_part(mat: np.ndarray, context: str) -> AMElement:
    """Read the AM part of a matrix expected in (AM)N (upper triangular)."""
    n = mat.shape[0]
    strict_lower = np.linalg.norm(np.tril(mat, -1))
    scale = max(1.0, float(np.abs(mat).max()))
    if strict_lower > AM_PART_TOL * scale:
        raise OutOfDomain(
            f"{context}: strict lower part {strict_lower:.3e} does not vanish"
        )
    diag = np.diag(mat)
    signs = np.sign(diag)
    if np.any(diag == 0) or np.prod(signs) < 0:
        raise OutOfDomain(f"{context}: diagonal has a zero entry or sign product -1")
    return AMElement(
        CartanVector(np.log(np.abs(diag))),
        SignVector(tuple(int(v) for v in signs)),
    )


def transitions(
    s: Section, s2: Section, reps: np.ndarray, config: Config = DEFAULT_CONFIG
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """transition at each flag representative of an (N, n, n) stack.

    Returns (logs, signs, inside): the (N, n) logs of the A part, not yet
    projected to trace zero (CartanVector does that), the (N, n) signs of
    the M part, and the mask of the flags where T is defined: inside both
    section domains, with an AM-valued comparison.
    """
    n = s.n
    v, inside = eval_sections(s, reps, config)
    v2, inside2 = eval_sections(s2, reps, config)
    k, logs, _ = _kan_stack(np.linalg.solve(v, v2))
    # k-part must be a diagonal sign matrix for T to land in AM
    off = (k * (1.0 - np.eye(n))).reshape(len(k), -1)
    k_off = _row_norms(off)
    signs = np.sign(np.diagonal(k, axis1=-2, axis2=-1))
    return logs, signs, inside & inside2 & (k_off <= 1e-7)


def transition(s: Section, s2: Section, xi: Flag, config: Config = DEFAULT_CONFIG) -> AMElement:
    """T_{s,s2}(xi): the unique AM element with s2(xi) in s(xi) N T."""
    logs, signs, inside = transitions(s, s2, xi.rep[np.newaxis], config)
    if not inside[0]:
        raise OutOfDomain("xi is outside a section domain, or T_{s,s2}(xi) is not in AM")
    return AMElement(CartanVector(logs[0]), SignVector(tuple(int(v) for v in signs[0])))


def cocycle(
    s1: Section,
    s0: Section,
    g: GroupElement,
    xi: Flag,
    config: Config = DEFAULT_CONFIG,
) -> AMElement:
    """beta_{s1,s0}(g, xi): the unique AM element with
    g s0(xi) in s1(g xi) beta N."""
    gxi = act(g, xi)
    d = np.linalg.solve(
        eval_section(s1, gxi, config).entries, g.entries @ eval_section(s0, xi, config).entries
    )
    return _upper_am_part(d, "cocycle")


def iwasawa_cocycle(g: GroupElement, xi: Flag) -> CartanVector:
    """sigma(g, xi): the a-part of the KAN decomposition of g * rep(xi)."""
    return iwasawa_kan(GroupElement(g.entries @ xi.rep)).a


@dataclass(frozen=True)
class BHCoordinates:
    """Bruhat-Hopf coordinates (xi, xi_check; x) relative to a section."""

    xi: Flag
    xi_check: Flag
    x: AMElement
    section: Section


def to_bh(g: GroupElement, s: Section, config: Config = DEFAULT_CONFIG) -> BHCoordinates:
    """(g eta0, g eta0_check ; x)_s with g = s(g eta0) u x, u in N, x in AM."""
    xi = flag_of(g)
    xi_check = flag_of(GroupElement(g.entries @ k_iota(g.n)))
    d = np.linalg.solve(eval_section(s, xi, config).entries, g.entries)
    x = _upper_am_part(d, "to_bh")
    return BHCoordinates(xi, xi_check, x, s)


def _n_part_from_flags(
    s: Section, xi: Flag, xi_check: Flag, config: Config
) -> np.ndarray:
    """The unique u in N with s(xi) u . (opposite standard flag) = xi_check."""
    n = xi.n
    e = np.linalg.solve(eval_section(s, xi, config).entries, xi_check.rep) @ k_iota(n).T
    # e = u * (lower); flip to read the unit upper factor off a plain LU
    flipped = e[::-1, ::-1]
    try:
        lower, x, upper = bruhat_lu(GroupElement(_project_det(flipped)), config)
    except NotInBigCell as exc:
        raise NotTransverse("xi_check is not transverse to xi") from exc
    return lower[::-1, ::-1]


def _project_det(mat: np.ndarray) -> np.ndarray:
    det = np.linalg.det(mat)
    if det < 0:
        raise NotTransverse("comparison matrix has negative determinant")
    return mat / det ** (1.0 / mat.shape[0])


def from_bh(c: BHCoordinates, config: Config = DEFAULT_CONFIG) -> GroupElement:
    """Inverse of to_bh: reconstruct g = s(xi) u x."""
    u = _n_part_from_flags(c.section, c.xi, c.xi_check, config)
    return GroupElement(
        eval_section(c.section, c.xi, config).entries @ u @ c.x.matrix()
    )


def permutation_flag(n: int, perm: tuple) -> Flag:
    """Flag of the permutation frame for perm (det-corrected into SO(n))."""
    p = np.zeros((n, n))
    for col, row in enumerate(perm):
        p[row, col] = 1.0
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    return Flag(p)


def covering_family(n: int) -> list:
    """The default covering family: one compact section per permutation flag."""
    return [compact_section(permutation_flag(n, perm)) for perm in itertools.permutations(range(n))]


def best_section(family: list, xi: Flag) -> Section:
    """The family member whose chart holds xi farthest from its boundary:
    the largest boundary_margin_estimate of xi against the member's base."""
    best, best_margin = None, -1.0
    for s in family:
        margin = boundary_margin_estimate(xi, s.base)
        if margin > best_margin:
            best, best_margin = s, margin
    return best
