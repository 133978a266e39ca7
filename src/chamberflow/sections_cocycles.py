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
    _first_am,
    _kan_stack,
    _lu_stack,
    bruhat_lu,
)
from .flag_boundary import Flag, _comparison_margins, _comparisons, _span_flag, k_iota


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
    # [e](zeta): the unique u in N- with u . (standard flag) = zeta, where
    # zeta = h^T xi is the comparison of xi with the base
    lower, _, first_fail = _lu_stack(_comparisons(reps, s.base.rep), config)
    inside = first_fail == n
    value = _base_frame(s.base) @ np.where(inside[:, np.newaxis, np.newaxis], lower, np.eye(n))
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


def _section_reads(s: Section, reps: np.ndarray, config: Config = DEFAULT_CONFIG):
    """(logs, signs, inside) of the upper-triangular R with s(xi) = rep R at
    each orthonormal representative rep of an (N, n, n) stack: the logs of
    |diag R| (not yet trace free), its signs, and the mask of the flags in
    the chart whose signs have product +1 (elsewhere placeholders). For the
    chart LU J base^T translate^T rep = L U with pivots p and the offset x,
    s(xi) is rep U^-1 x (unipotent) or its K part rep sign(p) x (compact)."""
    if s.translate is not None:
        reps = np.swapaxes(s.translate, -1, -2) @ reps
    _, a, first_fail = _lu_stack(_comparisons(reps, s.base.rep), config)
    pivots = np.diagonal(a, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = -np.log(np.abs(pivots)) if s.kind == "unipotent" else np.zeros(pivots.shape)
        signs = np.sign(pivots) * s.offset.m.signs
        inside = (first_fail == s.n) & (signs.prod(axis=-1) > 0)
    return logs + s.offset.a.coords, signs, inside


def transitions(
    s: Section, s2: Section, reps: np.ndarray, config: Config = DEFAULT_CONFIG
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """transition at each flag representative xi of an (N, n, n) stack:
    (logs, signs, inside) of s(xi)^-1 s2(xi) = R^-1 R2 for the reads
    s(xi) = xi R and s2(xi) = xi R2, inside both section domains."""
    logs, signs, inside = _section_reads(s, reps, config)
    logs2, signs2, inside2 = _section_reads(s2, reps, config)
    return logs2 - logs, signs * signs2, inside & inside2


def transition(s: Section, s2: Section, xi: Flag, config: Config = DEFAULT_CONFIG) -> AMElement:
    """T_{s,s2}(xi): the unique AM element with s2(xi) in s(xi) N T."""
    parts = transitions(s, s2, xi.rep[np.newaxis], config)
    return _first_am(parts, "xi is off a section's chart, or read with sign product -1")


def cocycle(s1: Section, s0: Section, g: GroupElement, xi: Flag, config: Config = DEFAULT_CONFIG) -> AMElement:
    """beta_{s1,s0}(g, xi): the unique AM element with
    g s0(xi) in s1(g xi) beta N; for g xi = k exp(sigma) u (KAN) and the
    reads s0(xi) = xi R0, s1(g xi) = k R1, the diagonal of R1^-1 exp(sigma) u R0."""
    k, sigma, _ = _kan_stack((g.entries @ xi.rep)[np.newaxis])
    logs0, signs0, inside0 = _section_reads(s0, xi.rep[np.newaxis], config)
    logs1, signs1, inside1 = _section_reads(s1, k, config)
    parts = sigma + logs0 - logs1, signs0 * signs1, inside0 & inside1
    return _first_am(parts, "cocycle: xi or g xi is off its chart, or read with sign product -1")


def iwasawa_cocycle(g: GroupElement, xi: Flag) -> CartanVector:
    """sigma(g, xi): the a-part of the KAN decomposition of g * rep(xi)."""
    return CartanVector(_kan_stack((g.entries @ xi.rep)[np.newaxis])[1][0])


@dataclass(frozen=True)
class BHCoordinates:
    """Bruhat-Hopf coordinates (xi, xi_check; x) relative to a section."""

    xi: Flag
    xi_check: Flag
    x: AMElement
    section: Section


def to_bh(g: GroupElement, s: Section, config: Config = DEFAULT_CONFIG) -> BHCoordinates:
    """(g eta0, g eta0_check ; x)_s with g = s(g eta0) u x, u in N, x in AM;
    for g = k exp(sigma) u' (KAN) and the read s(g eta0) = k R, x is the
    diagonal of R^-1 exp(sigma) u'."""
    k, sigma, _ = _kan_stack(g.entries[np.newaxis])
    xi_check = _span_flag(g.entries @ k_iota(g.n))
    logs, signs, inside = _section_reads(s, k, config)
    x = _first_am((sigma - logs, signs, inside), "to_bh: g eta0 is off the chart, or read with sign product -1")
    return BHCoordinates(Flag(k[0]), xi_check, x, s)


def _n_part_from_flags(s_xi: np.ndarray, xi_check: Flag, config: Config) -> np.ndarray:
    """The unique u in N with s(xi) u . (opposite standard flag) = xi_check,
    given the section value s_xi = s(xi)."""
    e = np.linalg.solve(s_xi, xi_check.rep) @ k_iota(xi_check.n).T
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
    s_xi = eval_section(c.section, c.xi, config).entries
    return GroupElement(s_xi @ _n_part_from_flags(s_xi, c.xi_check, config) @ c.x.matrix())


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


def best_section(family: list, xi: Flag, config: Config = DEFAULT_CONFIG) -> Section:
    """The family member whose chart holds xi farthest from its boundary:
    the first with the largest boundary_margin_estimate of xi against the
    member's base, from one stack of comparison matrices."""
    c = _comparisons(xi.rep, np.stack([s.base.rep for s in family]))
    return family[int(np.argmax(_comparison_margins(c, config)))]
