"""The benchmark workloads.

Each workload turns a seed into a fixed job sequence (`make_job_at`), builds its
shared state (`setup`), runs one job through chamberflow's public API
(`run`, the timed part), and checks a job's outputs (`check`, untimed),
returning the job's result count. `fingerprint` reduces a job's outputs to
the values that a traced and an untraced run must reproduce exactly.

Library functions are looked up on their module at call time, so the
tracer's rebinding of module attributes applies to the benchmark's calls.
"""

from __future__ import annotations

import mpmath
import numpy as np

import chamberflow as cf
from chamberflow import errors

# typed refusals: outcomes that a job reports, not failures
REFUSALS = (
    errors.NotGeneric,
    errors.CannotCertify,
    errors.CertificationFailure,
    errors.HypothesisViolated,
    errors.NotDenseAtBudget,
)


class CheckFailed(Exception):
    """A job's outputs are wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def _to_sl(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.det(mat) ** (1.0 / mat.shape[0])


def _conjugated(seed: int, diag) -> np.ndarray:
    """A diagonal matrix conjugated by a seeded rotation (the test fixtures' recipe)."""
    h = _random_rotation(np.random.default_rng(seed), len(diag))
    return _to_sl(h @ np.diag(diag) @ h.T)


class Workload:
    name = ""
    tag = 0  # separates the job streams of different workloads

    def make_job_at(self, seed: int, index: int) -> dict:
        return self.make_job(np.random.default_rng([seed, self.tag, index]), index)

    def make_warmup(self) -> dict:
        """The warm-up job, the same for every seed: it is part of setup_s,
        which should measure set-up and not the cost of one seeded job."""
        return self.make_job(np.random.default_rng([self.tag, 1 << 30]), -1)

    def make_job(self, rng: np.random.Generator, index: int) -> dict:
        raise NotImplementedError

    def setup(self) -> dict:
        return {}

    def run(self, ctx: dict, job: dict) -> dict:
        raise NotImplementedError

    def check(self, ctx: dict, job: dict, out: dict) -> int:
        raise NotImplementedError

    def fingerprint(self, out: dict):
        raise NotImplementedError


class Certify(Workload):
    """Pairs of n = 3 loxodromics: Schottky certification, delta_{r,eps}
    and, for certified families, the product estimate."""

    name = "certify"
    tag = 1
    r = 0.15
    eps = 0.15
    # The library default is 1000 (about 17 s a call here). At 128 the
    # per-sample loop (boundary margins of xi1, ratio) is 86% of a
    # delta_r_eps call, against 93% at 1000; below 256 the K_r pool stays
    # at its minimum of 4 samples, so smaller counts shift the call's time
    # to that pool (23% at 64, 80% at 16).
    mc_samples = 128
    spectrum = (200.0, 1000.0)  # range of t in the spectrum (+-t, +-1, +-1/t)

    def make_job(self, rng, index):
        mats = []
        for _ in range(2):
            t = float(np.exp(rng.uniform(*np.log(self.spectrum))))
            s1, s2 = (int(s) for s in rng.choice([-1, 1], size=2))
            h = _random_rotation(rng, 3)
            mats.append(_to_sl(h @ np.diag([s1 * t, s2 * 1.0, s1 * s2 / t]) @ h.T))
        return {"index": index, "mats": mats, "seed": int(rng.integers(2**31))}

    def run(self, ctx, job):
        refusals = []
        try:
            family = cf.build_schottky(job["mats"], r=self.r, eps=self.eps)
        except REFUSALS as exc:
            family = None
            refusals.append(type(exc).__name__)
        delta = cf.delta_r_eps(self.r, self.eps, mc_samples=self.mc_samples, seed=job["seed"], n=3)
        estimate = None
        if family is not None:
            gens = list(family.generators)
            sections = [cf.compact_section(gens[0].repelling)] + [
                cf.compact_section(L.repelling) for L in gens
            ]
            try:
                estimate = cf.product_estimate(
                    gens, [1] * len(gens), gens[-1].attracting, sections,
                    self.r, self.eps, 1.5 * delta,
                )
            except REFUSALS as exc:
                refusals.append(type(exc).__name__)
        return {"family": family, "delta": delta, "estimate": estimate, "refusals": refusals}

    def check(self, ctx, job, out):
        """One result per pair decided: a certified family with its product
        estimate, or a typed refusal, each with its delta_{r,eps} estimate.
        (Certificates issued are 2 per "ok" outcome; counting them instead
        would make the metric follow the refusal mix of a ~20-job run.)"""
        _require(np.isfinite(out["delta"]) and out["delta"] >= 0.0, "delta_r_eps is not finite")
        family = out["family"]
        if family is None:
            return 1
        for i, L in enumerate(family.generators):
            # g fixes its attracting flag: in that frame g is upper triangular
            frame = L.attracting.rep
            conj = frame.T @ L.g.entries @ frame
            low = float(np.abs(np.tril(conj, -1)).max())
            _require(low <= 1e-8 * float(np.abs(conj).max()), f"g{i} moves its attracting flag ({low:.2e})")
        for cert in family.certificates:
            _require(cert.lipschitz_bound <= self.eps, "certificate Lipschitz bound exceeds eps")
        _require(bool(np.all(family.pairwise_margins >= 6 * self.r)), "a pairwise margin is below 6r")
        if out["estimate"] is not None:
            _require(out["estimate"].passed, "product estimate failed its bounds")
        return 1

    def fingerprint(self, out):
        family = out["family"]
        return (
            tuple(out["refusals"]),
            out["delta"],
            None if family is None else tuple(c.lipschitz_bound for c in family.certificates),
            None if out["estimate"] is None else (out["estimate"].beta_distance, out["estimate"].lox_distance),
        )


class Words(Workload):
    """Word dynamics of two fixed Schottky families: line-density probe,
    limit cone and sign group at a seeded direction theta."""

    name = "words"
    tag = 2
    window = (10.0, 190.0)
    delta0 = 0.5
    # family -> (probe / limit-cone length, sign-group length), chosen so
    # that jobs on either family take about the same time: 4094 or 3279
    # probe and cone words, 254 or 363 sign-group words. Jobs alternate
    # between the families, so every run has the same mix.
    lengths = {"cone": (11, 7), "triple": (7, 5)}
    check_words = 2    # words of length <= 6 compared with mpmath per job
    dps = 80

    def make_job(self, rng, index):
        family = "cone" if index % 2 == 0 else "triple"
        gens = 2 if family == "cone" else 3
        weights = rng.uniform(0.25, 1.0, size=gens)
        words = []
        for _ in range(self.check_words):
            length = int(rng.integers(1, 7))
            words.append((length, int(rng.integers(gens**length))))
        return {"index": index, "family": family, "weights": weights / weights.sum(), "words": words}

    def setup(self):
        cone = cf.build_schottky(
            [
                _conjugated(168, np.exp([7.0, 2.0, -9.0])),
                _conjugated(169, np.exp([9.0, -2.0, -7.0])),
            ],
            0.15,
            0.15,
        )
        triple = cf.build_schottky(
            [
                _conjugated(1635, [20.0, 1.0, 1 / 20.0]),
                _conjugated(1636, [16.0, 2.0, 1 / 32.0]),
                _conjugated(1637, [18.0, 0.6, 1 / 10.8]),
            ],
            0.15,
            0.12,
        )
        return {"families": {"cone": cone, "triple": triple}}

    def run(self, ctx, job):
        family = ctx["families"][job["family"]]
        length, sign_length = self.lengths[job["family"]]
        dirs = [L.lam.coords / np.linalg.norm(L.lam.coords) for L in family.generators]
        theta = cf.CartanVector(sum(w * d for w, d in zip(job["weights"], dirs)))
        probe = cf.jordan_line_density_probe(family, theta, self.window, length, delta0=self.delta0)
        cone = cf.limit_cone(family, length)
        signs = cf.sign_group(family, sign_length)
        return {"probe": probe, "cone": cone, "signs": signs, "refusals": []}

    def _exact_word(self, mats, letters):
        """Sum-zero log eigenvalue moduli (decreasing) and eigenvalue signs of
        the exact product of a word, at self.dps digits."""
        with mpmath.workdps(self.dps):
            prod = mpmath.eye(mats[0].shape[0])
            for letter in letters:  # letters[j] is the j-th applied letter
                prod = mpmath.matrix(mats[letter].tolist()) * prod
            vals = sorted(mpmath.eig(prod, left=False, right=False), key=lambda v: -abs(v))
            logs = [mpmath.log(abs(v)) for v in vals]
            mean = sum(logs) / len(logs)
            lam = np.array([float(x - mean) for x in logs])
            signs = tuple(1 if mpmath.re(v) > 0 else -1 for v in vals)
        return lam, signs

    def check(self, ctx, job, out):
        family = ctx["families"][job["family"]]
        mats = [L.g.entries for L in family.generators]
        gens = len(mats)
        length, _ = self.lengths[job["family"]]
        expected = sum(gens**k for k in range(1, length + 1))
        probe, cone, signs = out["probe"], out["cone"], out["signs"]
        _require(probe["words"] == expected, f"probe evaluated {probe['words']} words, not {expected}")
        _require(len(cone.rays) == expected, f"limit cone has {len(cone.rays)} rays, not {expected}")
        _require(probe["theta_interior"], "theta drawn inside the cone is reported outside")
        for word_length, row in job["words"]:
            letters = np.unravel_index(row, (gens,) * word_length)
            lam, _ = self._exact_word(mats, [int(x) for x in letters])
            ray = cone.rays[sum(gens**k for k in range(1, word_length)) + row].coords
            err = float(np.abs(ray - lam / np.linalg.norm(lam)).max())
            _require(err <= 1e-7, f"word {letters}: Jordan direction off by {err:.2e}")
        # every generator's sign vector lies in the reported sign group
        group = {(1,) * mats[0].shape[0]}
        for b in signs.basis:
            group |= {tuple(x * y for x, y in zip(g, b.signs)) for g in group}
        _require(len(group) == signs.order, "sign group order does not match its basis")
        for i in range(gens):
            _, gen_signs = self._exact_word(mats, [i])
            _require(gen_signs in group, f"generator {i} signs {gen_signs} outside the sign group")
        return probe["words"] + len(cone.rays)

    def fingerprint(self, out):
        probe = out["probe"]
        return (
            probe["words"],
            probe["hits"],
            tuple(probe["t_values"]),
            len(out["cone"].rays),
            tuple(tuple(h.coords) for h in out["cone"].hull),
            out["signs"].p,
        )


class Density(Workload):
    """Dense-subgroup selection and semigroup cone density on R x T.

    Each generator set is the image of the ring of integers of the totally
    real cubic field Q(2 cos(2 pi / 7)) under two of its real embeddings,
    mapped into R x T by a seeded scale and shear. Such sets are badly
    approximable (the two-dimensional analogue of criterion 7's sqrt(2)
    and golden ratio), so every instance certifies, at a cost that grows
    with the scale and varies by up to 2x with the shear.

    Scale and shear are stratified by job index: every `strata`**2
    consecutive jobs draw one (scale, shear) point from each cell of a
    strata x strata grid, so a run's job mix, and with it the median job
    time, does not depend on the seed's luck.
    """

    name = "density"
    tag = 4
    delta = 0.1
    select_window = [(-1.0, 1.0)]
    cone_window = [(0.0, 3.0)]
    strata = 4
    _roots = (2 * np.cos(2 * np.pi / 7), 2 * np.cos(6 * np.pi / 7))

    def _generator_set(self, rng, index):
        cell_scale, cell_shear = index % self.strata, index // self.strata % self.strata
        scale = 0.9 + 0.2 * (cell_scale + rng.uniform()) / self.strata
        shear = (cell_shear + rng.uniform()) / self.strata
        r1, r2 = self._roots
        points = []
        # basis elements theta and theta^2 + theta (both with positive V-part)
        for x1, x2 in ((r1, r2), (r1 * r1 + r1, r2 * r2 + r2)):
            v = scale * (x1 - x2) / (r1 - r2)
            c = shear * x1 + (1.0 - shear) * x2
            points.append((v, c))
        return points

    def make_job(self, rng, index):
        return {"index": index, "select": self._generator_set(rng, index), "cone": self._generator_set(rng, index)}

    def run(self, ctx, job):
        refusals, certs = [], {}
        for variant in ("select", "cone"):
            points = [cf.TorusPoint([v], [c]) for v, c in job[variant]]
            try:
                if variant == "select":
                    cert = cf.select_dense_subgroup_generators(points, self.delta, self.select_window)
                else:
                    _, cert = cf.semigroup_cone_density(points, self.delta, self.cone_window)
            except errors.NotDenseAtBudget as exc:
                refusals.append(type(exc).__name__)
                cert = exc.certificate
            certs[variant] = (cert, None if cert is None else cf.verify_certificate(cert))
        return {"certs": certs, "refusals": refusals}

    def check(self, ctx, job, out):
        cells = 0
        for variant, (cert, verified) in out["certs"].items():
            if cert is None:
                continue
            _require(verified == cert.covered, f"{variant}: re-verification disagrees with the certificate")
            if cert.covered:
                cells += len(cert.centers)
        return cells

    def fingerprint(self, out):
        return tuple(
            (variant, verified, None if cert is None else (cert.covered, len(cert.points), len(cert.centers)))
            for variant, (cert, verified) in out["certs"].items()
        )


WORKLOADS = {w.name: w for w in (Certify(), Words(), Density())}
