"""Seeded generators for the synthetic bivariate scenarios used in tests and
experiments.

Functional families draw X uniform on [-1, 1] and set Y = h(X) + c * eps with
eps standard normal, where c is the noise level. Geometric families (circle,
spiral, checkerboard, x-cross) perturb only the y coordinate with c * eps so
the noise level means the same thing everywhere. Mixture families ignore the
noise level; their parameters live in the spec's params map.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownFamily
from .kde import GaussianSpec, PairedSample

# Families where y_i = h(x_i) holds exactly at noise level 0.
FUNCTIONAL_FAMILIES = ("linear", "quadratic", "cubic", "sine", "step")

# The full registry order used by the experiment grids.
GRID_FAMILIES = (
    "independent",
    "linear",
    "quadratic",
    "cubic",
    "sine",
    "circle",
    "step",
    "checkerboard",
    "spiral",
    "x-cross",
)

_FAMILY_PARAMS = {
    "independent": set(),
    "linear": set(),
    "quadratic": set(),
    "cubic": set(),
    "sine": {"freq"},
    "circle": set(),
    "step": set(),
    "checkerboard": set(),
    "spiral": set(),
    "x-cross": set(),
    "gauss_mix3": {"m"},
    "nb_mix3": {"m"},
    "unif_point_mass": {"alpha", "r"},
    "custom": {"h"},
}


@dataclass
class SynthSpec:
    """A named bivariate distribution family plus its parameters."""

    family: str
    n: int
    noise_level: float = 0.0
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in _FAMILY_PARAMS:
            raise UnknownFamily(f"unknown synthetic family {self.family!r}")
        extra = set(self.params) - _FAMILY_PARAMS[self.family]
        if extra:
            raise UnknownFamily(
                f"family {self.family!r} does not take parameters {sorted(extra)}"
            )
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError("noise_level must lie in [0, 1]")

    def to_dict(self) -> dict:
        if self.family == "custom":
            raise ValueError("custom specs hold a callable and cannot be serialized")
        return {
            "family": self.family,
            "n": self.n,
            "noise_level": self.noise_level,
            "params": dict(self.params),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SynthSpec":
        return cls(
            family=payload["family"],
            n=int(payload["n"]),
            noise_level=float(payload.get("noise_level", 0.0)),
            params=dict(payload.get("params", {})),
            seed=int(payload.get("seed", 0)),
        )


def _functional(h):
    def draw(spec, rng):
        xs = rng.uniform(-1.0, 1.0, spec.n)
        ys = h(xs, spec.params) + spec.noise_level * rng.standard_normal(spec.n)
        return xs, ys

    return draw


def _draw_independent(spec, rng):
    return rng.standard_normal(spec.n), rng.standard_normal(spec.n)


def _draw_circle(spec, rng):
    theta = rng.uniform(0.0, 2.0 * np.pi, spec.n)
    ys = np.sin(theta) + spec.noise_level * rng.standard_normal(spec.n)
    return np.cos(theta), ys


def _draw_checkerboard(spec, rng):
    # Five active cells of a 3x3 board (those with even coordinate sum),
    # scaled onto [-1, 1]^2.
    cells = np.array([(a, b) for a in range(3) for b in range(3) if (a + b) % 2 == 0])
    picks = cells[rng.integers(0, len(cells), spec.n)]
    xs = -1.0 + (picks[:, 0] + rng.random(spec.n)) * (2.0 / 3.0)
    ys = -1.0 + (picks[:, 1] + rng.random(spec.n)) * (2.0 / 3.0)
    return xs, ys + spec.noise_level * rng.standard_normal(spec.n)


def _draw_spiral(spec, rng):
    t = rng.random(spec.n)
    angle = 3.0 * np.pi * t
    xs = t * np.cos(angle)
    ys = t * np.sin(angle) + spec.noise_level * rng.standard_normal(spec.n)
    return xs, ys


def _draw_x_cross(spec, rng):
    xs = rng.uniform(-1.0, 1.0, spec.n)
    signs = rng.integers(0, 2, spec.n) * 2.0 - 1.0
    ys = signs * xs + spec.noise_level * rng.standard_normal(spec.n)
    return xs, ys


def _step_values(xs, params):
    return np.where(xs < -1.0 / 3.0, -1.0, np.where(xs > 1.0 / 3.0, 1.0, 0.0))


FAMILIES = {
    "independent": _draw_independent,
    "linear": _functional(lambda xs, p: xs),
    "quadratic": _functional(lambda xs, p: xs**2),
    "cubic": _functional(lambda xs, p: xs**3),
    "sine": _functional(lambda xs, p: np.sin(p.get("freq", 2.0) * np.pi * xs)),
    "circle": _draw_circle,
    "step": _functional(_step_values),
    "checkerboard": _draw_checkerboard,
    "spiral": _draw_spiral,
    "x-cross": _draw_x_cross,
}


def generate(spec: SynthSpec) -> PairedSample:
    """Draw a paired sample for a spec; a pure function of (spec, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.family in FAMILIES:
        xs, ys = FAMILIES[spec.family](spec, rng)
        return PairedSample(xs, ys)
    if spec.family == "custom":
        h = spec.params["h"]
        xs = rng.uniform(-1.0, 1.0, spec.n)
        ys = np.asarray(h(xs), dtype=float) + spec.noise_level * rng.standard_normal(
            spec.n
        )
        return PairedSample(xs, ys)
    if spec.family == "gauss_mix3":
        return gauss_mix3(int(spec.params.get("m", 0)), spec.n, spec.seed)
    if spec.family == "nb_mix3":
        return nb_mix3(int(spec.params.get("m", 0)), spec.n, spec.seed)
    if spec.family == "unif_point_mass":
        return unif_point_mass(
            float(spec.params.get("alpha", 0.1)),
            float(spec.params.get("r", 0.01)),
            spec.n,
            spec.seed,
        )
    raise UnknownFamily(f"unknown synthetic family {spec.family!r}")


_MIX3_MEANS = ((-4.0, -4.0), (0.0, 0.0), (4.0, 4.0))
_MIX3_RHO = 0.8
# Largest mean first: the low-mean component is tie-dominated, so its copula
# correlation barely moves the density gap at mixture-scale bandwidths.
# Correlating the wide components first keeps every m -> m+1 step visible.
_NB3_MEANS = (80.0, 20.0, 5.0)
_NB3_DISPERSION = 2.0


def _mixture_labels_and_normals(n, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = rng.integers(0, 3, n)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return labels, z1, z2


def gauss_mix3(m_correlated: int, n: int, seed: int = 0) -> PairedSample:
    """Equal-weight mixture of three unit-variance Gaussians on the diagonal.

    Component means are (-4, -4), (0, 0), (4, 4); the first m_correlated
    components use correlation 0.8, the rest are independent.
    """
    if m_correlated not in (0, 1, 2, 3):
        raise ValueError("m_correlated must be 0, 1, 2, or 3")
    labels, z1, z2 = _mixture_labels_and_normals(n, seed)
    rho = np.where(labels < m_correlated, _MIX3_RHO, 0.0)
    means = np.array(_MIX3_MEANS)
    xs = means[labels, 0] + z1
    ys = means[labels, 1] + rho * z1 + np.sqrt(1.0 - rho**2) * z2
    return PairedSample(xs, ys)


def nb_mix3(m_correlated: int, n: int, seed: int = 0) -> PairedSample:
    """Equal-weight mixture of three negative binomial pairs.

    Within a component both margins are NB with the component mean (80, 20,
    or 5, in component order) and dispersion 2; dependence comes from a
    Gaussian copula with correlation 0.8 for the first m_correlated
    components and 0 otherwise.
    """
    # Imported here: slow, and most CLI runs never need them.
    from scipy.special import ndtr
    from scipy.stats import nbinom

    if m_correlated not in (0, 1, 2, 3):
        raise ValueError("m_correlated must be 0, 1, 2, or 3")
    labels, z1, z2 = _mixture_labels_and_normals(n, seed)
    rho = np.where(labels < m_correlated, _MIX3_RHO, 0.0)
    g1 = z1
    g2 = rho * z1 + np.sqrt(1.0 - rho**2) * z2
    u1 = np.clip(ndtr(g1), 1e-15, 1.0 - 1e-15)
    u2 = np.clip(ndtr(g2), 1e-15, 1.0 - 1e-15)
    mu = np.array(_NB3_MEANS)[labels]
    size = _NB3_DISPERSION
    p = size / (size + mu)
    xs = nbinom.ppf(u1, size, p)
    ys = nbinom.ppf(u2, size, p)
    return PairedSample(xs, ys)


def unif_point_mass(alpha: float, r: float, n: int, seed: int = 0) -> PairedSample:
    """Mixture of a small central uniform square and the unit uniform square.

    With probability alpha both coordinates are independent uniforms on
    [-r, r]; otherwise both are independent uniforms on [-1, 1].
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    in_mass = rng.random(n) < alpha
    scale = np.where(in_mass, r, 1.0)
    xs = scale * rng.uniform(-1.0, 1.0, n)
    ys = scale * rng.uniform(-1.0, 1.0, n)
    return PairedSample(xs, ys)


def gaussian_pair(spec: GaussianSpec, n: int, seed: int = 0) -> PairedSample:
    """Draw n observations from a bivariate Gaussian with the given shape.

    Y is built from X through its conditional distribution, so rho = 0
    reduces exactly to two independent normals.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    xs = spec.mu_x + spec.sigma_x * z1
    ys = spec.mu_y + spec.sigma_y * (
        spec.rho * z1 + np.sqrt(1.0 - spec.rho**2) * z2
    )
    return PairedSample(xs, ys)


@dataclass
class ContaminationSpec:
    """How many observations to replace and the fixed far point to plant."""

    d_n: int
    point: tuple[float, float]

    def __post_init__(self):
        if self.d_n < 1:
            raise ValueError("d_n must be at least 1")


def contaminate(sample: PairedSample, spec: ContaminationSpec) -> PairedSample:
    """Replace exactly d_n trailing observation pairs with the fixed point."""
    if spec.d_n >= sample.n:
        raise ValueError("d_n must be smaller than the sample size")
    xs = sample.xs.copy()
    ys = sample.ys.copy()
    xs[sample.n - spec.d_n :] = spec.point[0]
    ys[sample.n - spec.d_n :] = spec.point[1]
    return PairedSample(xs, ys)


def shuffle_y(sample: PairedSample, seed: int = 0) -> PairedSample:
    """Permute the y values uniformly at random, leaving x untouched."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return PairedSample(sample.xs.copy(), rng.permutation(sample.ys))
