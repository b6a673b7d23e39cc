"""Seeded generators for the synthetic bivariate scenarios used in tests and
experiments.

Functional families draw X uniform on [-1, 1] and set Y = h(X) + c * eps with
eps standard normal, where c is the noise level. Geometric families (circle,
spiral, checkerboard, x-cross) perturb only the y coordinate with c * eps so
the noise level means the same thing everywhere. Mixture families ignore the
noise level; their parameters live in the spec's params map.

`FAMILIES` is the one catalogue: each of the fourteen families, the mixtures
and `custom` included, maps to its draw and the parameter names it reads.
`SynthSpec` validates against it and `generate` draws from it on an rng
seeded by the spec. The direct generators `gauss_mix3`, `nb_mix3` and
`unif_point_mass` run the same draws, with the same bits.
"""

import numbers
from dataclasses import dataclass, field
from types import SimpleNamespace

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

@dataclass
class SynthSpec:
    """A named bivariate distribution family plus its parameters."""

    family: str
    n: int
    noise_level: float = 0.0
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnknownFamily(f"unknown synthetic family {self.family!r}")
        extra = set(self.params) - set(FAMILIES[self.family][1])
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


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


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


_MIX3_MEANS = ((-4.0, -4.0), (0.0, 0.0), (4.0, 4.0))
_MIX3_RHO = 0.8
# Largest mean first: the low-mean component is tie-dominated, so its copula
# correlation barely moves the density gap at mixture-scale bandwidths.
# Correlating the wide components first keeps every m -> m+1 step visible.
_NB3_MEANS = (80.0, 20.0, 5.0)
_NB3_DISPERSION = 2.0


def _mixture_draws(spec, rng):
    """Component labels, each point's copula correlation, and two normals.

    m is checked as given, never coerced: 2.5 and "2" are refused.
    """
    m = spec.params.get("m", 0)
    if m not in (0, 1, 2, 3):
        raise ValueError("m_correlated must be 0, 1, 2, or 3")
    labels = rng.integers(0, 3, spec.n)
    z1 = rng.standard_normal(spec.n)
    z2 = rng.standard_normal(spec.n)
    return labels, np.where(labels < m, _MIX3_RHO, 0.0), z1, z2


def _draw_gauss_mix3(spec, rng):
    labels, rho, z1, z2 = _mixture_draws(spec, rng)
    means = np.array(_MIX3_MEANS)
    xs = means[labels, 0] + z1
    ys = means[labels, 1] + rho * z1 + np.sqrt(1.0 - rho**2) * z2
    return xs, ys


def _draw_nb_mix3(spec, rng):
    # Imported here: slow, and most CLI runs never need them.
    from scipy.special import ndtr
    from scipy.stats import nbinom

    labels, rho, z1, z2 = _mixture_draws(spec, rng)
    g2 = rho * z1 + np.sqrt(1.0 - rho**2) * z2
    u1 = np.clip(ndtr(z1), 1e-15, 1.0 - 1e-15)
    u2 = np.clip(ndtr(g2), 1e-15, 1.0 - 1e-15)
    mu = np.array(_NB3_MEANS)[labels]
    size = _NB3_DISPERSION
    p = size / (size + mu)
    return nbinom.ppf(u1, size, p), nbinom.ppf(u2, size, p)


def _draw_unif_point_mass(spec, rng):
    # Checked as given, never coerced: a string such as "0.1" is refused.
    alpha, r = spec.params.get("alpha", 0.1), spec.params.get("r", 0.01)
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if not (isinstance(r, numbers.Real) and 0.0 < r <= 1.0):
        raise ValueError("r must lie in (0, 1]")
    in_mass = rng.random(spec.n) < alpha
    scale = np.where(in_mass, r, 1.0)
    xs = scale * rng.uniform(-1.0, 1.0, spec.n)
    ys = scale * rng.uniform(-1.0, 1.0, spec.n)
    return xs, ys


# family: (draw(spec, rng) -> (xs, ys), the parameter names it reads).
FAMILIES = {
    "independent": (_draw_independent, ()),
    "linear": (_functional(lambda xs, p: xs), ()),
    "quadratic": (_functional(lambda xs, p: xs**2), ()),
    "cubic": (_functional(lambda xs, p: xs**3), ()),
    "sine": (_functional(lambda xs, p: np.sin(p.get("freq", 2.0) * np.pi * xs)), ("freq",)),
    "circle": (_draw_circle, ()),
    "step": (_functional(_step_values), ()),
    "checkerboard": (_draw_checkerboard, ()),
    "spiral": (_draw_spiral, ()),
    "x-cross": (_draw_x_cross, ()),
    "gauss_mix3": (_draw_gauss_mix3, ("m",)),
    "nb_mix3": (_draw_nb_mix3, ("m",)),
    "unif_point_mass": (_draw_unif_point_mass, ("alpha", "r")),
    "custom": (_functional(lambda xs, p: np.asarray(p["h"](xs), dtype=float)), ("h",)),
}


def generate(spec: SynthSpec) -> PairedSample:
    """Draw a paired sample for a spec; a pure function of (spec, seed)."""
    return PairedSample(*FAMILIES[spec.family][0](spec, _rng(spec.seed)))


def _generate_unchecked(family: str, n: int, seed: int, **params) -> PairedSample:
    """`generate` without SynthSpec's checks, so that the direct generators
    keep their own errors: TooFewSamples from PairedSample for n < 2."""
    return generate(SimpleNamespace(family=family, n=n, noise_level=0.0, params=params, seed=seed))


def gauss_mix3(m_correlated: int, n: int, seed: int = 0) -> PairedSample:
    """Equal-weight mixture of three unit-variance Gaussians on the diagonal.

    Component means are (-4, -4), (0, 0), (4, 4); the first m_correlated
    components use correlation 0.8, the rest are independent.
    """
    return _generate_unchecked("gauss_mix3", n, seed, m=m_correlated)


def nb_mix3(m_correlated: int, n: int, seed: int = 0) -> PairedSample:
    """Equal-weight mixture of three negative binomial pairs.

    Within a component both margins are NB with the component mean (80, 20,
    or 5, in component order) and dispersion 2; dependence comes from a
    Gaussian copula with correlation 0.8 for the first m_correlated
    components and 0 otherwise.
    """
    return _generate_unchecked("nb_mix3", n, seed, m=m_correlated)


def unif_point_mass(alpha: float, r: float, n: int, seed: int = 0) -> PairedSample:
    """Mixture of a small central uniform square and the unit uniform square.

    With probability alpha both coordinates are independent uniforms on
    [-r, r]; otherwise both are independent uniforms on [-1, 1].
    """
    return _generate_unchecked("unif_point_mass", n, seed, alpha=alpha, r=r)


def gaussian_pair(spec: GaussianSpec, n: int, seed: int = 0) -> PairedSample:
    """Draw n observations from a bivariate Gaussian with the given shape.

    Y is built from X through its conditional distribution, so rho = 0
    reduces exactly to two independent normals.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = _rng(seed)
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
    return PairedSample(sample.xs.copy(), _rng(seed).permutation(sample.ys))
