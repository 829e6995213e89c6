"""Static exposure estimators, their exact variances, and the
variance-comparison decision machinery.

Two unbiased estimators of the exposed fraction are provided: the vanilla
estimator (mean exposure over uniform node samples) and the
friendship-paradox estimator (degree-corrected mean over random friends,
an importance-sampling scheme that over-reaches popular nodes). The
decision machinery answers which one has the smaller variance by one rule,
f_bar against d_bar * E{f(X)/d(X)}, taken exactly on a concrete graph or
over the degree classes of an ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import SharingState, exposure_all
from .graph import DiGraph, Graph, average_degree

TIE_TOLERANCE = 1e-12
DEFAULT_SUPPORT_MAX = 10_000


@dataclass(frozen=True)
class EstimatorReport:
    """One estimate with its sample count and the average degree that corrected it (NaN for node samples).

    The estimators reduce over the last axis of their samples: a 1-D
    sample vector gives a float estimate, a 2-D (reps, n) array one
    estimate per row, and ``n`` is the sample count per estimate.
    fp-type estimates can exceed 1 on individual draws (the degree
    correction d_bar/d(Y) is unbounded above); they are deliberately not
    clamped, which is what keeps them unbiased.
    """

    estimate: float | np.ndarray
    n: int
    d_bar: float


def _row_means(values: np.ndarray):
    """Mean over the last axis: a float for a vector, else one mean per row."""
    means = values.mean(axis=-1)
    return float(means) if means.ndim == 0 else means


def vanilla_estimate(exposures) -> EstimatorReport:
    """Mean of exposure bits from uniformly sampled nodes."""
    bits = np.asarray(exposures, dtype=float)
    if bits.size < 1:
        raise ValueError("need at least one sample")
    return EstimatorReport(_row_means(bits), bits.shape[-1], math.nan)


# sampling mode -> (the degrees that correct its samples, their name in errors)
_CORRECTIONS = {"fp": ("degrees", "degree"), "friend": ("out_degrees", "out-degree"),
                "follower": ("in_degrees", "in-degree")}


def estimate_from_bits(g, mode: str, samples: np.ndarray, bits: np.ndarray, d_bar: float | None = None):
    """The estimate of one sampling mode from its samples and their exposure bits.

    Reduces over the last axis as the estimators do. mode 'node' (uniform
    nodes) gives the mean of the bits, the vanilla estimate. 'fp' (random
    friends of an undirected graph), 'friend' and 'follower' give d_bar
    times the mean of bit / degree, corrected by degree, out-degree and
    in-degree; d_bar defaults to average_degree(g), and a sample whose
    correcting degree is 0 raises ValueError.
    """
    if mode == "node":
        return _row_means(np.asarray(bits, dtype=float))
    attr, what = _CORRECTIONS[mode]
    degrees = getattr(g, attr)[samples]
    zero = np.flatnonzero(degrees == 0)  # a degree-0 sample would make the estimate inf or NaN
    if zero.size:
        raise ValueError(f"sample node {int(samples.flat[zero[0]])} has {what} 0; "
                         f"degree-corrected samples need {what} >= 1")
    return float(average_degree(g) if d_bar is None else d_bar) * _row_means(bits / degrees)


def fp_estimate(g: Graph, friends, s: SharingState, d_bar: float | None = None) -> EstimatorReport:
    """Friendship-paradox estimate from random-friend samples.

    estimate = (d_bar / n) * sum of f(Y_i)/d(Y_i). d_bar defaults to the
    exact average degree; pass a finite, positive value to use an externally
    known average degree instead (the estimate is then unbiased with respect to it).
    A sample of degree 0 cannot come from friend sampling and raises
    ValueError.
    """
    return _sampled_report(g, "fp", friends, s, d_bar)


def directed_estimates(g: DiGraph, mode: str, samples, s: SharingState,
                       d_bar: float | None = None) -> EstimatorReport:
    """Directed-network estimate from node, friend, or follower samples.

    node: plain mean of exposures. friend: degree-corrected by out-degree
    (friend samples arrive proportionally to out-degree). follower:
    corrected by in-degree. d_bar is the average in-degree |E|/|V| (equal
    to the average out-degree). Exposure means: at least one in-neighbor
    (an account the node follows) shared. A friend (follower) sample with
    out-degree (in-degree) 0 raises ValueError.
    """
    if mode not in ("node", "friend", "follower"):
        raise ValueError(f"unknown estimator mode: {mode!r}")
    return _sampled_report(g, mode, samples, s, d_bar)


def _check_d_bar(d_bar: float | None) -> None:
    """An average degree given in place of the graph's own must be finite and positive."""
    if d_bar is not None and not (math.isfinite(d_bar) and d_bar > 0.0):
        raise ValueError(f"d_bar must be finite and > 0, got {d_bar}")


def _sampled_report(g, mode: str, samples, s: SharingState, d_bar: float | None) -> EstimatorReport:
    """The one body of fp_estimate and directed_estimates: a report from samples of ``mode``."""
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size < 1:
        raise ValueError("need at least one sample")
    if mode != "node" and g.num_edges < 1:
        raise ValueError(f"{'friend' if mode == 'fp' else mode} sampling requires at least one edge")
    _check_d_bar(d_bar)
    if d_bar is None:
        d_bar = math.nan if mode == "node" else average_degree(g)
    bits = exposure_all(g, s)[samples]
    return EstimatorReport(estimate_from_bits(g, mode, samples, bits, d_bar), samples.shape[-1], float(d_bar))


# ---------------------------------------------------------------------------
# Exact variance analytics and the estimator-choice condition
# ---------------------------------------------------------------------------


def exact_variance_vanilla(f_bar: float, n: int) -> float:
    """Variance of the vanilla estimator with n samples: f(1-f)/n."""
    if not 0.0 <= f_bar <= 1.0:
        raise ValueError("true exposure must lie in [0, 1]")
    if n < 1:
        raise ValueError("need n >= 1")
    return f_bar * (1.0 - f_bar) / n


def _exposure_moments(g: Graph, exposed: np.ndarray) -> tuple[float, float]:
    """f_bar and the fp observation's second moment d_bar * E{f(X)/d(X)} of the exposure vector ``exposed``
    (``exposure_all``); f(v)/d(v) is 0 whenever f(v) = 0, so degree-0 nodes never touch the division."""
    ratios = np.zeros(g.num_nodes)
    ratios[exposed] = 1.0 / g.degrees[exposed]
    return float(exposed.mean()), average_degree(g) * float(ratios.mean())


def exact_variance_fp(g: Graph, s: SharingState, n: int) -> float:
    """Variance of the friendship-paradox estimator with n samples.

    (1/n) * (d_bar * E{f(X)/d(X)} - f_bar^2), enumerated exactly over all nodes.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if g.num_edges < 1:
        raise ValueError("the friend-based estimator needs at least one edge")
    f_bar, fp_moment = _exposure_moments(g, exposure_all(g, s))
    return (fp_moment - f_bar * f_bar) / n


@dataclass(frozen=True)
class ConditionVerdict:
    """Which estimator the variance comparison prefers, and the two moments it compared.

    lhs_value = f_bar - fp_moment, with fp_moment = d_bar * E{f(X)/d(X)}, equals
    E{f(X) (1 - d_bar/d(X))} over uniform nodes and n * (Var(vanilla) - Var(fp)),
    and lhs_value >= 0 prefers the friend-based estimator; one fp sample has
    variance fp_moment - f_bar * f_bar. A tie is an |lhs_value| within
    TIE_TOLERANCE of the larger moment, so the test scales with the variances.
    """

    lhs_value: float
    fp_preferred: bool
    tie: bool
    f_bar: float
    fp_moment: float

    @classmethod
    def from_moments(cls, f_bar: float, fp_moment: float) -> "ConditionVerdict":
        """The verdict from f_bar and d_bar * E{f(X)/d(X)}, the two moments every form of the rule compares."""
        lhs = f_bar - fp_moment
        return cls(lhs, lhs >= 0.0, abs(lhs) <= TIE_TOLERANCE * max(f_bar, fp_moment), f_bar, fp_moment)


def condition_empirical(g: Graph, s: SharingState) -> ConditionVerdict:
    """Exact decision rule on a concrete graph and sharing state, from one exposure pass."""
    if g.num_edges < 1:  # the verdict's f_bar is the true exposure, which an empty graph lacks
        raise ValueError("the comparison needs at least one edge" if g.num_nodes
                         else "true exposure is undefined on an empty graph")
    return ConditionVerdict.from_moments(*_exposure_moments(g, exposure_all(g, s)))


# ---------------------------------------------------------------------------
# Degree-mixing (Markovian) ensembles: analytic form of the same condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovianSpec:
    """A network ensemble fully described by degree-level statistics.

    degree_support: ascending degree values k. degree_dist: P(k) per value.
    neighbor_degree_dist: row k -> P(k'|k), the degree distribution at the
    far end of an edge leaving a degree-k node. sharing_prob_given_degree:
    P(node shares | degree k). Consistency of the implied joint edge
    distribution requires the detailed-balance identity
    k P(k) P(k'|k) = k' P(k') P(k|k'), checked to 1e-9.
    """

    degree_support: np.ndarray
    degree_dist: np.ndarray
    neighbor_degree_dist: np.ndarray
    sharing_prob_given_degree: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.degree_support, dtype=np.int64)
        pk = np.asarray(self.degree_dist, dtype=float)
        pkk = np.asarray(self.neighbor_degree_dist, dtype=float)
        rho = np.asarray(self.sharing_prob_given_degree, dtype=float)
        object.__setattr__(self, "degree_support", ks)
        object.__setattr__(self, "degree_dist", pk)
        object.__setattr__(self, "neighbor_degree_dist", pkk)
        object.__setattr__(self, "sharing_prob_given_degree", rho)
        m = ks.shape[0]
        if not (pk.shape == (m,) and pkk.shape == (m, m) and rho.shape == (m,)):
            raise ValueError("array shapes must agree with the degree support")
        if np.any(ks < 0) or np.any(np.diff(ks) <= 0):
            raise ValueError("degree support must be ascending and non-negative")
        if np.any(pk < 0) or abs(pk.sum() - 1.0) > 1e-9:
            raise ValueError("degree distribution must sum to 1")
        if np.any(pkk < 0) or np.any(np.abs(pkk.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("each conditional degree row must sum to 1")
        if np.any((rho < 0) | (rho > 1)):
            raise ValueError("conditional sharing probabilities must lie in [0, 1]")
        flow = ks[:, None] * pk[:, None] * pkk  # edge-endpoint degree flow
        if not np.allclose(flow, flow.T, atol=1e-9, rtol=0.0):
            raise ValueError("detailed balance violated: k P(k) P(k'|k) != k' P(k') P(k|k')")

    @classmethod
    def from_graph(cls, g: Graph, s: SharingState) -> "MarkovianSpec":
        """Exact degree-level statistics of one concrete graph and sharing state."""
        if g.num_edges < 1:
            raise ValueError("need at least one edge")
        if int(g.degrees.min()) == 0:
            raise ValueError("degree-0 nodes have no neighbor-degree distribution; drop them first")
        ks, inverse, counts = np.unique(g.degrees, return_inverse=True, return_counts=True)
        m = ks.shape[0]
        pk = counts / g.num_nodes
        # edges per (class of u, class of v) pair, then each edge counted from both ends
        joint = np.bincount(inverse[g.edge_array] @ [m, 1], minlength=m * m).reshape(m, m)
        joint += joint.T
        pkk = joint / joint.sum(axis=1, keepdims=True)
        rho = np.bincount(inverse, weights=s.mask.astype(float), minlength=m) / counts
        return cls(ks, pk, pkk, rho)


def _class_exposure_probs(spec: MarkovianSpec) -> np.ndarray:
    """P(exposed | k) for every degree class k: exposure is the complement of all k
    neighbors failing to share, each with probability sum over k' of P(k'|k) (1 - sharing_prob(k'))."""
    fail = spec.neighbor_degree_dist @ (1.0 - spec.sharing_prob_given_degree)
    return 1.0 - fail ** spec.degree_support


def markovian_exposure_prob(spec: MarkovianSpec, k: int) -> float:
    """P(a degree-k node is exposed) in the ensemble."""
    matches = np.flatnonzero(spec.degree_support == k)
    if matches.size == 0:
        raise ValueError(f"degree {k} not in the support")
    return float(_class_exposure_probs(spec)[matches[0]])


def _degree_class_verdict(ks: np.ndarray, pk: np.ndarray, p_exposed: np.ndarray) -> ConditionVerdict:
    """The rule over degree classes k: f_bar sums P(k) P(exposed | k), and d_bar * E{f/d} the same terms over k."""
    if np.any(ks == 0):
        raise ValueError("support must exclude degree 0 (E{f(X)/d(X)} divides by the degree)")
    exposed_mass = pk * p_exposed
    d_bar = float(np.sum(ks * pk))
    return ConditionVerdict.from_moments(float(exposed_mass.sum()), d_bar * float(np.sum(exposed_mass / ks)))


def condition_analytic(spec: MarkovianSpec) -> ConditionVerdict:
    """Analytic decision rule for a degree-mixing ensemble: the rule over its degree classes,
    every class's exposure probability from one matrix-vector product."""
    return _degree_class_verdict(spec.degree_support, spec.degree_dist, _class_exposure_probs(spec))


@dataclass(frozen=True)
class PowerLawDegrees:
    """Truncated integer power-law degree distribution, P(k) proportional to k^-alpha."""

    alpha: float
    k_min: int = 1
    k_max: int = DEFAULT_SUPPORT_MAX

    def __post_init__(self):
        if self.alpha <= 2.0:
            raise ValueError("power-law exponent must exceed 2")
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError("need 1 <= k_min <= k_max")

    def support(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    def pmf(self) -> np.ndarray:
        w = self.support().astype(float) ** -self.alpha
        return w / w.sum()

    def truncated_tail_mass(self) -> float:
        """Approximate probability mass discarded beyond k_max (integral bound)."""
        w_sum = float((self.support().astype(float) ** -self.alpha).sum())
        tail = self.k_max ** (1.0 - self.alpha) / (self.alpha - 1.0)
        return tail / (w_sum + tail)


@dataclass(frozen=True)
class ExponentialDegrees:
    """Truncated integer exponential degree distribution, P(k) proportional to exp(-rate k)."""

    rate: float
    k_min: int = 1
    k_max: int = DEFAULT_SUPPORT_MAX

    def __post_init__(self):
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError("need 1 <= k_min <= k_max")

    def support(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    def pmf(self) -> np.ndarray:
        w = np.exp(-self.rate * self.support().astype(float))
        return w / w.sum()

    def truncated_tail_mass(self) -> float:
        """Exact probability mass discarded beyond k_max (geometric tail)."""
        w_sum = float(np.exp(-self.rate * self.support().astype(float)).sum())
        tail = math.exp(-self.rate * (self.k_max + 1)) / (1.0 - math.exp(-self.rate))
        return tail / (w_sum + tail)


def condition_independent_case(dist, rho_share_0: float) -> ConditionVerdict:
    """Decision rule when sharing is independent of degree.

    Every node shares with probability 1 - rho_share_0 regardless of degree,
    so P(exposed | k) = 1 - rho_share_0^k and
    lhs = E over k of (1 - d_bar/k)(1 - rho_share_0^k), summed over the
    truncated support of ``dist`` (PowerLawDegrees or ExponentialDegrees).
    """
    if not 0.0 <= rho_share_0 <= 1.0:
        raise ValueError("non-sharing probability must lie in [0, 1]")
    ks = dist.support().astype(float)
    return _degree_class_verdict(ks, dist.pmf(), 1.0 - rho_share_0 ** ks)


def sharer_degree_sign_heuristic(g: Graph, s: SharingState, sample_size: int, rng: np.random.Generator) -> str:
    """Estimate the sign of the degree-sharing correlation without full data.

    The sharer-side mean degree is exact (the sharer list is known); the
    non-sharer side is estimated from uniform non-sharer samples, or
    computed exactly when sample_size covers the whole complement. Returns
    'positive'/'negative' when the gap exceeds two standard errors of the
    sampled mean, else 'inconclusive'.
    """
    if sample_size < 1:
        raise ValueError("need sample_size >= 1")
    if s.num_sharers == 0:
        raise ValueError("the sharer set must be known and non-empty")
    non_sharers = np.flatnonzero(~s.mask)
    if non_sharers.size == 0:
        raise ValueError("every node shares; the comparison is undefined")
    sharer_mean = float(g.degrees[s.sharers].mean())
    if sample_size >= non_sharers.size:
        picked = g.degrees[non_sharers].astype(float)
        stderr = 0.0
    else:
        picked = g.degrees[non_sharers[rng.integers(0, non_sharers.size, size=sample_size)]].astype(float)
        stderr = float(picked.std(ddof=1)) / math.sqrt(sample_size) if sample_size > 1 else math.inf
    gap = sharer_mean - float(picked.mean())
    if gap > 2.0 * stderr:
        return "positive"
    if gap < -2.0 * stderr:
        return "negative"
    return "inconclusive"
