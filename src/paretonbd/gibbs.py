"""Data-augmented Gibbs sampler for per-customer (lam, mu) posteriors.

A reference for the pipeline's empirical-Bayes labels (paretonbd.posterior),
whose types, hyperprior and input check it shares; only fit-mcmc runs it.

The model: lam_i ~ Gamma(r, rate alpha), mu_i ~ Gamma(s, rate beta),
purchases Poisson(lam_i) until an Exp(mu_i) dropout.  Augmenting each
customer with an alive indicator z_i and, when dead, a dropout time
tau_i in (t_x, T] makes every conditional conjugate except the two Gamma
shapes, which are updated by slice sampling.

Sweep order: per customer (z, tau), then lam_i, then mu_i, then the four
hyperparameters.  All per-customer draws are vectorized; a fixed seed gives
bit-identical output.

The conjugate rate draws go through one kernel, ``_gamma``.  A Gamma shape
below 1 costs numpy about twice as much per draw as a shape above 1, and
those shapes are common: lam for customers with x = 0 when r < 1, mu for the
alive when s < 1.  So the kernel draws Gamma(a + 1) for such a shape and
multiplies it by U**(1/a), computed as exp(log1p(-u) / a) from one uniform
u per boosted entry, which is again Gamma(a) (Marsaglia & Tsang 2000).
Shapes of 1 and above are drawn directly.

The public conditional draws (``draw_alive``, ``draw_dropout_time``,
``draw_lambda``, ``draw_mu``) and ``update_hyperparams`` validate their
inputs on every call, then run an unchecked kernel.  ``run_chain`` validates
the cohort and computes the window T - t_x once.  ``gibbs_sweep`` calls the
kernels directly and computes lam + mu and the log survival factor
-(lam + mu) * (T - t_x) once per sweep, for both the alive share and the
dropout time.  The sweep draws a dropout time for every customer and
selects the exposure with ``np.where`` rather than gathering the dead: at
t_x == T the kernel returns exactly T, and the alive keep T anyway, so the
draws are the same bits without the boolean gathers.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .data import write_csv
from .likelihood import RATE_FLOOR, _conditional_p_alive, conditional_p_alive
from .posterior import HYPER_PRIOR, HyperParams, PosteriorSummary, fit_inputs

# Guard against float underflow of Gamma draws with very small shapes; rates
# this small are indistinguishable from zero for any horizon of interest.
_DRAW_FLOOR = np.finfo(float).tiny


@dataclass
class ChainConfig:
    sweeps: int = 4000
    burn_in: int = 1000
    thin: int = 2
    seed: int = 0
    hyper_prior: tuple = HYPER_PRIOR
    keep_hyper_trace: bool = False
    # When set, (r, alpha, s, beta) stay at these values and only the
    # per-customer conditionals run; used by calibration tests.
    fixed_hyper: HyperParams | None = None

    def __post_init__(self):
        if self.sweeps <= self.burn_in:
            raise ValueError("sweeps must exceed burn_in")
        if self.burn_in < 0 or self.thin < 1:
            raise ValueError("burn_in must be >= 0 and thin >= 1")


def draw_alive(x, t_x, T, lam, mu, u):
    """Alive indicator: true iff u falls below the conditional alive probability.

    The threshold is the exact posterior survival share
    (lam+mu)*exp(-(lam+mu)*T) / (mu*exp(-(lam+mu)*t_x) + lam*exp(-(lam+mu)*T)),
    which equals 1 at t_x == T; anything else would make the augmented chain
    target the wrong posterior.
    """
    return u < conditional_p_alive(x, t_x, T, lam, mu)


def draw_dropout_time(t_x, T, lam, mu, u):
    """Inverse-CDF draw of the dropout time, truncated-Exp(lam+mu) on (t_x, T).

    u = 0 maps to t_x and u = 1 to T; interior u stays strictly inside.
    """
    t_x = np.asarray(t_x, dtype=float)
    T = np.asarray(T, dtype=float)
    if np.any(t_x >= T):
        raise ValueError("dropout time undefined when t_x >= T")
    theta = np.asarray(lam, dtype=float) + np.asarray(mu, dtype=float)
    return _dropout_time(t_x, T, theta, u)


def _dropout_time(t_x, T, theta, u, decay=None):
    """Unchecked kernel of draw_dropout_time, for theta = lam + mu; decay is
    -theta * (T - t_x), computed here unless the caller passes it."""
    if decay is None:
        decay = -theta * (T - t_x)
    # 1 - exp(-theta*(T-t_x)) via expm1, exact for small theta
    span_mass = -np.expm1(decay)
    return t_x - np.log1p(-u * span_mass) / theta


def _gamma(shape, scale, rng):
    """Gamma(shape, scale) draws for 1-d float arrays of one size.

    Unchecked: every shape must be positive.  Each shape a < 1 is drawn as
    Gamma(a + 1) * U**(1/a), with one uniform per such entry, in index
    order, after the Gamma draws.
    """
    small = shape < 1.0
    draw = rng.standard_gamma(shape + small)
    idx = np.flatnonzero(small)
    boost = np.exp(np.log1p(-rng.random(idx.size)) / shape[idx])
    draw[idx] *= boost
    draw *= scale
    return draw


def draw_lambda(x, exposure, hyper, rng):
    """Conjugate purchase-rate draw: Gamma(r + x, rate alpha + exposure)."""
    x, exposure = np.broadcast_arrays(np.asarray(x, dtype=float),
                                      np.asarray(exposure, dtype=float))
    if np.any(exposure <= 0):
        raise ValueError("exposure must be positive")
    return _draw_lambda(x.ravel(), exposure.ravel(), hyper,
                        rng).reshape(x.shape)[()]


def _draw_lambda(x, exposure, hyper, rng):
    """Unchecked kernel of draw_lambda, for float arrays of one 1-d shape."""
    draw = _gamma(hyper.r + x, 1.0 / (hyper.alpha + exposure), rng)
    return np.maximum(draw, _DRAW_FLOOR)


def draw_mu(alive, T, tau, hyper, rng):
    """Conjugate dropout-hazard draw.

    Alive at T: Gamma(s, rate beta + T).  Dead at tau: Gamma(s + 1,
    rate beta + tau).
    """
    alive = np.asarray(alive, dtype=bool)
    T = np.asarray(T, dtype=float)
    if tau is None:
        if not np.all(alive):
            raise ValueError("tau required for customers drawn dead")
        tau = T
    tau = np.asarray(tau, dtype=float)
    if np.any(~alive & ~((tau > 0) & np.isfinite(tau))):
        raise ValueError("dead customers need a finite positive tau")
    alive, exposure = np.broadcast_arrays(alive, np.where(alive, T, tau))
    return _draw_mu(alive.ravel(), exposure.ravel(), hyper,
                    rng).reshape(alive.shape)[()]


def _draw_mu(alive, exposure, hyper, rng):
    """Unchecked kernel of draw_mu, for arrays of one 1-d shape; exposure is
    T for the alive and tau for the dead."""
    shape = np.where(alive, hyper.s, hyper.s + 1.0)
    draw = _gamma(shape, 1.0 / (hyper.beta + exposure), rng)
    return np.maximum(draw, _DRAW_FLOOR)


def _slice(logpdf, x0, rng, lower=-np.inf, width=1.0, max_steps=200):
    """One slice-sampling update on (lower, inf) with step-out and shrinkage."""
    log_y = logpdf(x0) - rng.exponential(1.0)
    lo = x0 - width * rng.random()
    hi = lo + width
    steps = int(rng.integers(0, max_steps))
    lo_steps, hi_steps = steps, max_steps - 1 - steps
    while lo > lower and lo_steps > 0 and logpdf(lo) > log_y:
        lo -= width
        lo_steps -= 1
    lo = max(lo, lower)
    while hi_steps > 0 and logpdf(hi) > log_y:
        hi += width
        hi_steps -= 1
    while True:
        # the arithmetic of rng.uniform(lo, hi), without its call overhead
        x1 = lo + (hi - lo) * rng.random()
        if x1 > lower and logpdf(x1) > log_y:
            return x1
        if x1 < x0:
            lo = x1
        else:
            hi = x1


def _population_scale_move(rate_hyper, weighted_exposure, count_term, a0, b0,
                           rng):
    """Joint rescale of a rate population and its Gamma rate hyperparameter.

    Multiplying every individual rate by 1/c and the hyperparameter by c is
    a scale-group move whose Haar-weighted conditional density is

        f(c) proportional to c**(a0 - 1 - count_term)
             * exp(-weighted_exposure / c - b0 * rate_hyper * c),

    where count_term is the total event count tied to the rates (purchases
    for lam, observed deaths for mu) and weighted_exposure is
    sum(rate_i * exposure_i).  The move slides the whole population along
    the ridge that couples it to its hyperparameter, which the one-at-a-time
    conditionals traverse only by a slow random walk.  Sampled in log c so
    the slice never touches the c = 0 singularity; returns c.
    """

    def logpdf(z):
        return ((a0 - count_term) * z
                - weighted_exposure * np.exp(-z)
                - b0 * rate_hyper * np.exp(z))

    return float(np.exp(_slice(logpdf, 0.0, rng, width=0.5)))


def _shape_marginal(n, sum_log, sum_val, a0, b0):
    """Log-density of a Gamma shape with the paired rate integrated out.

    For values v_1..v_n ~ Gamma(shape, rate) with priors shape ~ Gamma(a0, b0)
    and rate ~ Gamma(a0, b0), integrating the rate analytically leaves

        (a0-1) log shape - b0 shape + (shape-1) sum_log - n lnGamma(shape)
        + lnGamma(a0 + n shape) - (a0 + n shape) log(b0 + sum_val).

    Sampling the shape from this marginal and then the rate from its
    conjugate conditional is a blocked draw of the pair, which avoids the
    slow random walk along their posterior ridge.
    """
    log_scale = np.log(b0 + sum_val)

    def logpdf(shape):
        if shape <= 0:
            return -np.inf
        return (
            (a0 - 1.0) * np.log(shape)
            - b0 * shape
            + (shape - 1.0) * sum_log
            - n * gammaln(shape)
            + gammaln(a0 + n * shape)
            - (a0 + n * shape) * log_scale
        )

    return logpdf


def update_hyperparams(lams, mus, hyper, cfg, rng):
    """One blocked Gibbs update of (r, alpha, s, beta).

    Each shape is slice-sampled from its rate-integrated marginal
    (_shape_marginal); the rate then follows conjugately:
    alpha | r ~ Gamma(a0 + N r, b0 + sum lam), likewise beta.
    """
    lams = np.asarray(lams, dtype=float)
    mus = np.asarray(mus, dtype=float)
    if lams.size == 0 or np.any(lams <= 0) or np.any(mus <= 0):
        raise ValueError("rate lists must be nonempty and positive")
    return _update_hyperparams(lams, mus, hyper.r, hyper.s, cfg, rng)


def _update_hyperparams(lams, mus, r, s, cfg, rng):
    """Unchecked kernel of update_hyperparams, from the current shapes r and
    s (the rates do not enter the update), for nonempty positive float
    arrays."""
    a0, b0 = cfg.hyper_prior
    n = lams.size

    sum_lam = lams.sum()
    r = _slice(_shape_marginal(n, np.log(lams).sum(), sum_lam, a0, b0),
               r, rng, lower=0.0)
    alpha = rng.gamma(a0 + n * r, 1.0 / (b0 + sum_lam))

    sum_mu = mus.sum()
    s = _slice(_shape_marginal(n, np.log(mus).sum(), sum_mu, a0, b0),
               s, rng, lower=0.0)
    beta = rng.gamma(a0 + n * s, 1.0 / (b0 + sum_mu))

    return HyperParams(r=r, alpha=alpha, s=s, beta=beta)


def gibbs_sweep(x, t_x, T, lam, mu, hyper, cfg, rng, span=None):
    """One systematic scan: (z, tau) per customer, lam, mu, hyperparameters.

    Returns the new (lam, mu, hyper).  The inputs are trusted: float arrays
    of a validated summary with T > 0, and positive rates, as run_chain
    passes them, with span = T - t_x when the caller has it.  With
    cfg.fixed_hyper set, the population-level moves are skipped and hyper
    passes through unchanged.
    The hyperparameter stage pairs each blocked (shape, rate) draw with a
    population scale move, which decorrelates the rates from their
    hyperparameter far faster than the one-at-a-time conditionals alone.
    """
    n = x.shape[0]
    if span is None:
        span = T - t_x
    theta = lam + mu
    decay = -theta * span
    alive = rng.random(n) < _conditional_p_alive(lam, mu, theta, decay)
    # exposure: T for the alive, the dropout time tau for the dead.  tau is
    # drawn for everyone; at t_x == T, where nobody is drawn dead (the
    # conditional alive probability is exactly 1), it is exactly T and
    # raises no warning.
    exposure = np.where(alive, T, _dropout_time(t_x, T, theta, rng.random(n),
                                                decay))
    lam = _draw_lambda(x, exposure, hyper, rng)
    mu = _draw_mu(alive, exposure, hyper, rng)

    if cfg.fixed_hyper is not None:
        return lam, mu, cfg.fixed_hyper

    a0, b0 = cfg.hyper_prior
    c_lam = _population_scale_move(
        hyper.alpha, float((lam * exposure).sum()), float(x.sum()),
        a0, b0, rng)
    c_mu = _population_scale_move(
        hyper.beta, float((mu * exposure).sum()), float(n - alive.sum()),
        a0, b0, rng)
    lam = np.maximum(lam / c_lam, _DRAW_FLOOR)
    mu = np.maximum(mu / c_mu, _DRAW_FLOOR)
    return lam, mu, _update_hyperparams(lam, mu, hyper.r, hyper.s, cfg, rng)


def run_chain(table, cfg):
    """Systematic-scan Gibbs over a CalibrationTable; returns posterior means.

    Per-customer means are averages of post-burn-in draws taken every
    ``thin`` sweeps; the population summary averages the hyperparameter
    draws at the same points.
    """
    x, t_x, T = fit_inputs(table)
    n = len(x)
    span = T - t_x
    rng = np.random.default_rng(cfg.seed)
    lam = (x + 1.0) / T
    mu = np.full(n, 1.0) / T
    hyper = cfg.fixed_hyper or HyperParams(1.0, 1.0, 1.0, 1.0)

    sum_lam = np.zeros(n)
    sum_mu = np.zeros(n)
    sum_hyper = np.zeros(4)
    kept = 0
    trace = [] if cfg.keep_hyper_trace else None

    for sweep in range(cfg.sweeps):
        lam, mu, hyper = gibbs_sweep(x, t_x, T, lam, mu, hyper, cfg, rng,
                                     span)
        if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            draw = np.array([hyper.r, hyper.alpha, hyper.s, hyper.beta])
            sum_lam += lam
            sum_mu += mu
            sum_hyper += draw
            kept += 1
            if trace is not None:
                trace.append(draw)

    hyper_mean = HyperParams(*(sum_hyper / kept))
    return PosteriorSummary(
        customer_ids=list(table.customer_ids),
        mean_lambda=np.maximum(sum_lam / kept, RATE_FLOOR),
        mean_mu=np.maximum(sum_mu / kept, RATE_FLOOR),
        hyper_mean=hyper_mean,
        hyper_trace=np.asarray(trace) if trace is not None else None,
    )


def write_hyper_trace_csv(path, trace):
    """Thinned hyperparameter draws, one row per kept sweep."""
    write_csv(path, ["r", "alpha", "s", "beta"],
              np.asarray(trace, dtype=float).T)
