"""Empirical-Bayes labels: a posterior-mode fit of (r, alpha, s, beta) and
exact per-customer posterior means at that mode.

With lam and mu integrated out, a customer (x, t_x, T) is either alive at
T, with mass (alpha+T)**-(r+x) * (beta+T)**-s, or dead at a dropout time
tau in (t_x, T), with density s * (alpha+tau)**-(r+x) * (beta+tau)**-(s+1);
both carry the factor Gamma(r+x)/Gamma(r) * alpha**r * beta**s.  Writing e
for the exposure (T when alive, tau when dead) and d for the dead
indicator, the posterior means are

    E[lam] = (r+x) * E[1/(alpha+e)],    E[mu] = E[(s+d)/(beta+e)],

and the gradient of the log-likelihood is an expectation over the same
posterior of (e, d) (Fisher's identity).  One quadrature kernel, ``_terms``,
gives all of them, in the log domain, on chunks of customers.

The tau integral is taken in w = log((c+tau)/(c+t_x)), c = min(alpha,
beta), by NODES-point Gauss-Legendre.  Both factors of the density are
smooth in w, and the range stops where (alpha+tau)**-(r+x) has fallen by
_EFOLDS e-folds, so the steep factor of a large x costs no accuracy: the
log-likelihood agrees with the closed-form hypergeometric expression to
~1e-12 over the parameter ranges of the tests.

``fit_eb`` finds the mode of the log-posterior in (log r, log alpha, log s,
log beta), with each parameter p under a Gamma(a0, rate b0) prior (a0 log p
- b0 p on the log scale), by BFGS with backtracking, then returns the
posterior means at the mode as a ``PosteriorSummary``.  The prior,
``HYPER_PRIOR``, is also the Gibbs sampler's default; it keeps the mode
interior where the likelihood alone runs off to a homogeneous-mu boundary
(s, beta -> infinity).  Empirical-Bayes route: Schmittlein, Morrison &
Colombo 1987; Fader, Hardie & Lee 2005; Abe 2009.

The label types, input check (``fit_inputs``) and labels CSV shared with
the reference Gibbs sampler (paretonbd.gibbs) live here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, psi

from .data import read_csv, write_csv
from .likelihood import RATE_FLOOR

HYPER_PRIOR = (1e-3, 1e-3)  # (a0, b0) of each parameter's Gamma prior
NODES = 24
# Customers per kernel call.  Each of the kernel's four (CHUNK, NODES)
# float buffers stays under 128 KiB, small enough for the allocator to serve
# from reused heap blocks; 2,000-customer chunks were no faster and held
# ~0.5 MB more at peak.
CHUNK = 512
# e-folds of (alpha+tau)**-(r+x) covered; the rest is below double precision
_EFOLDS = 40.0


@dataclass
class HyperParams:
    """Shapes and rates of the two mixing Gammas: lam ~ (r, alpha), mu ~ (s, beta)."""

    r: float
    alpha: float
    s: float
    beta: float

    def __post_init__(self):
        for name in ("r", "alpha", "s", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"hyperparameter {name} must be positive, got {v}")


@dataclass
class PosteriorSummary:
    """Posterior means per customer; hyper_mean is fit_eb's mode or the Gibbs mean."""

    customer_ids: list
    mean_lambda: np.ndarray
    mean_mu: np.ndarray
    hyper_mean: HyperParams
    hyper_trace: np.ndarray | None = None


def fit_inputs(table):
    """(x, t_x, T) of a CalibrationTable as float arrays, t_x and T its own,
    for either label fit; raises ValueError for an empty table or T <= 0."""
    if len(table) == 0:
        raise ValueError("no customers to fit")
    if np.any(table.T <= 0):
        raise ValueError("exposure must be positive")
    return np.asarray(table.x, dtype=float), table.t_x, table.T


def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes (ascending) and weights on (0, 1), by
    Newton's method on the Legendre three-term recurrence.  numpy's
    leggauss gives the same to ~1e-15 but loads LAPACK, ~0.9 MB of resident
    memory, into every process that imports the package."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    w = 1.0 / ((1.0 - x * x) * slope * slope)
    return (1.0 - x) / 2.0, w


_U, _W = _gauss_legendre(NODES)

# BFGS: Armijo constant, largest step in any log-parameter, stop when the
# objective changes by less than this relative amount, iteration cap.
_ARMIJO = 1e-4
_MAX_STEP = 5.0
_REL_TOL = 1e-12
_MAX_ITER = 200


def _terms(x, t_x, T, r, alpha, s, beta):
    """Per-customer log-likelihood and posterior moments, for float arrays
    of one chunk: (log L, P(dead), E[log(alpha+e)], E[1/(alpha+e)],
    E[log(beta+e)], E[(s+d)/(beta+e)])."""
    k = r + x
    a0 = alpha + t_x
    b0 = beta + t_x
    la0 = np.log(a0)
    laT = np.log(alpha + T)
    lb0 = np.log(b0)
    lbT = np.log(beta + T)
    # Nodes in w = log((c+tau)/(c+t_x)), c = min(alpha, beta), on (0, L):
    # the whole window, or up to where (alpha+tau)**-(k-1) has fallen by
    # _EFOLDS e-folds.  Both factors are smooth in w: their poles sit at
    # tau = -alpha and -beta, which w maps at least pi off the real axis.
    ell = laT - la0
    cut = np.divide(_EFOLDS, k - 1.0, out=ell.copy(),
                    where=ell * (k - 1.0) > _EFOLDS)
    c0 = min(alpha, beta) + t_x
    qa = c0 / a0
    qb = c0 / b0
    L = np.log1p(np.expm1(cut) / qa)
    # four (n, NODES) buffers, updated in place
    w = np.multiply.outer(L, _U)
    # log((alpha+tau)/(alpha+t_x)) and log((beta+tau)/(beta+t_x))
    db = np.expm1(w)
    da = np.multiply(db, qa[:, None])
    np.log1p(da, out=da)
    db *= qb[:, None]
    np.log1p(db, out=db)
    # log of the integrand over its value at t_x, with Jacobian c + tau
    tmp = np.multiply(da, k[:, None])
    phi = w
    phi -= tmp
    np.multiply(db, s + 1.0, out=tmp)
    phi -= tmp
    top = phi.max(axis=1)
    phi -= top[:, None]
    g = np.exp(phi, out=phi)
    g *= _W
    G = g.sum(axis=1)

    log_alive = -k * laT - s * lbT
    scale = L * G
    log_dead = np.log(scale, out=np.full_like(scale, -np.inf),
                      where=scale > 0.0)
    log_dead += top + np.log(s * c0) - k * la0 - (s + 1.0) * lb0
    log_mix = np.logaddexp(log_alive, log_dead)
    p_alive = np.exp(log_alive - log_mix)
    p_dead = np.exp(log_dead - log_mix)
    dead = p_dead / G                      # posterior weight of a unit of g

    e_log_a = p_alive * laT + p_dead * la0 + dead * np.einsum("ij,ij->i", g,
                                                              da)
    e_log_b = p_alive * lbT + p_dead * lb0 + dead * np.einsum("ij,ij->i", g,
                                                              db)
    for buf in (da, db):      # (alpha+t_x)/(alpha+tau), (beta+t_x)/(beta+tau)
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
    e_inv_a = (p_alive * np.exp(-laT)
               + dead * np.exp(-la0) * np.einsum("ij,ij->i", g, da))
    e_mu = (p_alive * s * np.exp(-lbT)
            + dead * (s + 1.0) * np.exp(-lb0) * np.einsum("ij,ij->i", g,
                                                          db))
    log_lik = (gammaln(k) - gammaln(r) + r * np.log(alpha) + s * np.log(beta)
               + log_mix)
    return log_lik, p_dead, e_log_a, e_inv_a, e_log_b, e_mu


def log_posterior(x, t_x, T, z, hyper_prior=HYPER_PRIOR):
    """Log-posterior of z = (log r, log alpha, log s, log beta) given the
    summaries, and its gradient in z.  Each parameter p carries the prior
    term a0 log p - b0 p; hyper_prior = (0, 0) leaves the log-likelihood."""
    a0, b0 = hyper_prior
    z = np.asarray(z, dtype=float)
    p = np.exp(z)
    r, alpha, s, beta = p
    value = float(np.sum(a0 * z - b0 * p))
    grad = a0 - b0 * p
    for lo in range(0, len(x), CHUNK):
        rows = slice(lo, lo + CHUNK)
        xc = x[rows]
        log_lik, p_dead, e_log_a, e_inv_a, e_log_b, e_mu = _terms(
            xc, t_x[rows], T[rows], r, alpha, s, beta)
        value += log_lik.sum()
        grad += (
            r * (np.sum(psi(r + xc)) - len(xc) * (psi(r) - np.log(alpha))
                 - e_log_a.sum()),
            len(xc) * r - alpha * np.dot(r + xc, e_inv_a),
            len(xc) * s * np.log(beta) + p_dead.sum() - s * e_log_b.sum(),
            len(xc) * s - beta * e_mu.sum(),
        )
    return value, grad


def posterior_means(x, t_x, T, hyper):
    """Exact per-customer posterior means (E[lam], E[mu]) given the
    population hyperparameters, floored at RATE_FLOOR."""
    lam = np.empty(len(x))
    mu = np.empty(len(x))
    for lo in range(0, len(x), CHUNK):
        rows = slice(lo, lo + CHUNK)
        _, _, _, e_inv_a, _, e_mu = _terms(
            x[rows], t_x[rows], T[rows], hyper.r, hyper.alpha, hyper.s,
            hyper.beta)
        lam[rows] = (hyper.r + x[rows]) * e_inv_a
        mu[rows] = e_mu
    return np.maximum(lam, RATE_FLOOR), np.maximum(mu, RATE_FLOOR)


def _bfgs(objective, z):
    """Minimize objective(z) -> (value, gradient) by BFGS with backtracking
    (Nocedal & Wright 2006, ch. 6); stops when an accepted step changes the
    value by less than _REL_TOL relative, or after _MAX_ITER steps."""
    f, g = objective(z)
    H = np.eye(z.size)
    for it in range(_MAX_ITER):
        direction = -H @ g
        slope = g @ direction
        if slope >= 0.0:                  # lost descent: restart
            H = np.eye(z.size)
            direction, slope = -g, -(g @ g)
        if slope == 0.0:
            break
        step = min(1.0, _MAX_STEP / np.max(np.abs(direction)))
        while True:
            z_new = z + step * direction
            f_new, g_new = objective(z_new)
            if f_new <= f + _ARMIJO * step * slope:
                break
            step /= 2.0
            if step * np.max(np.abs(direction)) < 1e-12:
                return z
        s_k = z_new - z
        y_k = g_new - g
        sy = s_k @ y_k
        if sy > 0.0:
            if it == 0:
                H = (sy / (y_k @ y_k)) * np.eye(z.size)
            V = np.eye(z.size) - np.outer(s_k, y_k) / sy
            H = V @ H @ V.T + np.outer(s_k, s_k) / sy
        done = abs(f - f_new) <= _REL_TOL * max(abs(f_new), 1.0)
        z, f, g = z_new, f_new, g_new
        if done:
            break
    return z


def fit_eb(table, hyper_prior=HYPER_PRIOR):
    """Posterior mode in (log r, log alpha, log s, log beta) and each
    customer's exact posterior means at it; returns a PosteriorSummary whose
    hyper_mean is the mode (no trace)."""
    x, t_x, T = fit_inputs(table)
    n = len(x)

    def objective(z):
        # the per-customer mean keeps the gradient O(1) for BFGS's first step
        if np.max(np.abs(z)) > 50.0:      # exp(z) far outside any fit
            return np.inf, np.zeros_like(z)
        value, grad = log_posterior(x, t_x, T, z, hyper_prior)
        return -value / n, -grad / n

    hyper = HyperParams(*np.exp(_bfgs(objective, np.zeros(4))))
    lam, mu = posterior_means(x, t_x, T, hyper)
    return PosteriorSummary(customer_ids=list(table.customer_ids),
                            mean_lambda=lam, mean_mu=mu, hyper_mean=hyper)


LABEL_COLUMNS = ("customer_id", "lambda", "mu")


def write_labels_csv(path, customer_ids, lam, mu):
    """Labels file: one (lambda, mu) row per customer."""
    write_csv(path, LABEL_COLUMNS, [customer_ids, np.asarray(lam, dtype=float),
                                    np.asarray(mu, dtype=float)])


def read_labels_csv(path):
    cols = read_csv(path, LABEL_COLUMNS, "labels")
    return (list(cols["customer_id"]), np.array(cols["lambda"], dtype=float),
            np.array(cols["mu"], dtype=float))
