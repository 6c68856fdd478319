"""Schedule equivalence for scale-invariant nets.

A fixed-LR/fixed-WD momentum run can be matched, iterate for iterate, by a run
whose learning rate grows as eta0 * alpha^(-2t-1) while the weight decay decays
as Xi(alpha) * alpha^(2t-1) (plus a t=0 correction), provided alpha lies in the
admissible interval. The matched run computes the same predictor at every step
while its parameter norm inflates by alpha^(-t), which is the lever the
inflation demo uses against magnitude-sensitive measures.

With the prescribed buffer overrides (theta_{-1} = alpha*theta_0 and
eta_{-1} = alpha*eta_0) the matched weight decay is the pure closed form
lambda_t = Xi(alpha) * alpha^(2t-1) = (1 - beta)/eta_t for every t >= 0; a
t=0 correction would double-count the momentum contribution the overridden
buffer already supplies (verified against the baseline at machine precision).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComplexEndpoints, ConfigError, InadmissibleAlpha, \
    PredictionMismatch
from .measures import MeasureConfig, compute_all
from .net import NetSpec, backward_batch, flatten_params, forward_batch, \
    init_checkpoint, param_views, predict, unflatten_params
from .optim import OptState, sgdm_step
from .rng import Rng


@dataclass(frozen=True)
class ExpPPParams:
    eta0: float
    gamma: float
    lam: float
    alpha: float

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ConfigError("eta0 must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")


@dataclass
class ExpPPDerived:
    eta0: float
    gamma: float
    lam: float
    delta_lambda: float
    alpha_L: float
    alpha_minus: float = None
    alpha_plus: float = None
    remark_ok: bool = False
    interval_empty: bool = True
    complex_endpoints: bool = False

    def xi(self, alpha: float) -> float:
        if self.lam == 0.0:
            # factored form (alpha-1)(alpha-gamma)/eta0: exactly zero at alpha=gamma
            return (alpha - 1.0) * (alpha - self.gamma) / self.eta0
        le = self.lam * self.eta0
        return (alpha * alpha - alpha * (1.0 - le + self.gamma) + self.gamma) / self.eta0

    def beta(self, alpha: float) -> float:
        rho = 1.0 - self.lam * self.eta0
        return (rho + self.gamma) / alpha - self.gamma / (alpha * alpha)

    def contains(self, alpha: float) -> bool:
        """Membership in (alpha_L, alpha_-] u [alpha_+, 1).

        The closed endpoints carry a few-ulp tolerance: alpha = gamma at
        lambda = 0 is exactly the right endpoint but the computed endpoint
        rounds one ulp away.
        """
        if self.complex_endpoints:
            return False
        tol_minus = 8.0 * math.ulp(max(abs(self.alpha_minus), 1e-300))
        tol_plus = 8.0 * math.ulp(max(abs(self.alpha_plus), 1e-300))
        return (self.alpha_L < alpha <= self.alpha_minus + tol_minus) or \
            (self.alpha_plus - tol_plus <= alpha < 1.0)

    def interval_str(self) -> str:
        if self.complex_endpoints:
            return "(empty: complex endpoints)"
        return f"({self.alpha_L:.6g}, {self.alpha_minus:.6g}] u [{self.alpha_plus:.6g}, 1)"


def derive(eta0: float, gamma: float, lam: float) -> ExpPPDerived:
    """Interval endpoints and admissibility flags for the given base run."""
    le = lam * eta0
    delta_lambda = (1.0 - gamma) ** 2 - 2.0 * (1.0 + gamma) * le + le * le
    alpha_L = gamma / (1.0 - le + gamma)
    out = ExpPPDerived(eta0=eta0, gamma=gamma, lam=lam,
                       delta_lambda=delta_lambda, alpha_L=alpha_L)
    if delta_lambda < 0:
        out.complex_endpoints = True
        return out
    root = math.sqrt(delta_lambda)
    out.alpha_minus = (1.0 + gamma - le - root) / 2.0
    out.alpha_plus = (1.0 + gamma - le + root) / 2.0
    out.remark_ok = (le <= (1.0 - math.sqrt(gamma)) ** 2) and (alpha_L < out.alpha_minus)
    lower_empty = out.alpha_minus <= out.alpha_L
    upper_empty = out.alpha_plus >= 1.0
    out.interval_empty = lower_empty and upper_empty
    return out


def derive_params(params: ExpPPParams) -> ExpPPDerived:
    return derive(params.eta0, params.gamma, params.lam)


@dataclass
class ExpPPSchedule:
    beta: float
    etas: tuple  # eta_t for t = 0..T: step t runs at etas[t] and hands on etas[t + 1]
    lambdas: tuple  # lambda_t for t = 0..T-1
    theta_prev_scale: float = 0.0  # buffer override: theta_{-1} = alpha * theta_0
    eta_prev: float = 0.0  # buffer override: eta_{-1} = alpha * eta_0


def schedule(params: ExpPPParams, T: int) -> ExpPPSchedule:
    """Closed-form matched schedules for T steps; requires alpha admissible."""
    der = derive_params(params)
    if der.complex_endpoints:
        raise ComplexEndpoints(
            f"discriminant {der.delta_lambda} < 0: no real interval endpoints")
    if not der.contains(params.alpha):
        raise InadmissibleAlpha(
            f"alpha {params.alpha} outside admissible interval {der.interval_str()}")
    a, eta0 = params.alpha, params.eta0
    try:
        etas = tuple(eta0 * a ** (-2 * t - 1) for t in range(T + 1))
        finite = math.isfinite(etas[-1])  # the largest, as alpha < 1
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"alpha {a} with {T} steps: the matched learning rate "
                          f"eta0 * alpha^(-2T-1) exceeds the float range")
    xi = der.xi(a)
    lambdas = tuple(xi * a ** (2 * t - 1) for t in range(T))
    return ExpPPSchedule(beta=der.beta(a), etas=etas, lambdas=lambdas,
                         theta_prev_scale=a, eta_prev=a * eta0)


@dataclass
class VerifyReport:
    alpha: float
    T: int
    tol: float
    logit_tol: float
    passed: bool
    max_rel_dev: float = 0.0  # ||theta_B - a^-t theta_A|| / ||a^-t theta_A||
    max_rel_dev_vs_baseline: float = 0.0  # same deviation over ||theta_A||
    max_logit_diff: float = 0.0
    max_grad_scale_err: float = 0.0
    diverged_at: int = None
    steps: list = field(default_factory=list)  # (t, rel_dev, logit_diff)
    checkpoint_a: object = None
    checkpoint_b: object = None

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "T": self.T,
            "tol": self.tol,
            "logit_tol": self.logit_tol,
            "passed": self.passed,
            "max_rel_dev": self.max_rel_dev,
            "max_rel_dev_vs_baseline": self.max_rel_dev_vs_baseline,
            "max_logit_diff": self.max_logit_diff,
            "max_grad_scale_err": self.max_grad_scale_err,
            "diverged_at": self.diverged_at,
        }


def verify_equivalence(spec: NetSpec, dataset, params: ExpPPParams, T: int,
                       tol: float = 1e-6, logit_tol: float = 1e-9,
                       seed: int = 0) -> VerifyReport:
    """Run the fixed baseline (A) and the matched schedule (B) in lockstep.

    A and B are the two rows of one optimizer stack and share the
    initialization; gradients are full-batch. The deviation is measured
    against the predicted iterate alpha^(-t) * theta_A; the same deviation
    normalized by ||theta_A|| is reported alongside. A step that leaves a row
    non-finite sets diverged_at and ends both runs before it. The train-set
    pass after step t gives its logit gap and, before the last step, the
    gradient of step t + 1: T + 1 train-set forwards for T steps.
    """
    if not spec.normalize_hidden:
        raise ConfigError("schedule equivalence requires a scale-invariant net")
    sched = schedule(params, T)
    ckpt0 = init_checkpoint(spec, Rng(seed).spawn_key("init"))
    theta0 = flatten_params(spec, ckpt0.weights, ckpt0.biases)
    X, y = dataset.features, dataset.labels

    state = OptState(np.stack([theta0, theta0]),
                     np.stack([theta0, sched.theta_prev_scale * theta0]),
                     np.array([[params.eta0], [sched.etas[0]]]),
                     np.array([[params.eta0], [sched.eta_prev]]), 0)
    report = VerifyReport(alpha=params.alpha, T=T, tol=tol, logit_tol=logit_tol,
                          passed=False)

    log_alpha = math.log(params.alpha)
    if T:
        w, b = param_views(spec, state.theta_curr, ckpt0)
        g = backward_batch(spec, w, b, X, y)[0]
    for t in range(T):
        # row by row: a norm over axis 1 rounds differently
        gnorm_a, gnorm_b = np.linalg.norm(g[0]), np.linalg.norm(g[1])
        if gnorm_a > 0:
            expected = math.exp(t * log_alpha) * gnorm_a
            report.max_grad_scale_err = max(report.max_grad_scale_err,
                                            abs(gnorm_b / expected - 1.0))
        new = sgdm_step(state, g, params.gamma,
                        np.array([[params.lam], [sched.lambdas[t]]]),
                        np.array([[params.eta0], [sched.etas[t + 1]]]))
        if new.diverged.any():
            report.diverged_at = t
            break
        state = new
        theta_a, theta_b = state.theta_curr
        scale = math.exp(-(t + 1) * log_alpha)
        predicted = scale * theta_a
        dev = float(np.linalg.norm(theta_b - predicted))
        denom_pred = float(np.linalg.norm(predicted))
        denom_base = float(np.linalg.norm(theta_a))
        rel = dev / denom_pred if denom_pred else np.inf
        w, b = param_views(spec, state.theta_curr, ckpt0)
        if t < T - 1:
            record = []
            g = backward_batch(spec, w, b, X, y, record)[0]
            logits = record[-1][0]
        else:
            logits = forward_batch(spec, w, b, X)
        logit_diff = float(np.max(np.abs(logits[0] - logits[1])))
        report.max_rel_dev = max(report.max_rel_dev, rel)
        report.max_rel_dev_vs_baseline = max(
            report.max_rel_dev_vs_baseline, dev / denom_base if denom_base else np.inf)
        report.max_logit_diff = max(report.max_logit_diff, logit_diff)
        report.steps.append((t + 1, rel, logit_diff))
    report.passed = (report.diverged_at is None
                     and report.max_rel_dev <= tol
                     and report.max_logit_diff <= logit_tol)
    ckpts = [unflatten_params(spec, theta, ckpt0) for theta in state.theta_curr]
    for ck, run_id in zip(ckpts, ("exppp-baseline", "exppp-matched")):
        ck.meta = dict(ckpt0.meta, epoch=T, run_id=run_id)
    report.checkpoint_a, report.checkpoint_b = ckpts
    return report


def demo_alphas(der: ExpPPDerived, count: int = 8) -> tuple:
    """Log-spaced admissible alphas for the inflation sweep."""
    if der.complex_endpoints or der.interval_empty:
        raise InadmissibleAlpha("admissible interval is empty")
    if der.alpha_minus > der.alpha_L:
        lo = der.alpha_L + 0.05 * (der.alpha_minus - der.alpha_L)
        hi = der.alpha_minus
    else:
        lo = der.alpha_plus
        hi = 1.0 - 0.05 * (1.0 - der.alpha_plus)
    return tuple(float(a) for a in np.geomspace(lo, hi, count))


def inflation_demo(spec: NetSpec, ds_train, ds_test, params: ExpPPParams, T: int,
                   mconfig: MeasureConfig = None, tol: float = 1e-6,
                   seed: int = 0) -> dict:
    """Measure both endpoint checkpoints and report per-measure inflation ratios."""
    report = verify_equivalence(spec, ds_train, params, T, tol=tol, seed=seed)
    ms_a = compute_all(spec, report.checkpoint_a, ds_train, mconfig)
    ms_b = compute_all(spec, report.checkpoint_b, ds_train, mconfig)
    ratios = {
        name: ms_b.values[name] / ms_a.values[name]
        for name in sorted(set(ms_a.values) & set(ms_b.values))
    }
    pred_a = predict(spec, report.checkpoint_a, ds_test.features)
    pred_b = predict(spec, report.checkpoint_b, ds_test.features)
    err_a = float((pred_a != ds_test.labels).mean())
    err_b = float((pred_b != ds_test.labels).mean())
    if report.passed and not np.array_equal(pred_a, pred_b):
        raise PredictionMismatch("equivalence verified but predictions differ")
    return {
        "verify": report.to_dict(),
        "alpha_to_minus_T": params.alpha ** (-T),
        "measures_a": ms_a.values,
        "measures_b": ms_b.values,
        "ratios": ratios,
        "test_error_a": err_a,
        "test_error_b": err_b,
        "predictions_equal": bool(np.array_equal(pred_a, pred_b)),
    }
