"""Estimation-error-bound comparison between the PN, PU and NU minimizers.

Under a Rademacher-complexity decay assumption (complexity of the function
class bounded by C/sqrt(n) for samples from any of the three marginals),
the three minimizers admit estimation error bounds that share one constant

    f(delta) = 4 * L * C + sqrt(2 * ln(4 / delta))

times mode-specific sample terms:

    PN:  pi/sqrt(n_pos)     + (1-pi)/sqrt(n_neg)
    PU:  2*pi/sqrt(n_pos)   + 1/sqrt(n_unl)
    NU:  1/sqrt(n_unl)      + 2*(1-pi)/sqrt(n_neg)

Which bound is tighter is decided by closed-form ratios that depend only on
(pi, n_pos, n_neg, n_unl):

    alpha_pu_pn = (pi/sqrt(n_pos) + 1/sqrt(n_unl)) / ((1-pi)/sqrt(n_neg))
    alpha_nu_pn = ((1-pi)/sqrt(n_neg) + 1/sqrt(n_unl)) / (pi/sqrt(n_pos))

with the PU (resp. NU) bound tighter than PN iff the ratio is below one.
As n_unl grows without bound the ratios tend to reciprocal limits
alpha_star and 1/alpha_star, so one of PU/NU always wins in the limit
except on the razor's edge n_pos/n_neg = pi^2/(1-pi)^2.

The module also evaluates the comparators in proportional-ratio form, the
matched-prior special case with its closed-form minimum, and a Monte-Carlo
check that the empirical Rademacher complexity of the bounded linear class
stays below C_w*C_phi/sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .risk import MODE_TABLE, _check_pi


def _check_count(n, name: str) -> int:
    if n is None or not n >= 1:
        raise ValueError(f"{name} must be a positive count, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class ComparatorInput:
    """Sample-size configuration feeding the bound comparators.

    ``n_unl=None`` denotes an unbounded unlabeled sample (used only by the
    asymptotic comparator and by limiting bound values); it is kept
    symbolic rather than as a floating-point infinity.  ``rho_pn`` is the
    limiting ratio n_pos/n_neg that ``alpha_star(case="b")`` needs.
    """

    pi: float
    n_pos: int
    n_neg: int
    n_unl: Optional[int] = None
    rho_pn: Optional[float] = None

    def __post_init__(self) -> None:
        _check_pi(self.pi)
        _check_count(self.n_pos, "n_pos")
        _check_count(self.n_neg, "n_neg")
        if self.n_unl is not None:
            _check_count(self.n_unl, "n_unl")
        if self.rho_pn is not None and not self.rho_pn > 0:
            raise ValueError(f"rho_pn must be positive, got {self.rho_pn}")


@dataclass(frozen=True)
class BoundParams:
    """Confidence level and class-size constants entering f(delta).

    ``complexity_const`` is the constant C in the complexity decay
    C/sqrt(n); for the bounded-hyperplane class it equals C_w * C_phi.
    """

    delta: float = 0.05
    lipschitz: float = 0.5
    complexity_const: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not self.lipschitz > 0:
            raise ValueError(f"lipschitz must be positive, got {self.lipschitz}")
        if not self.complexity_const > 0:
            raise ValueError(f"complexity_const must be positive, got {self.complexity_const}")

    @classmethod
    def for_hyperplane_class(cls, delta: float, lipschitz: float, c_w: float, c_phi: float):
        return cls(delta=delta, lipschitz=lipschitz, complexity_const=c_w * c_phi)


def f_delta(params: BoundParams) -> float:
    """The shared bound constant 4*L*C + sqrt(2*ln(4/delta))."""
    return 4.0 * params.lipschitz * params.complexity_const + math.sqrt(
        2.0 * math.log(4.0 / params.delta)
    )


def bound_terms(inp: ComparatorInput, *, allow_unbounded_unl: bool = False):
    """The three sample terms multiplying f(delta), as (pn, pu, nu).

    Each is the sum over the mode's two sample sets of the set's estimator
    weight over sqrt(n); an unbounded unlabeled set contributes weight/inf = 0.
    """
    if inp.n_unl is None and not allow_unbounded_unl:
        raise ValueError("n_unl is unbounded; pass allow_unbounded_unl=True for limit values")
    roots = {"x_pos": math.sqrt(inp.n_pos), "x_neg": math.sqrt(inp.n_neg),
             "x_unl": math.inf if inp.n_unl is None else math.sqrt(inp.n_unl)}
    terms = []
    for spec in MODE_TABLE.values():
        (first, second), (w_first, w_second) = spec.sets, spec.weights(inp.pi)
        terms.append(w_first / roots[first] + w_second / roots[second])
    return tuple(terms)


def bound_values(inp: ComparatorInput, params: BoundParams, *,
                 allow_unbounded_unl: bool = False):
    """Estimation error bound values (V_pn, V_pu, V_nu)."""
    f = f_delta(params)
    t_pn, t_pu, t_nu = bound_terms(inp, allow_unbounded_unl=allow_unbounded_unl)
    return f * t_pn, f * t_pu, f * t_nu


def alpha_pu_pn(inp: ComparatorInput) -> float:
    """Finite-sample comparator of the PU bound against the PN bound.

    Below one iff the PU bound is the tighter of the two.
    """
    n_unl = _check_count(inp.n_unl, "n_unl")
    return (inp.pi / math.sqrt(inp.n_pos) + 1.0 / math.sqrt(n_unl)) / (
        (1.0 - inp.pi) / math.sqrt(inp.n_neg)
    )


def alpha_nu_pn(inp: ComparatorInput) -> float:
    """Finite-sample comparator of the NU bound against the PN bound."""
    n_unl = _check_count(inp.n_unl, "n_unl")
    return ((1.0 - inp.pi) / math.sqrt(inp.n_neg) + 1.0 / math.sqrt(n_unl)) / (
        inp.pi / math.sqrt(inp.n_pos)
    )


def alpha_pu_pn_from_ratios(pi: float, rho_pn: float, rho_pu: float) -> float:
    """PU/PN comparator when sample sizes grow proportionally.

    rho_pn = n_pos/n_neg and rho_pu = n_pos/n_unl are treated as free
    constants; the value equals the count form whenever counts realize the
    ratios.
    """
    _check_pi(pi)
    if not (rho_pn > 0 and rho_pu > 0):
        raise ValueError("ratio constants must be positive")
    return (pi + math.sqrt(rho_pu)) / ((1.0 - pi) * math.sqrt(rho_pn))


def alpha_nu_pn_from_ratios(pi: float, rho_pn: float, rho_nu: float) -> float:
    """NU/PN comparator when sample sizes grow proportionally."""
    _check_pi(pi)
    if not (rho_pn > 0 and rho_nu > 0):
        raise ValueError("ratio constants must be positive")
    return (1.0 - pi + math.sqrt(rho_nu)) / (pi / math.sqrt(rho_pn))


def alpha_pu_pn_matched_prior(pi: float, rho_pu: float) -> float:
    """PU/PN comparator under the supervised sampling ratio.

    Enforcing rho_pn = pi/(1-pi), the comparator collapses to
    (pi + sqrt(rho_pu)) / sqrt(pi*(1-pi)).
    """
    _check_pi(pi)
    if not rho_pu > 0:
        raise ValueError("rho_pu must be positive")
    return (pi + math.sqrt(rho_pu)) / math.sqrt(pi * (1.0 - pi))


def alpha_nu_pn_matched_prior(pi: float, rho_nu: float) -> float:
    """NU/PN comparator under the supervised sampling ratio (mirror case)."""
    _check_pi(pi)
    if not rho_nu > 0:
        raise ValueError("rho_nu must be positive")
    return (1.0 - pi + math.sqrt(rho_nu)) / math.sqrt(pi * (1.0 - pi))


def matched_prior_argmin(rho: float) -> float:
    """Prior at which the matched-prior comparator attains its minimum."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    r = math.sqrt(rho)
    return r / (2.0 * r + 1.0)


def matched_prior_min(rho: float) -> float:
    """Minimum value 2*sqrt(rho + sqrt(rho)) of the matched-prior comparator."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    return 2.0 * math.sqrt(rho + math.sqrt(rho))


VERDICT_PU = "pu-promising"
VERDICT_NU = "nu-promising"
VERDICT_TIE = "degenerate-tie"


@dataclass(frozen=True)
class AlphaStarResult:
    """Limits of the two comparators as the unlabeled sample grows unboundedly."""

    alpha_star_pu: float
    alpha_star_nu: float
    verdict: str


def alpha_star(inp: ComparatorInput, case: Literal["a", "b"] = "a") -> AlphaStarResult:
    """Asymptotic comparator limits and the collect-more-unlabeled verdict.

    Case "a" keeps n_pos and n_neg finite while the unlabeled sample grows:
    alpha_star = pi*sqrt(n_neg) / ((1-pi)*sqrt(n_pos)).  Case "b" lets all
    three grow with n_pos/n_neg -> rho_pn and the unlabeled size dominating:
    alpha_star = pi / ((1-pi)*sqrt(rho_pn)).  In both cases the PU and NU
    limits are exact reciprocals, so one of them is below one, except at
    the degenerate tie n_pos/n_neg = pi^2/(1-pi)^2 where both equal one.
    """
    pi = inp.pi
    if case == "a":
        a_pu = pi * math.sqrt(inp.n_neg) / ((1.0 - pi) * math.sqrt(inp.n_pos))
        a_nu = (1.0 - pi) * math.sqrt(inp.n_pos) / (pi * math.sqrt(inp.n_neg))
    elif case == "b":
        if inp.rho_pn is None:
            raise ValueError("case 'b' needs the limiting ratio rho_pn")
        a_pu = pi / ((1.0 - pi) * math.sqrt(inp.rho_pn))
        a_nu = (1.0 - pi) * math.sqrt(inp.rho_pn) / pi
    else:
        raise ValueError(f"case must be 'a' or 'b', got {case!r}")

    if a_pu < 1.0:
        verdict = VERDICT_PU
    elif a_pu > 1.0:
        verdict = VERDICT_NU
    else:
        verdict = VERDICT_TIE
    return AlphaStarResult(alpha_star_pu=a_pu, alpha_star_nu=a_nu, verdict=verdict)


@dataclass(frozen=True)
class RademacherCheck:
    """Outcome of the Monte-Carlo empirical Rademacher complexity check."""

    estimate: float
    bound: float
    std_error: float
    passed: bool


def rademacher_mc_check(sample, c_w: float, c_phi: float, num_sigma_draws: int,
                        seed) -> RademacherCheck:
    """Monte-Carlo check of the bounded linear class complexity bound.

    For the class of linear scores with weight norm at most c_w over
    feature rows of norm at most c_phi, the empirical Rademacher complexity
    conditioned on the n rows equals (c_w/n) * E_sigma ||sum_i sigma_i x_i||,
    which is bounded by c_w*c_phi/sqrt(n).  The expectation is estimated
    from num_sigma_draws sign vectors; the check passes when the estimate
    is below the bound plus three Monte-Carlo standard errors (with a
    relative float tolerance for the equality cases).
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("sample must be a non-empty matrix of feature rows")
    if not (c_w > 0 and c_phi > 0):
        raise ValueError("c_w and c_phi must be positive")
    if num_sigma_draws < 1_000:
        raise ValueError(f"num_sigma_draws must be at least 1000, got {num_sigma_draws}")
    n = x.shape[0]
    row_norms = np.linalg.norm(x, axis=1)
    if np.any(row_norms > c_phi * (1.0 + 1e-9)):
        raise ValueError(
            f"feature rows must have norm at most c_phi={c_phi}; max is {row_norms.max()}"
        )

    rng = np.random.default_rng(seed)
    sigma = rng.integers(0, 2, size=(num_sigma_draws, n), dtype=np.int8) * 2.0 - 1.0
    norms = np.linalg.norm(sigma @ x, axis=1)
    estimate = (c_w / n) * float(np.mean(norms))
    std_error = (c_w / n) * float(np.std(norms, ddof=1)) / math.sqrt(num_sigma_draws)
    bound = c_w * c_phi / math.sqrt(n)
    threshold = bound + 3.0 * std_error
    passed = estimate <= threshold or math.isclose(estimate, threshold, rel_tol=1e-12)
    return RademacherCheck(estimate=estimate, bound=bound, std_error=std_error, passed=passed)
