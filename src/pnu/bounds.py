"""Estimation-error-bound comparison between the PN, PU and NU minimizers.

Under a Rademacher-complexity decay assumption (complexity of the function
class bounded by C/sqrt(n) for samples from any of the three marginals),
the three minimizers admit estimation error bounds that share one constant

    f(delta) = 4 * L * C + sqrt(2 * ln(4 / delta))

times mode-specific sample terms:

    PN:  pi/sqrt(n_pos)     + (1-pi)/sqrt(n_neg)
    PU:  2*pi/sqrt(n_pos)   + 1/sqrt(n_unl)
    NU:  1/sqrt(n_unl)      + 2*(1-pi)/sqrt(n_neg)

Bound values are reported at delta = 0.05, L = 1/2 (the scaled ramp's
Lipschitz constant) and C = 1, the module constants DELTA, LIPSCHITZ,
COMPLEXITY_CONST and F_DELTA.  Every bound carries the same factor, so
which bound is tighter is decided by closed-form ratios that depend only on
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
stays below C_w*C_phi/sqrt(n), from a fixed 2,000 sign vectors.  The signs
are drawn as random bytes, one bit per sign, and unpacked one block of sign
vectors at a time, so the check holds 2,000 x n/8 bytes of signs, not 2,000 x n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import _as_matrix, _check_count, _check_pi, _check_real
from .risk import MODE_TABLE


def _plain(x):
    """A 0-d result as a Python float or str; an array result as it is."""
    return x if np.ndim(x) else np.asarray(x).item()


@dataclass(frozen=True)
class ComparatorInput:
    """Sample-size configuration feeding the bound comparators.

    Counts must be positive integers no larger than float64's largest value,
    and are stored as given, so the comparators and the bound values read
    the same numbers, each as float64.  ``pi`` and the counts may instead be
    equal-shape numpy arrays, one case per element; the comparators then
    return arrays.  ``n_unl=None`` denotes an unbounded unlabeled sample
    (used only by the asymptotic comparator and by limiting bound values);
    it is kept symbolic rather than as a floating-point infinity.
    """

    pi: float
    n_pos: int
    n_neg: int
    n_unl: Optional[int] = None

    def __post_init__(self) -> None:
        pi = _check_pi(self.pi, arrays=True)
        _check_count(self.n_pos, "n_pos", like=pi)
        _check_count(self.n_neg, "n_neg", like=pi)
        if self.n_unl is not None:
            _check_count(self.n_unl, "n_unl", like=pi)


#: Bound values are reported at delta, the scaled ramp's L and C = C_w * C_phi.
DELTA = 0.05
LIPSCHITZ = 0.5
COMPLEXITY_CONST = 1.0
#: The shared bound constant f(delta) = 4*L*C + sqrt(2*ln(4/delta)).
F_DELTA = 4.0 * LIPSCHITZ * COMPLEXITY_CONST + math.sqrt(2.0 * math.log(4.0 / DELTA))


def _root(n):
    """The square root of a count, in float64; a Python int past int64 converts first."""
    return np.sqrt(n if isinstance(n, np.ndarray) else float(n))


def bound_values(inp: ComparatorInput):
    """Estimation error bound values (V_pn, V_pu, V_nu); limits for ``n_unl=None``.

    Each is F_DELTA times the sum over the mode's two sample sets of the
    set's estimator weight over sqrt(n); an unbounded unlabeled set
    contributes weight/inf = 0.
    """
    roots = {"x_pos": _root(inp.n_pos), "x_neg": _root(inp.n_neg),
             "x_unl": math.inf if inp.n_unl is None else _root(inp.n_unl)}
    values = []
    for spec in MODE_TABLE.values():
        (first, second), (w_first, w_second) = spec.sets, spec.weights(inp.pi)
        values.append(F_DELTA * _plain(w_first / roots[first] + w_second / roots[second]))
    return tuple(values)


def _unl_root(inp: ComparatorInput):
    if inp.n_unl is None:
        raise ValueError("n_unl must be a positive integer count, got None")
    return _root(inp.n_unl)


def alpha_pu_pn(inp: ComparatorInput) -> float:
    """Finite-sample comparator of the PU bound against the PN bound.

    Below one iff the PU bound is the tighter of the two.
    """
    return _plain((inp.pi / _root(inp.n_pos) + 1.0 / _unl_root(inp)) / (
        (1.0 - inp.pi) / _root(inp.n_neg)
    ))


def alpha_nu_pn(inp: ComparatorInput) -> float:
    """Finite-sample comparator of the NU bound against the PN bound."""
    return _plain(((1.0 - inp.pi) / _root(inp.n_neg) + 1.0 / _unl_root(inp)) / (
        inp.pi / _root(inp.n_pos)
    ))


def alpha_pu_pn_from_ratios(pi: float, rho_pn: float, rho_pu: float) -> float:
    """PU/PN comparator when sample sizes grow proportionally.

    rho_pn = n_pos/n_neg and rho_pu = n_pos/n_unl are treated as free
    constants; the value equals the count form whenever counts realize the
    ratios.
    """
    _check_pi(pi)
    _check_real(rho_pn, "rho_pn")
    _check_real(rho_pu, "rho_pu")
    return (pi + math.sqrt(rho_pu)) / ((1.0 - pi) * math.sqrt(rho_pn))


def alpha_nu_pn_from_ratios(pi: float, rho_pn: float, rho_nu: float) -> float:
    """NU/PN comparator when sample sizes grow proportionally."""
    _check_pi(pi)
    _check_real(rho_pn, "rho_pn")
    _check_real(rho_nu, "rho_nu")
    return (1.0 - pi + math.sqrt(rho_nu)) / (pi / math.sqrt(rho_pn))


def alpha_pu_pn_matched_prior(pi: float, rho_pu: float) -> float:
    """PU/PN comparator under the supervised sampling ratio.

    Enforcing rho_pn = pi/(1-pi), the comparator collapses to
    (pi + sqrt(rho_pu)) / sqrt(pi*(1-pi)).
    """
    _check_pi(pi)
    _check_real(rho_pu, "rho_pu")
    return (pi + math.sqrt(rho_pu)) / math.sqrt(pi * (1.0 - pi))


def alpha_nu_pn_matched_prior(pi: float, rho_nu: float) -> float:
    """NU/PN comparator under the supervised sampling ratio (mirror case)."""
    _check_pi(pi)
    _check_real(rho_nu, "rho_nu")
    return (1.0 - pi + math.sqrt(rho_nu)) / math.sqrt(pi * (1.0 - pi))


def matched_prior_argmin(rho: float) -> float:
    """Prior at which the matched-prior comparator attains its minimum."""
    _check_real(rho, "rho")
    r = math.sqrt(rho)
    return r / (2.0 * r + 1.0)


def matched_prior_min(rho: float) -> float:
    """Minimum value 2*sqrt(rho + sqrt(rho)) of the matched-prior comparator."""
    _check_real(rho, "rho")
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


def alpha_star(inp: ComparatorInput) -> AlphaStarResult:
    """Asymptotic comparator limits and the collect-more-unlabeled verdict.

    With n_pos and n_neg fixed and the unlabeled sample growing without
    bound, alpha_pu_pn tends to alpha_star = pi*sqrt(n_neg) / ((1-pi)*sqrt(n_pos))
    and alpha_nu_pn to its reciprocal; ``n_unl`` is not read.  The limits
    depend on the counts only through n_pos/n_neg, so they are also the
    limits when all three sizes grow at that ratio with the unlabeled size
    dominating.  One of them is below one, except at the degenerate tie
    n_pos/n_neg = pi^2/(1-pi)^2 where both equal one.
    """
    pi = inp.pi
    a_pu = pi * _root(inp.n_neg) / ((1.0 - pi) * _root(inp.n_pos))
    a_nu = (1.0 - pi) * _root(inp.n_pos) / (pi * _root(inp.n_neg))
    verdict = np.where(a_pu < 1.0, VERDICT_PU, np.where(a_pu > 1.0, VERDICT_NU, VERDICT_TIE))
    return AlphaStarResult(alpha_star_pu=_plain(a_pu), alpha_star_nu=_plain(a_nu),
                           verdict=_plain(verdict))


#: Sign vectors drawn by the Rademacher check.
_SIGMA_DRAWS = 2_000
#: Sign vectors are drawn as packed random bytes, eight signs to a byte
#: (_SIGMA_DRAWS x ceil(n/8) uint8), and unpacked, turned into floats and
#: summed over the rows this many entries at a time (2 MiB of float64), so
#: no _SIGMA_DRAWS x n array of signs is ever built.
_SIGMA_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class RademacherCheck:
    """Outcome of the Monte-Carlo empirical Rademacher complexity check."""

    estimate: float
    bound: float
    std_error: float
    passed: bool


def rademacher_mc_check(sample, c_w: float, c_phi: float, seed) -> RademacherCheck:
    """Monte-Carlo check of the bounded linear class complexity bound.

    For the class of linear scores with weight norm at most c_w over
    feature rows of norm at most c_phi, the empirical Rademacher complexity
    conditioned on the n rows equals (c_w/n) * E_sigma ||sum_i sigma_i x_i||,
    which is bounded by c_w*c_phi/sqrt(n).  The expectation is estimated
    from _SIGMA_DRAWS = 2,000 sign vectors; the check passes when the estimate
    is below the bound plus three Monte-Carlo standard errors (with a
    relative float tolerance for the equality cases).
    """
    x = _as_matrix(sample, "sample")
    if x.shape[0] == 0:
        raise ValueError("sample must be a non-empty matrix of feature rows")
    _check_real(c_w, "c_w")
    _check_real(c_phi, "c_phi")
    n = x.shape[0]
    row_norms = np.linalg.norm(x, axis=1)
    if np.any(row_norms > c_phi * (1.0 + 1e-9)):
        raise ValueError(
            f"feature rows must have norm at most c_phi={c_phi}; max is {row_norms.max()}"
        )

    rng = np.random.default_rng(seed)
    packed = rng.integers(0, 256, size=(_SIGMA_DRAWS, (n + 7) // 8), dtype=np.uint8)
    norms = np.empty(_SIGMA_DRAWS)
    step = max(1, _SIGMA_BLOCK_ENTRIES // n)
    for start in range(0, _SIGMA_DRAWS, step):
        # Bits b become signs 2b - 1 in int8, in the unpacked buffer, and
        # then floats: the same +-1.0 as b * 2.0 - 1.0, in half the passes.
        # The floats are a temporary, freed before the next block is made.
        signs = np.unpackbits(packed[start : start + step], axis=1, count=n).view(np.int8)
        signs *= 2
        signs -= 1
        norms[start : start + len(signs)] = np.linalg.norm(signs.astype(float) @ x, axis=1)
    estimate = (c_w / n) * float(np.mean(norms))
    std_error = (c_w / n) * float(np.std(norms, ddof=1)) / math.sqrt(_SIGMA_DRAWS)
    bound = c_w * c_phi / math.sqrt(n)
    threshold = bound + 3.0 * std_error
    passed = estimate <= threshold or math.isclose(estimate, threshold, rel_tol=1e-12)
    return RademacherCheck(estimate=estimate, bound=bound, std_error=std_error, passed=passed)
