"""Post-processing: one fold over the count table, sample planning, operator means.

Every estimate is the same linear fold of a (basis, outcome) table:

    fold(table, total, weights) = (table * weights).sum() / total

where the table is a record's outcome counts with total n, or an exact
distribution's probabilities with total 1.  A record file's cells as it is read
(`measurement.read_record`) and a sampled stream's as it is drawn
(`RecordStream.counted`) are counted one way, by `measurement.counted`, so the
same record gives the same table.  `count_table` is the one way to get the table
(it draws and counts a stream on each call), and it checks mode, dimension and
MUB fingerprint on the way.  Only the weights differ: eta_ij
for an off-diagonal element, a unit vector for a diagonal, (d+1)-scaled
projector coefficients for an operator mean.  So any element, or any
operator in the bounded manifold, can be re-estimated from the same record
without new measurements, and the exact value is the same fold of the
distribution.  The sum runs over the cells in (basis, outcome) row-major
order, so the result is permutation-invariant and bit-stable per seed.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .measurement import (MAX_COPIES, OutcomeDistribution, PovmMode, RecordCounts, RecordStream,
                          check_family)
from .mub import MubFamily, born_weights, eta_table, projector_sum


def _copies(formula, **inputs) -> float:
    """formula(), a planned copy count, refused on overflow or from MAX_COPIES = 2**53 on."""
    try:
        x = formula()
    except (OverflowError, ZeroDivisionError):  # a square or a product past the float range
        x = math.inf
    if not x < MAX_COPIES:  # past it a float count cannot tell n from n + 1
        named = ", ".join(f"{k}={v}" for k, v in inputs.items())
        raise ValueError(f"cannot plan for {named}: the copy count overflows or reaches 2**53")
    return x


def plan_samples(epsilon: float, delta: float, m_elements: int = 1) -> int:
    """Copies needed so that M element estimates all land within epsilon.

    Returns the smallest N with 4*M*exp(-N*eps^2/2) <= delta, i.e.
    ceil(2*ln(4*M/delta)/eps^2) with an exact fix-up at the integer boundary.
    """
    _check_plan_args(epsilon, delta, m_elements)
    n = max(1, math.ceil(_copies(lambda: 2.0 * (math.log(4.0 * m_elements) - math.log(delta))
                                 / epsilon / epsilon,  # epsilon**2 overflows for huge epsilon
                                 epsilon=epsilon, delta=delta, elements=m_elements)))
    while hoeffding_tail(n, epsilon, m_elements) > delta:
        n += 1
    while n > 1 and hoeffding_tail(n - 1, epsilon, m_elements) <= delta:
        n -= 1
    return n


def plan_samples_general(epsilon: float, delta: float, k_bound: float, d: int,
                         m_operators: int = 1) -> int:
    """Copies for mean-value estimation of operators with coefficient bound K.

    N = floor(2*(K*(d+1)/eps)^2 * ln(4*M/delta)); with K = 1/(d+1) the count
    is independent of the dimension.
    """
    _check_plan_args(epsilon, delta, m_operators)
    if not k_bound > 0:
        raise ValueError(f"coefficient bound must be positive, got {k_bound}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    x = _copies(lambda: 2.0 * (k_bound * (d + 1) / epsilon) ** 2
                * (math.log(4.0 * m_operators) - math.log(delta)),
                epsilon=epsilon, delta=delta, k_bound=k_bound, d=d, operators=m_operators)
    return max(1, math.floor(x))


def _check_plan_args(epsilon: float | None, delta: float | None, m: int = 1) -> None:
    """Refuse epsilon <= 0 or inf, delta outside (0, 1) or so small that 4/delta overflows,
    and m < 1; None stands for not given."""
    if epsilon is not None and not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon == math.inf:
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if delta is not None and not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if delta is not None and not delta > sys.float_info.min:
        raise ValueError(f"delta must exceed the least normal float {sys.float_info.min}, got {delta}")
    if m < 1:
        raise ValueError(f"element count must be >= 1, got {m}")


def _wide_context():  # 28 digits, the widest exponents; decimal loads on the first bound: ~3 ms
    from decimal import MAX_EMAX, MIN_EMIN, Context, localcontext
    return localcontext(Context(Emin=MIN_EMIN, Emax=MAX_EMAX))


def hoeffding_tail(n: int, epsilon: float, count: int = 1, k_bound: float = 1.0, d: int = 0):
    """The one Hoeffding tail, 4*count*exp(-n*eps^2 / (2*K^2*(d+1)^2)), as a Decimal.

    It bounds Pr[the Re or Im part of any of `count` means is off by >= eps] for
    weights of modulus <= (d+1)*K (K = 1, d = 0 for an element's eta).  Exact
    inputs, 28 digits a step: an exponent of 1e18 is off by < 1e-8 relative.
    """
    from decimal import Decimal
    with _wide_context():
        eps, k = Decimal(epsilon), Decimal(k_bound)
        return 4 * count * (-(n * eps**2) / (2 * k**2 * (d + 1)**2)).exp()


def bound_text(bound, what: str) -> str:
    """A Decimal bound rounded up to 6 significant digits; ValueError naming `what` if it is 0."""
    from decimal import MIN_EMIN, ROUND_CEILING, Decimal
    with _wide_context():
        if not bound.is_normal():  # "<= 0" would print a false inequality
            raise ValueError(f"{what} is below 1e{MIN_EMIN}, too small to print")
        return str(bound.quantize(Decimal(f"1e{bound.adjusted() - 5}"), ROUND_CEILING).normalize())


@dataclass(frozen=True)
class SelectiveEstimate:
    """One estimated element: value, the record size behind it, and its guarantee."""

    i: int
    j: int
    value: complex
    n: int
    epsilon: float | None
    delta: float | None
    guarantee: str


def outcome_counts(record: RecordStream) -> np.ndarray:
    """Multiplicity of each (basis, outcome) cell, drawn anew, shaped (bases, d), read-only."""
    return record.counted().counts


def count_table(source: RecordStream | RecordCounts | OutcomeDistribution,
                family: MubFamily, mode: PovmMode) -> tuple:
    """(table, total): (counts, n) of a record or its counts, (probabilities, 1) of a distribution.

    The source is first checked against the family and the mode it must have.
    """
    check_family(source, family, mode)
    if isinstance(source, OutcomeDistribution):
        return source.probs.reshape(-1, source.d), 1
    if isinstance(source, RecordCounts):
        return source.counts, source.n
    return outcome_counts(source), source.n


def fold(table: np.ndarray, total: int, weights: np.ndarray):
    """The one estimator: the weights averaged over the (basis, outcome) table."""
    return (table * weights).sum() / total


def fold_element(source, family: MubFamily, i: int, j: int) -> complex:
    """Off-diagonal rho_ij: the mean of eta_ij over an offdiag record or distribution."""
    if i == j:
        raise ValueError("i == j is a diagonal element; use fold_diagonal")
    return complex(fold(*count_table(source, family, PovmMode.OFFDIAG), eta_table(family, i, j)))


def fold_diagonal(source, family: MubFamily, i: int) -> float:
    """Diagonal rho_ii: the frequency of outcome i in the computational basis."""
    family._check_index(i, "i")
    return float(fold(*count_table(source, family, PovmMode.COMPUTATIONAL),
                      np.eye(1, family.d, i)))


def _estimate(record: RecordStream | RecordCounts, i: int, j: int, value, epsilon,
              delta) -> SelectiveEstimate:
    """Attach the Hoeffding guarantee for record.n copies to a folded value.

    epsilon prints as its shortest round-trip repr, and the bound as the exact
    tail at that float, capped at 1, rounded up to 6 significant digits.  It
    says nothing sharper about the modulus.  A given delta below that tail is
    refused: no estimate carries a delta its record does not prove.
    """
    from decimal import Decimal
    _check_plan_args(epsilon, delta)
    n = record.n
    if epsilon is None:  # the radius at delta (0.01 if not given), stepped up to a tail <= delta
        target = delta or 0.01
        epsilon = math.sqrt(2.0 * math.log(4.0 / target) / n)
        while hoeffding_tail(n, epsilon) > target:
            epsilon = math.nextafter(epsilon, math.inf)
    tail = min(hoeffding_tail(n, epsilon), Decimal(1))
    shown = bound_text(tail, f"the bound for n={n} at epsilon={epsilon}")
    if delta is not None and tail > Decimal(delta):  # a derived epsilon is stepped to delta
        raise ValueError(f"--epsilon {epsilon!r} and --delta {delta!r} disagree: the bound "
                         f"for n={n} is {shown}, above delta")
    text = (f"Pr[max(|Re error|, |Im error|) >= {float(epsilon)!r}] <= {shown} "
            f"(Hoeffding, n={n})")
    return SelectiveEstimate(i=i, j=j, value=value, n=n, epsilon=epsilon, delta=delta,
                             guarantee=text)


def estimate_element(record: RecordStream | RecordCounts, family: MubFamily, i: int,
                     j: int, epsilon: float | None = None,
                     delta: float | None = None) -> SelectiveEstimate:
    """Off-diagonal element estimate with its Hoeffding guarantee."""
    return _estimate(record, i, j, fold_element(record, family, i, j), epsilon, delta)


def estimate_diagonal(record: RecordStream | RecordCounts, family: MubFamily, i: int,
                      epsilon: float | None = None,
                      delta: float | None = None) -> SelectiveEstimate:
    """Diagonal element estimate with its Hoeffding guarantee."""
    return _estimate(record, i, i, fold_diagonal(record, family, i), epsilon, delta)


@dataclass(frozen=True)
class OperatorCoefficients:
    """An operator expressed over the basis projectors plus an identity offset.

    The represented operator is  identity_coeff * I + sum_{m,k} coeffs[m-1,k] Pi_k^(m).
    decompose_operator stores the canonical form (offset -tr A, coeffs tr[A Pi]);
    extreme_operator stores the bounded-manifold form (offset 0, coeffs K e^{i phi}).
    k_bound is the max modulus of the traceless-part coefficients, which sets the
    Hoeffding radius (d+1)*K of the mean-value estimator.
    """

    d: int
    trace: complex
    coeffs: np.ndarray = field(repr=False)  # shape (d+1, d)
    identity_coeff: complex
    k_bound: float

    def reconstruct(self, family: MubFamily) -> np.ndarray:
        if family.d != self.d:
            raise ValueError(f"family dimension {family.d} != coefficient dimension {self.d}")
        return projector_sum(self.coeffs, family.vectors) + self.identity_coeff * np.eye(self.d)


def decompose_operator(a: np.ndarray, family: MubFamily) -> OperatorCoefficients:
    """Canonical projector decomposition of an arbitrary square operator."""
    a = np.asarray(a, dtype=np.complex128)
    d = family.d
    if a.shape != (d, d):
        raise ValueError(f"operator shape {a.shape} != {(d, d)}")
    if not np.isfinite(a).all():
        raise ValueError("operator has non-finite (NaN or inf) entries")
    coeffs = born_weights(family.vectors, a)
    tr = complex(np.trace(a))
    k_bound = float(np.abs(coeffs - tr / d).max())
    return OperatorCoefficients(d=d, trace=tr, coeffs=coeffs,
                                identity_coeff=-tr, k_bound=k_bound)


def extreme_operator(phases: np.ndarray, k_bound: float, family: MubFamily) -> OperatorCoefficients:
    """Member of the bounded manifold: coefficients K*e^(i phi), one per (m, k)."""
    d = family.d
    phases = np.asarray(phases, dtype=np.float64)
    if phases.shape != (d + 1, d):
        raise ValueError(f"phase array shape {phases.shape} != {(d + 1, d)}")
    if not np.isfinite(phases).all():
        raise ValueError("phases must be finite (no NaN or inf)")
    if not k_bound > 0:
        raise ValueError(f"coefficient bound must be positive, got {k_bound}")
    if not math.isfinite(d * (d + 1) * k_bound):  # the most the d(d+1) coefficients sum to
        raise ValueError(f"coefficient bound must keep d(d+1)*K finite, got {k_bound} at d={d}")
    coeffs = k_bound * np.exp(1j * phases)
    return OperatorCoefficients(d=d, trace=complex(coeffs.sum()), coeffs=coeffs,
                                identity_coeff=0.0, k_bound=float(k_bound))


def fold_mean(source, family: MubFamily, coeffs: OperatorCoefficients) -> complex:
    """Mean value of the operator from a full-mode record or distribution."""
    if coeffs.d != family.d:
        raise ValueError(f"coefficient dimension {coeffs.d} != family dimension {family.d}")
    table, total = count_table(source, family, PovmMode.FULL)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        value = complex(coeffs.identity_coeff + (coeffs.d + 1) * fold(table, total, coeffs.coeffs))
    if not cmath.isfinite(value):
        raise ValueError(f"operator mean overflows: coefficient bound {coeffs.k_bound}")
    return value
