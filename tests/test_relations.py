"""Derivative, identity, positivity, and monotonicity cross-checks."""

from fractions import Fraction

import mpmath
import pytest

from thermoait.dyadic import Dyadic
from thermoait.enclosure import ln2_enclosure
from thermoait.ensembles import EnsembleSnapshot, builtin_snapshot
from thermoait.errors import RangeError, SpecError
from thermoait.fixedpoint import _mid, _slope_estimate
from thermoait.relations import (
    _analytic_derivative, check_derivative, check_identities, check_monotone,
    check_positivity, third_derivative_bound,
)
from thermoait.thermo import INCREASING, moments

mpmath.mp.prec = 200

GEO = builtin_snapshot("geometric", 80)
SDM = builtin_snapshot("sdm4", 200, program_cap=64)


def named(report):
    return {c.name: c.passed for c in report.checks}


# -- derivative checks -------------------------------------------------

@pytest.mark.parametrize("quantity", ["Z", "F", "E", "S"])
def test_derivative_partial_geometric(quantity):
    r = check_derivative(GEO, quantity, Fraction(5, 8), k=5, h=Fraction(1, 256))
    assert r.passed
    assert named(r)["remainder-h"] is True
    assert named(r)["remainder-h/2"] is True
    assert named(r)["richardson"] is not False


@pytest.mark.parametrize("quantity", ["Z", "F", "E", "S"])
def test_derivative_limit_sdm4(quantity):
    r = check_derivative(SDM, quantity, Fraction(1, 2), k="limit",
                         h=Fraction(1, 1024))
    assert r.passed


def test_derivative_stencil_validation():
    with pytest.raises(RangeError):
        check_derivative(GEO, "F", Fraction(1, 2), k=3, h=Fraction(3, 4))
    with pytest.raises(RangeError):
        check_derivative(GEO, "F", Fraction(255, 256), k=3, h=Fraction(1, 64))
    with pytest.raises(SpecError):
        third_derivative_bound(GEO, "C", 3, Fraction(1, 2), Fraction(1, 256))


def test_third_derivative_bound_dominates_reference():
    # mpmath numeric third derivative of each quantity at T must stay
    # below 6K, since K encloses sup |q'''|/6 over the stencil interval
    T, h = Fraction(5, 8), Fraction(1, 256)
    lens = [1, 2, 3, 4, 5]

    def mu(j, t):
        return sum(l**j * mpmath.power(2, mpmath.mpf(-l) / t) for l in lens)

    t = mpmath.mpf(5) / 8
    refs = {
        "Z": mpmath.diff(lambda x: mu(0, x), t, 3),
        "F": mpmath.diff(lambda x: -x * mpmath.log(mu(0, x), 2), t, 3),
        "E": mpmath.diff(lambda x: mu(1, x) / mu(0, x), t, 3),
        "S": mpmath.diff(
            lambda x: mu(1, x) / mu(0, x) / x + mpmath.log(mu(0, x), 2), t, 3),
    }
    for q, ref in refs.items():
        K = third_derivative_bound(GEO, q, 5, T, h)
        bound = mpmath.mpf(K.m) * mpmath.power(2, K.e) * 6
        assert abs(ref) <= bound
        assert bound < 1000 * max(abs(ref), mpmath.mpf("1e-6"))  # not vacuous


# each quantity from geometric's Z and W at temperature t, in mpmath
GEOMETRIC_QUANTITIES = {
    "Z": lambda Z, W, t: Z,
    "F": lambda Z, W, t: -t * mpmath.log(Z, 2),
    "E": lambda Z, W, t: W / Z,
    "S": lambda Z, W, t: W / Z / t + mpmath.log(Z, 2),
}


def _geometric_moments(t, k):
    """Z and W of geometric, one program per length l >= 1, at temperature
    t: summed to depth k, or in the limit x/(1 - x) and x/(1 - x)^2 with
    x = 2^(-1/t)."""
    x = mpmath.power(2, -1 / t)
    if k == "limit":
        return x / (1 - x), x / (1 - x) ** 2
    return (mpmath.fsum(x**l for l in range(1, k + 1)),
            mpmath.fsum(l * x**l for l in range(1, k + 1)))


@pytest.mark.parametrize("k", [5, 16, "limit"])
@pytest.mark.parametrize("T", [Fraction(3, 8), Fraction(1, 2), Fraction(5, 8)])
@pytest.mark.parametrize("quantity", ["Z", "F", "E", "S"])
def test_record_slopes_against_mpmath(quantity, T, k):
    # q'(T) from mpmath's numerical derivative at 300 bits: the analytic
    # enclosure contains it, and the solve's estimate from the moments it
    # sums (the -F record's slope for F, negated) is within 2^-60 relative
    p = 64
    with mpmath.workprec(300):
        q = GEOMETRIC_QUANTITIES[quantity]
        ref = mpmath.diff(lambda t: q(*_geometric_moments(t, k), t),
                          mpmath.mpf(T.numerator) / T.denominator)
        analytic = _analytic_derivative(GEO, quantity, T, k, p)
        assert mpmath.ldexp(analytic.lo.m, analytic.lo.e) <= ref
        assert ref <= mpmath.ldexp(analytic.hi.m, analytic.hi.e)
        sign = -1 if quantity == "F" else 1
        record = INCREASING[("Z", "F", "E", "S").index(quantity)]
        mu = moments(GEO, T, k, (*record.orders, max(record.orders) + 1), p)
        x = Dyadic.from_fraction(T)
        num, den = _slope_estimate(record.name, mu, x,
                                   _mid(record.value(mu, x, p)),
                                   ln2_enclosure(p).lo)
        estimate = (sign * mpmath.ldexp(num.m, num.e)
                    / mpmath.ldexp(den.m, den.e))
        assert abs(estimate - ref) <= abs(ref) * mpmath.ldexp(1, -60)


def test_derivative_detects_wrong_claim():
    # the E stencil against the *wrong* analytic value (-S instead of C)
    # must be certifiably off: discrepancy far above K h^2
    from thermoait.relations import _central_difference, third_derivative_bound
    from thermoait.thermo import evaluate
    T, h = Fraction(5, 8), Fraction(1, 256)
    cd = _central_difference(GEO, "E", T, h, 5, 64)
    wrong = -evaluate(GEO, T, 5).S
    K = third_derivative_bound(GEO, "E", 5, T, h)
    gap = cd - wrong
    assert gap.lo.as_fraction() > K.as_fraction() * h * h


# -- identities --------------------------------------------------------

@pytest.mark.parametrize("snap,T,k", [
    (GEO, Fraction(5, 8), 1),
    (GEO, Fraction(5, 8), 7),
    (GEO, Fraction(5, 8), "limit"),
    (SDM, Fraction(1, 2), 4),
    (SDM, Fraction(1, 2), "limit"),
    (SDM, Fraction(3, 4), "limit"),
])
def test_identities_hold(snap, T, k):
    r = check_identities(snap, T, k)
    assert r.passed
    assert set(named(r)) == {"entropy-gibbs", "capacity-variance",
                             "free-energy-balance"}


@pytest.mark.parametrize("T", [Fraction(1, 4), Fraction(1, 2)])
def test_identities_sum_only_to_the_limit_cutoff(T):
    # at these temperatures the limit cutoff (32 and 102) lies below both
    # max lengths, so the Gibbs and variance forms must sum the same
    # lengths, and add the same tails, for both snapshots
    long = check_identities(builtin_snapshot("sdm4", 1500), T, "limit")
    short = check_identities(builtin_snapshot("sdm4", 200), T, "limit")
    for a, b in zip(long.checks, short.checks):
        assert (a.rhs.lo, a.rhs.hi) == (b.rhs.lo, b.rhs.hi), a.name


def test_identity_enclosures_are_tight():
    r = check_identities(GEO, Fraction(5, 8), 7)
    for c in r.checks:
        assert c.lhs.overlaps(c.rhs)
        assert c.rhs.width().as_fraction() < Fraction(1, 2**40)


# -- positivity --------------------------------------------------------

def test_positivity_with_strict_witnesses():
    r = check_positivity(GEO, Fraction(5, 8), 5)
    assert r.passed
    assert named(r)["entropy-strict"] is True
    assert named(r)["capacity-strict"] is True


def test_positivity_limit():
    r = check_positivity(SDM, Fraction(1, 2), "limit")
    assert r.passed
    assert named(r)["entropy-strict"] is True


def test_positivity_degenerate_depth_one():
    # a single program: S = C = 0; no strict witnesses should be claimed
    r = check_positivity(GEO, Fraction(5, 8), 1)
    assert r.passed
    assert "capacity-strict" not in named(r)


@pytest.mark.parametrize("k", [2, "limit"])
@pytest.mark.parametrize("T", [Fraction(1, 4), Fraction(1, 2),
                               Fraction(3, 4)])
def test_a_zero_count_length_changes_no_check(T, k):
    # two programs of one length have S = C = 0; the zero count at length
    # 10 holds no program, so it neither changes a sum nor witnesses a
    # strict positivity
    zero = EnsembleSnapshot("custom", 0, 10, [], {3: 2, 10: 0})
    plain = zero._replace(census={3: 2})
    for check in (check_identities, check_positivity):
        report = check(zero, T, k)
        assert repr(report) == repr(check(plain, T, k))
        assert not [n for n in named(report) if n.endswith("-strict")]


# -- monotonicity ------------------------------------------------------

def test_monotone_in_depth():
    r = check_monotone(SDM, Fraction(1, 2), 12)
    assert r.passed
    assert all(v is True for v in named(r).values())


def test_monotone_with_repeated_lengths():
    # literal ensemble has runs of equal lengths: E and S plateau but must
    # never certifiably decrease
    lit = builtin_snapshot("literal", 9)
    r = check_monotone(lit, Fraction(1, 2), 7)
    assert r.passed


def test_monotone_needs_range():
    with pytest.raises(SpecError):
        check_monotone(GEO, Fraction(1, 2), 1)
