"""The interval-function model: pointwise ops, cloning, and sharp elements."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogic import catalog, divisible
from qlogic.algebra import AlgebraError, find_isomorphism
from qlogic.catalog import BoundExceeded
from qlogic.divisible import (
    MAX_DENOMINATOR,
    IntervalFunction,
    complement,
    constant,
    diagonal_clone,
    indicator,
    indicator_algebra,
    is_sharp_function,
    luka_neg,
    luka_plus,
    lukasiewicz_chain,
    outer,
    pointwise_sum,
    product_bimorphism,
    sharp_elements_report,
)
from qlogic.mv import check_mv_axioms
from corpus import luka_chain, sample_function

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=30)


def fn(*values):
    return IntervalFunction([Fraction(v) for v in values])


def test_values_validated():
    with pytest.raises(AlgebraError):
        IntervalFunction([Fraction(3, 2)])


def test_interval_function_is_immutable_and_hashes_by_its_values():
    f = fn("1/2", 1)
    assert f == IntervalFunction([Fraction(1, 2), 1]) and hash(f) == hash(fn("1/2", 1))
    assert f != fn("1/2", 0)
    with pytest.raises(AttributeError):
        f.values = ()
    with pytest.raises(AttributeError):
        del f.values


def test_pointwise_sum_partial():
    f = fn("1/2", "3/4")
    assert pointwise_sum(f, fn("1/2", "1/4")).values == (Fraction(1), Fraction(1))
    assert pointwise_sum(f, fn(0, "1/2")) is None  # 3/4 + 1/2 > 1


def test_complement_involutive():
    f = fn("1/3", 1, 0)
    assert complement(complement(f)) == f
    assert pointwise_sum(f, complement(f)) == constant(3, 1)


def test_outer_then_diagonal_squares():
    f = fn("1/2", "1/3")
    diag = diagonal_clone(outer(f, f))
    assert diag.values == (Fraction(1, 4), Fraction(1, 9))
    assert diag == product_bimorphism(f, f)


def test_diagonal_of_outer_with_unit_restores():
    f = fn("2/5", "1/7", 1)
    assert diagonal_clone(outer(f, constant(3, 1))) == f
    assert diagonal_clone(outer(constant(3, 1), f)) == f


def test_clone_defect_is_f_minus_f_squared():
    # c(f,f) = f^2, so f and its clone differ by f - f^2; at f = 1/2 the gap
    # is 1/4, the worst case
    f = constant(2, Fraction(1, 2))
    clone = product_bimorphism(f, f)
    assert clone.values == (Fraction(1, 4), Fraction(1, 4))
    gap = pointwise_sum(clone, complement(f))
    assert gap is not None  # f^2 <= f, i.e. f^2 is orthogonal to f'


def test_outer_sum_partial():
    F = outer(fn("1/2", "1/2"), fn(1, 1))
    assert pointwise_sum(F, F).values[0] == Fraction(1)
    assert pointwise_sum(F, outer(constant(2, 1), constant(2, 1))) is None


def test_outer_is_row_major():
    F = outer(fn("1/2", "1/3"), fn(1, "1/5"))
    assert F.domain_size == 4
    # (x, y) at x*2 + y
    assert F.values == tuple(map(Fraction, ("1/2", "1/10", "1/3", "1/15")))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_diagonal_clone_rejects_non_square_domain(n):
    with pytest.raises(AlgebraError, match=f"domain size {n} is not a square"):
        diagonal_clone(constant(n, Fraction(1, 2)))


def test_sharp_iff_indicator():
    assert is_sharp_function(indicator(4, {0, 2}))
    assert not is_sharp_function(fn(1, "1/2", 0))
    assert is_sharp_function(constant(3, 0)) and is_sharp_function(constant(3, 1))


def test_luka_characteristic_identity_instance():
    a, b = Fraction(1, 3), Fraction(1, 2)
    lhs = luka_plus(luka_neg(luka_plus(luka_neg(a), b)), b)
    rhs = luka_plus(luka_neg(luka_plus(a, luka_neg(b))), a)
    assert lhs == rhs == Fraction(1, 2)


def test_lukasiewicz_chains_satisfy_axioms():
    triples = 0
    for d in range(1, MAX_DENOMINATOR + 1):
        rep = check_mv_axioms(lukasiewicz_chain(d))
        assert rep.passed, (d, rep.violations[:3])
        triples += rep.triples_checked
    assert triples == sum((d + 1) ** 3 for d in range(1, 25)) == 105_624


def test_lukasiewicz_chain_matches_integer_oracle():
    for d in range(1, MAX_DENOMINATOR + 1):
        assert lukasiewicz_chain(d) == luka_chain(d)


@pytest.mark.parametrize(
    "name, wrong",
    [
        # the sum not truncated at 1 leaves the chain
        ("luka_plus", lambda a, b: Fraction(a) + Fraction(b)),
        # truncated at 1 - 1/24 instead of 1
        ("luka_plus", lambda a, b: min(Fraction(a) + Fraction(b), Fraction(23, 24))),
        # the Lukasiewicz product max(a + b - 1, 0) in place of the sum
        ("luka_plus", lambda a, b: max(Fraction(a) + Fraction(b) - 1, Fraction(0))),
        ("luka_neg", lambda a: Fraction(a)),
    ],
    ids=["untruncated-sum", "sum-truncated-at-23/24", "product-as-sum", "identity-neg"],
)
def test_wrong_luka_operation_never_passes(monkeypatch, name, wrong):
    monkeypatch.setattr(divisible, name, wrong)
    verdicts = []
    for d in range(1, MAX_DENOMINATOR + 1):
        try:
            verdicts.append(check_mv_axioms(lukasiewicz_chain(d)).passed)
        except KeyError:  # an operation left the chain
            verdicts.append(False)
    assert not all(verdicts)


@given(a=unit_fractions, b=unit_fractions)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_luka_plus_commutative_monotone(a, b):
    assert luka_plus(a, b) == luka_plus(b, a)
    assert luka_plus(a, b) >= a
    assert luka_plus(a, luka_neg(a)) == 1


@given(a=unit_fractions, b=unit_fractions)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_luka_characteristic_identity_property(a, b):
    lhs = luka_plus(luka_neg(luka_plus(luka_neg(a), b)), b)
    rhs = luka_plus(luka_neg(luka_plus(a, luka_neg(b))), a)
    assert lhs == rhs == max(a, b)


@given(st.lists(unit_fractions, min_size=1, max_size=5))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_product_bimorphism_below_both_factors(values):
    f = IntervalFunction(values)
    p = product_bimorphism(f, f)
    assert all(x <= y for x, y in zip(p.values, f.values))


def test_indicator_algebra_matches_powerset():
    for n in (1, 2, 3):
        assert (
            find_isomorphism(indicator_algebra(n), catalog.boolean_powerset(n))
            is not None
        )


def test_sharp_elements_report_n2():
    rep = sharp_elements_report(2)
    assert rep.passed
    assert rep.sharp_count == 4
    assert rep.nonindicators_unsharp is True
    assert rep.isomorphic_to_powerset is True


def test_sharp_elements_compared_up_to_the_carrier_cap():
    # 2^6 indicators fit in MAX_CARRIER
    rep = sharp_elements_report(6)
    assert rep.passed and rep.sharp_count == 64


@pytest.mark.parametrize("n", [7, 10**6])
def test_sharp_elements_report_refused_before_any_indicator(n):
    # past the cap, without forming the 2^n indicators
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match=r"indicator_algebra has .* \(cap 64\)"):
        sharp_elements_report(n)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [0, -1])
def test_indicators_on_fewer_than_one_point_refused(n):
    # subset_carrier refuses k < 1 for both constructors that use it
    for build in (indicator_algebra, sharp_elements_report):
        with pytest.raises(BoundExceeded) as refused:
            build(n)
        assert str(refused.value) == f"indicator_algebra needs k >= 1, got {n}"
    with pytest.raises(BoundExceeded) as refused:
        catalog.boolean_powerset(n)
    assert str(refused.value) == f"boolean_powerset needs k >= 1, got {n}"


@pytest.mark.parametrize(
    "wrong",
    [
        lambda f: all(min(v, 1 - v) in (0, Fraction(1, 2)) for v in f.values),
        lambda f: all(min(v, 1 - v) <= Fraction(1, MAX_DENOMINATOR) for v in f.values),
    ],
    ids=["sharp-at-1/2", "sharp-at-1/24"],
)
def test_sharp_elements_report_catches_a_sharp_nonindicator(monkeypatch, wrong):
    monkeypatch.setattr(divisible, "is_sharp_function", wrong)
    rep = sharp_elements_report(2)
    assert rep.all_indicators_sharp and not rep.nonindicators_unsharp
    assert not rep.passed


def test_sample_function_deterministic():
    a = sample_function(random.Random(9), 4)
    b = sample_function(random.Random(9), 4)
    assert a == b


def test_model_hidden_variable_instance():
    # the indicator subalgebra supports the full hidden-variable pipeline
    from qlogic.cloning import find_cloning_bimorphism
    from qlogic.mv import hidden_variable_construct, verify_hidden_variable
    from qlogic.states import enumerate_vertex_states

    alg = indicator_algebra(2)
    out = find_cloning_bimorphism(alg)
    assert out.status == "witness-found"
    parts = tuple(alg.index(l) for l in ("{1}", "{2}"))
    model = hidden_variable_construct(alg, out.witnesses[0], parts)
    rep = verify_hidden_variable(model, enumerate_vertex_states(alg))
    assert rep.passed


def test_json_serialization():
    doc = fn("1/2", 1).to_json_dict()
    assert doc == {"n": 2, "values": ["1/2", "1/1"]}
