import hashlib
from fractions import Fraction

import numpy as np
import pytest

from transportlab import QuadratureRule, gauss_rule

# frozen from the 4 moment equations sum w*v^p = 1/(p+1), p = 0..3,
# solved independently (fsolve oracle agrees to 1e-12)
TWO_POINT_NODES = [(3 - np.sqrt(3.0)) / 6, (3 + np.sqrt(3.0)) / 6]


def test_one_point_is_midpoint():
    rule = gauss_rule(1, 0.0, 1.0)
    assert rule.nodes.tolist() == [0.5]
    assert rule.weights.tolist() == [1.0]


def test_two_point_rule_on_unit_interval():
    rule = gauss_rule(2, 0.0, 1.0)
    np.testing.assert_allclose(rule.nodes, TWO_POINT_NODES, rtol=1e-14)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-14)


def test_four_point_symmetric_rule():
    rule = gauss_rule(4, -1.0, 1.0)
    assert abs(rule.weights.sum() - 2.0) < 1e-13
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], rtol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 1.0)])
def test_monomial_exactness_up_to_degree_2n_minus_1(n, interval):
    a, b = interval
    rule = gauss_rule(n, a, b)
    for p in range(2 * n):
        exact = (b ** (p + 1) - a ** (p + 1)) / (p + 1)
        approx = rule.integrate(rule.nodes**p)
        assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact)), (n, p)


@pytest.mark.parametrize("n", [2, 7, 16])
def test_rule_invariants(n):
    rule = gauss_rule(n, 0.0, 1.0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-13


def test_matches_numpy_leggauss():
    # independent implementation of the same rule
    for n in (3, 10, 40):
        rule = gauss_rule(n, -1.0, 1.0)
        x, w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(rule.nodes, x, atol=1e-13)
        np.testing.assert_allclose(rule.weights, w, atol=1e-13)


def test_deterministic_output():
    r1 = gauss_rule(9, 0.0, 1.0)
    r2 = gauss_rule(9, 0.0, 1.0)
    assert r1.nodes.tobytes() == r2.nodes.tobytes()
    assert r1.weights.tobytes() == r2.weights.tobytes()


@pytest.mark.parametrize("args, message", [
    ((0, 0.0, 1.0), "n_points"),
    ((-3, 0.0, 1.0), "n_points"),
    ((3.5, 0.0, 1.0), "n_points"),
    ((True, 0.0, 1.0), "n_points"),
    (("3", 0.0, 1.0), "n_points"),
    ((3, False, True), "endpoint a must be a real number, got False"),
    ((3, 0.0, True), "endpoint b must be a real number, got True"),
    ((3, "0", 1.0), "endpoint a must be a real number, got '0'"),
    ((3, 0.0, 1j), "endpoint b must be a real number, got 1j"),
    ((3, -1e308, 1e308), r"interval \[-1e\+308, 1e\+308\] leaves the float range"),
    ((3, 1e308, 1.7e308), r"interval \[1e\+308, 1.7e\+308\] leaves the float range"),
    ((3, 10**400, 1.0), "interval endpoints must be finite"),
    ((3, 0.0, 5e-324), r"interval \[0.0, 5e-324\] is too short for n_points = 3"),
    ((3, 1.0, 1.0000000000000002),
     r"interval \[1.0, 1.0000000000000002\] is too short for n_points = 3"),
    ((1, 1.0, 1.0000000000000002), r"too short for n_points = 1"),
], ids=["0", "-3", "3.5", "True", "3", "bool-a", "bool-b", "string-a", "complex-b",
        "length-overflows", "sum-overflows", "int-overflows", "subnormal-length",
        "one-ulp-length", "one-point-one-ulp"])
def test_rejects_nonpositive_point_count(args, message):
    with pytest.raises(ValueError, match=message):
        gauss_rule(*args)


def test_fraction_endpoints_give_the_same_rule():
    assert gauss_rule(3, Fraction(0), Fraction(1, 1)) == gauss_rule(3, 0.0, 1.0)


def test_numpy_integer_point_count_gives_the_same_rule():
    assert gauss_rule(np.int64(5), 0.0, 1.0) == gauss_rule(5, 0.0, 1.0)


def test_numpy_and_integer_endpoints_give_the_same_rule():
    rule = gauss_rule(5, 0.0, 1.0)
    assert gauss_rule(5, np.float64(0.0), np.int64(1)) == rule
    assert gauss_rule(5, 0, 1) == rule
    assert gauss_rule(5, -1e307, 1e307).nodes[2] == 0.0


# sha256 of each rule's nodes then weights, in the order of POINT_COUNTS,
# recorded from the Newton iteration on one-element numpy arrays
POINT_COUNTS = (1, 2, 7, 32, 64, 200)


@pytest.mark.parametrize("interval, digest", [
    ((0.0, 1.0), "9b3085baf6b47dd80862986b4a2f420bf918cdf8ab3523d34baef49d7351d02a"),
    ((-1.0, 1.0), "4ce6a9af7839465f66ae9e2477eabd8ff5c8647a4c0377aae54bc91998f49caa"),
])
def test_rules_keep_their_recorded_bits(interval, digest):
    sha = hashlib.sha256()
    for n in POINT_COUNTS:
        rule = gauss_rule(n, *interval)
        sha.update(rule.nodes.tobytes())
        sha.update(rule.weights.tobytes())
    assert sha.hexdigest() == digest


def test_rejects_empty_interval():
    with pytest.raises(ValueError):
        gauss_rule(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        gauss_rule(3, 2.0, -1.0)


def test_equal_rules_compare_and_hash_equal():
    rule, again = gauss_rule(3, 0.0, 1.0), gauss_rule(3, 0.0, 1.0)
    assert rule is not again
    assert rule == again and hash(rule) == hash(again)
    assert len({rule, again}) == 1
    weights = rule.weights.copy()
    weights[1] = np.nextafter(weights[1], 1.0)
    changed = QuadratureRule(rule.nodes, weights)
    assert rule != changed and hash(rule) != hash(changed)
    assert rule != gauss_rule(3, -1.0, 1.0) and rule != gauss_rule(4, 0.0, 1.0)
    assert rule != (rule.nodes, rule.weights)
