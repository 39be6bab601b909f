"""Virasoro operators, commutators, bosons, and the genus-zero curve checks."""

import random
from fractions import Fraction

import pytest

from fatrec.correlators import partition_function
from fatrec.exact import CouplingMonomial, CouplingSeries
from fatrec.exact import _summed
from fatrec.virasoro import (_L_terms, apply_L, boson, commutator_check, heisenberg_check,
                             marked_product_factor, reliable_weight,
                             spectral_curve_check, verify_virasoro,
                             y_squared_negative_part,
                             special_deformation_squared)


def mono(couplings=(), t=0, gs=0):
    return CouplingMonomial(couplings, t, gs)


def test_apply_L_minus1_on_vacuum():
    out = apply_L(-1, CouplingSeries.one(6))
    assert out == CouplingSeries.monomial(mono((1,), 1, -2), 1, 6)


def test_apply_L1_on_vacuum():
    assert apply_L(1, CouplingSeries.one(6)).is_zero()


def test_apply_L0_example():
    f = CouplingSeries.monomial(mono((2,), 2), 1, 10)
    out = apply_L(0, f)
    assert out.coeff(mono((), 2)) == -2
    assert out.coeff(mono((2,), 4, -2)) == 1
    assert out.coeff(mono((2,), 2)) == 2
    assert len(out.terms) == 3


def test_apply_L_rejects_low_m():
    with pytest.raises(ValueError):
        apply_L(-2, CouplingSeries.one(4))


def test_virasoro_pass_and_low_weight_content():
    report = verify_virasoro(2, 4)
    assert report.passed
    # the weight-0 cancellation in L_0 Z encodes <p_2> = t^2
    z = partition_function(4)
    c = z.coeff(mono((2,), 2, -2))
    assert 2 * c == 1  # i.e. 2 F_0^(2) = t^2


def test_virasoro_vacuous_above_band():
    # m = 3, D = 4: reliable band is weight <= -1, nothing to check
    assert reliable_weight(4, 3) < 0
    assert verify_virasoro(3, 4).passed


def test_virasoro_detects_wrong_partition_function():
    # sanity: a perturbed Z must violate the constraints inside the band
    z = partition_function(4) + CouplingSeries.monomial(mono((2,), 1, 0), 1, 4)
    bad = apply_L(0, z)
    assert any(m.weight <= reliable_weight(4, 0) for m in bad.terms)


def test_commutator_examples():
    assert commutator_check(0, 0, mono((2,)))
    assert commutator_check(1, -1, mono((2,)))
    assert commutator_check(2, 1, mono((1, 3)))
    assert commutator_check(-1, 2, mono((1, 1, 2), 1))
    assert commutator_check(4, 3, mono((2, 5), 2))


def test_commutator_out_of_range():
    with pytest.raises(ValueError):
        commutator_check(-1, -1, mono((2,)))


def test_heisenberg_examples():
    assert heisenberg_check(1, -1, mono((3,)))
    assert heisenberg_check(2, 3, mono((4,)))
    assert heisenberg_check(-2, 2, mono((2, 2)))
    assert heisenberg_check(-5, 5, mono((1, 5)))
    assert heisenberg_check(3, -3, mono((), 2))


def test_heisenberg_rejects_zero_index():
    with pytest.raises(ValueError):
        heisenberg_check(0, 1, mono((1,)))


def test_marker_parity_guard():
    b = boson(3)
    with pytest.raises(ValueError, match="sqrt"):
        marked_product_factor(b, b, b)
    assert marked_product_factor(b, boson(-3)) == 1
    assert marked_product_factor(b, boson(3)) == 2
    assert marked_product_factor(boson(-1), boson(-2)) == Fraction(1, 2)


def test_y_squared_negative_part_passes():
    assert y_squared_negative_part(4, 6).passed


def test_y_squared_zero_coupling_z2_cancellation():
    # at zero couplings the z^-2 coefficient cancels as 2t^2 - 2t^2
    y2 = special_deformation_squared(4, 4)
    comp = y2.get(-2)
    zero_coupling = [c for m, c in comp.terms.items() if not m.couplings]
    assert not zero_coupling  # nothing survives
    # and the z^-4 component dies through F_0^(4) = t^3/2
    comp4 = y2.get(-4)
    if comp4 is not None:
        assert all(m.couplings for m in comp4.terms)


def test_spectral_curve_small_and_large():
    assert spectral_curve_check(2).passed
    assert spectral_curve_check(6).passed
    assert spectral_curve_check(12).passed


def test_spectral_curve_bad_order():
    with pytest.raises(ValueError):
        spectral_curve_check(1)


def test_virasoro_all_small_weights():
    for d in (2, 4, 6):
        assert verify_virasoro(4, d).passed, d


def test_virasoro_report_per_m_records():
    report = verify_virasoro(1, 4)
    d = report.to_dict()
    assert {"suite": "virasoro", "m": 0, "D": 4, "status": "pass",
            "violations": []} in d["checks"]


def _L_reference(m, f):
    """L_m assembled from d_g and series products, term by term."""
    def g(ks=(), t=0, gs=0, c=1):
        return CouplingSeries.monomial(mono(ks, t, gs), c)

    top = max((mm.weight for mm in f.terms), default=0)
    out = CouplingSeries.zero(f.trunc)
    for j in range(max(1, m + 1), top + 1):
        out = out + f.d_g(j) * g((j - m,), c=j)
    out = out - f.d_g(m + 2) * g(c=m + 2)
    for k in range(1, m):
        out = out + f.d_g(m - k).d_g(k) * g(gs=2, c=k * (m - k))
    if m >= 1:
        out = out + f.d_g(m) * g(t=1, c=2 * m)
    if m == -1:
        out = out + f * g((1,), t=1, gs=-2)
    if m == 0:
        out = out + f * g(t=2, gs=-2)
    return out


@pytest.mark.parametrize("trunc", [None, 6, 9])
def test_apply_L_matches_reference(trunc):
    rng = random.Random(700 + (trunc or 0))
    for _ in range(15):
        terms = {}
        for _ in range(5):
            parts = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
            terms[mono(parts, rng.randint(0, 2), rng.randint(-2, 0))] = (
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        f = CouplingSeries(terms, trunc)
        for m in range(-1, 6):
            assert apply_L(m, f) == _L_reference(m, f), (m, f)


def test_band_kernel_builds_nothing_above_the_band():
    z = partition_function(10) + CouplingSeries(
        {mono((2,), 1): 1, mono((1, 3), 2, -2): Fraction(1, 3), mono((4, 2)): -2}, 10)
    for m in range(-1, 5):
        bound = reliable_weight(10, m)
        terms = list(_L_terms(m, z._a, bound))
        assert all(sum(ks) <= bound for ks, _, _, _ in terms)
        assert _summed(terms) == _summed((*key, v) for key, v in apply_L(m, z)._a.items()
                                         if sum(key[0]) <= bound)
        if bound >= 2:
            assert _summed(terms), m
