"""Profile validation, graded dimensions, and presentations."""

import pytest

from padem import verify
from padem.arith import IntPolynomial, cyclotomic
from padem.errors import DomainError
from padem.groth import (
    SubHopfProfile,
    enumerate_an_basis,
    graded_dimension,
    k0_presentation,
    xi_degree,
)

PRIMES = (2, 3, 5)


def test_profile_validation():
    for p in PRIMES:
        for n in range(5):
            SubHopfProfile.filtration(n, p)  # must be accepted
    SubHopfProfile(2, (1, 1))
    SubHopfProfile(2, (0, 1))
    with pytest.raises(DomainError):
        SubHopfProfile(2, (2,))  # truncating only the first generator deeply
    with pytest.raises(DomainError):
        SubHopfProfile(3, (3, 1))
    with pytest.raises(DomainError):
        SubHopfProfile(2, (-1,))
    with pytest.raises(DomainError):
        SubHopfProfile(4, (1,))


def test_profiles_are_read_only_values():
    prof = SubHopfProfile(3, [1, 1])
    assert prof.exponents == (1, 1) and prof.grading == "topological"
    assert prof == SubHopfProfile(3, (1, 1), "topological")
    assert hash(prof) == hash(SubHopfProfile(3, (1, 1)))
    assert prof != SubHopfProfile(3, (1, 1), "compressed")
    assert prof != SubHopfProfile(2, (1, 1))
    assert repr(prof) == "SubHopfProfile(p=3, exponents=(1, 1), grading='topological')"
    with pytest.raises(AttributeError):
        prof.p = 5
    with pytest.raises(DomainError):
        SubHopfProfile(3, (1,), "bogus")


def test_filtration_profiles():
    prof = SubHopfProfile.filtration(3, 2)
    assert prof.exponents == (3, 2, 1)
    assert prof.heights() == (8, 4, 2)


def test_xi_degrees():
    assert xi_degree(1, SubHopfProfile(2, (1,))) == 2
    assert xi_degree(2, SubHopfProfile(3, (1, 1))) == 16
    assert xi_degree(2, SubHopfProfile(3, (1, 1), "compressed")) == 8
    assert xi_degree(1, SubHopfProfile(2, (1,), "compressed")) == 2


def test_graded_dimension_examples():
    assert graded_dimension(SubHopfProfile.filtration(1, 2)) == IntPolynomial(
        {0: 1, 2: 1}
    )
    assert graded_dimension(SubHopfProfile.filtration(1, 3)) == IntPolynomial(
        {0: 1, 4: 1, 8: 1}
    )
    assert graded_dimension(SubHopfProfile(5, ())) == IntPolynomial.one()
    assert graded_dimension(SubHopfProfile(3, (0, 0))) == IntPolynomial.one()


def test_graded_dimension_total_is_algebra_dimension():
    for p in (2, 3):
        for n in (1, 2):
            prof = SubHopfProfile.filtration(n, p)
            total = graded_dimension(prof).evaluate(1)
            # product of the truncation heights
            want = 1
            for h in prof.heights():
                want *= h
            assert total == want


def test_k0_presentation_examples():
    pres = k0_presentation(SubHopfProfile.filtration(1, 2))
    assert pres["ring"] == "Z[q]"
    assert pres["relation"] == IntPolynomial({0: 1, 2: 1})
    assert pres["cyclotomic_factors"] == [4]

    pres3 = k0_presentation(SubHopfProfile.filtration(1, 3))
    assert pres3["cyclotomic_factors"] == [3, 6, 12]
    product = IntPolynomial.one()
    for d in pres3["cyclotomic_factors"]:
        product = product * cyclotomic(d)
    assert product == pres3["relation"]

    trivial = k0_presentation(SubHopfProfile(3, (0,)))
    assert trivial["relation"] == IntPolynomial.one()
    assert trivial["cyclotomic_factors"] == []


@pytest.mark.parametrize("p", PRIMES)
def test_k0_factors_multiply_back(p):
    for exponents in [(1,), (1, 1), (2, 1)]:
        pres = k0_presentation(SubHopfProfile(p, exponents))
        product = IntPolynomial.one()
        for d in pres["cyclotomic_factors"]:
            product = product * cyclotomic(d)
        assert product == pres["relation"]


def test_enumerate_base_cases():
    dims, certified = enumerate_an_basis(0, 3)
    assert dims == {0: 1} and certified
    dims, certified = enumerate_an_basis(1, 2, degree_cap=12)
    assert dims == {0: 1, 2: 1} and certified
    dims, certified = enumerate_an_basis(1, 3, degree_cap=24)
    assert dims == {0: 1, 4: 1, 8: 1} and certified


def test_enumerate_partial_flag():
    dims, certified = enumerate_an_basis(1, 5, degree_cap=10)
    assert not certified


@pytest.mark.parametrize("p", PRIMES)
def test_enumeration_matches_graded_dimension(p):
    cap = graded_dimension(SubHopfProfile.filtration(1, p)).degree() + 2 * (p - 1) * p + 2
    assert verify.check_groth(p, cap).ok


def test_enumeration_matches_graded_dimension_level_two():
    prof = SubHopfProfile.filtration(2, 2)
    series = graded_dimension(prof)
    dims, certified = enumerate_an_basis(2, 2, degree_cap=24)
    assert certified
    assert dims == {d: c for d, c in enumerate(series.coefficient_list()) if c}


def test_compressed_grading_dimension():
    prof = SubHopfProfile.filtration(1, 3, "compressed")
    assert graded_dimension(prof) == IntPolynomial({0: 1, 2: 1, 4: 1})
    # the enumeration is topologically graded: |P^1| = 2(p - 1) = 4, not 2
    dims, certified = enumerate_an_basis(1, 3, degree_cap=32)
    assert certified
    assert {d // 2: c for d, c in dims.items()} == {0: 1, 2: 1, 4: 1}
