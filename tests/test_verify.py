"""The verify-all check table: each distinct check runs once across the
matrix, and the checks the acceptance suite shares catch planted faults."""

import pytest

from padem import pdg, verify
from padem.steenrod import act


def test_check_records_compare_by_fields():
    assert verify.Check("groth", True) == verify.Check("groth", True, "")
    assert verify.Check("groth", True) != verify.Check("groth", False)
    assert verify.Check("groth", False, "a") != verify.Check("groth", False, "b")
    assert verify.Check("groth", True) != ("groth", True, "")
    assert repr(verify.Check("adem", False, "x")) == "Check(name='adem', ok=False, detail='x')"


def test_run_matrix_runs_each_distinct_check_once(monkeypatch):
    calls = dict.fromkeys(
        (
            "check_pdg",
            "check_steenrod_sign",
            "check_binomials",
            "check_hopf_antipode",
            "check_groth",
            "check_commutator",
        ),
        0,
    )
    for name in calls:

        def counted(*args, name=name, real=getattr(verify, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, counted)
    results = verify.run_matrix((3,), (2, 3, 4), 12, 0, 5)
    # pdg-verify and steenrod-sign at n = 4 reuse the n = 3 result; the
    # checks of p alone run once per prime
    assert calls == {
        "check_pdg": 2,
        "check_steenrod_sign": 2,
        "check_binomials": 1,
        "check_hopf_antipode": 1,
        "check_groth": 1,
        "check_commutator": 3,
    }
    monkeypatch.undo()
    separate = [row for n in (2, 3, 4) for row in verify.run_matrix((3,), (n,), 12, 0, 5)]
    assert results == separate
    assert all(check.ok for _, checks in results for check in checks)


# At p = 3 a flipped sign is a real change: -1 != 1.
FLIPPED_ACT = {
    "commutator": lambda: verify.check_commutator(3, 3, 8, 3),
    "s-powers": lambda: verify.check_s_powers(3, 2, 6),
    "margolis-generators": lambda: verify.check_margolis_generators(3, 2, 2),
}


@pytest.mark.parametrize("name", FLIPPED_ACT)
def test_shared_check_catches_a_flipped_action(monkeypatch, name):
    run = FLIPPED_ACT[name]
    assert run().ok
    monkeypatch.setattr(verify, "act", lambda e, f, *rest: -act(e, f, *rest))
    got = run()
    assert got.name == name and not got.ok


WRONG_DERIVATION = {
    "pdg-verify": lambda: verify.check_pdg(3, 2, 8, 0),
    "symmetric-derivative": lambda: verify.check_symmetric_derivative_rule(3, 3),
    "steenrod-sign": lambda: verify.check_steenrod_sign(3, 2, 8, 0),
}


@pytest.mark.parametrize("name", WRONG_DERIVATION)
def test_shared_check_catches_a_wrong_derivation(monkeypatch, name):
    # x_i -> -x_i^2 with the D_i images kept: no longer compatible with
    # D_i x_i - x_(i+1) D_i = 1, off the closed form on e_i, and of the
    # opposite sign to bar P^1 on x_i but not on D_i
    run = WRONG_DERIVATION[name]
    assert run().ok
    real = pdg.khovanov_qi_derivation

    def wrong(p, n):
        d = real(p, n)
        return pdg.Derivation(p, n, [-f for f in d.x_images], list(d.d_images))

    monkeypatch.setattr(pdg, "khovanov_qi_derivation", wrong)
    got = run()
    assert got.name == name and not got.ok
