"""The two failures a valid input can meet cannot be raised without their proof."""

import copy
import pickle

import pytest

from fairflow import CutCertificate, InfArc, InfeasibleError, NoDecMinError


@pytest.mark.parametrize(
    "make",
    [
        lambda: InfeasibleError(),
        lambda: NoDecMinError(),
        lambda: NoDecMinError("no inc-max flow exists"),
    ],
    ids=["infeasible", "no-decmin", "no-decmin-message-only"],
)
def test_proof_is_required(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize(
    "copier",
    [copy.deepcopy, lambda exc: pickle.loads(pickle.dumps(exc))],
    ids=["deepcopy", "pickle"],
)
def test_copies_keep_the_message_and_the_proof(copier):
    certificate = CutCertificate(frozenset({2, 0}), 3)
    infeasible = copier(InfeasibleError(certificate))
    assert infeasible.certificate == certificate
    assert str(infeasible) == "no feasible flow: set [0, 2] has deficiency 3"
    witness = (InfArc(0, 0, 0, False),)
    no_incmax = copier(NoDecMinError("no inc-max flow exists", witness=witness))
    assert no_incmax.witness == witness
    assert str(no_incmax) == "no inc-max flow exists"
