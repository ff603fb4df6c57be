"""The public API: every exported name resolves, and the one-state
functions are views of the batch paths, bit for bit."""

import numpy as np
import pytest

import cbfcert
from cbfcert import mlp
from cbfcert.controller import (InfeasibleFilterError, SafetyFilter, filter_batch,
                                filter_input)
from cbfcert.dynamics import dubins_system, quadruped_system
from cbfcert.sampling import sample_uniform

_SYSTEMS = [(dubins_system, [3, 10, 1]), (quadruped_system, [8, 32, 32, 1])]


def test_every_exported_name_resolves():
    for name in cbfcert.__all__:
        assert getattr(cbfcert, name) is not None, name
    assert len(set(cbfcert.__all__)) == len(cbfcert.__all__)


@pytest.mark.parametrize("system, layers", _SYSTEMS, ids=["dubins", "quadruped"])
def test_filter_input_is_filter_batch_row_zero(system, layers):
    sys_ = system()
    cert = mlp.init_certificate(layers, seed=11)
    xs = sample_uniform(sys_.state_bounds, 200, seed=8)
    raised = returned = 0
    for bounds in (False, True):
        filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=bounds)
        for x in xs:
            one = filter_batch(filt, x[None])
            if one.feasible[0]:
                assert np.array_equal(filter_input(filt, x), one.inputs[0])
                returned += 1
            else:
                with pytest.raises(InfeasibleFilterError):
                    filter_input(filt, x)
                raised += 1
    assert raised > 0 and returned > 0


@pytest.mark.parametrize("system, layers", _SYSTEMS, ids=["dubins", "quadruped"])
def test_input_gradient_is_the_one_state_batch(system, layers):
    sys_ = system()
    cert = mlp.init_certificate(layers, seed=5)
    for x in sample_uniform(sys_.state_bounds, 100, seed=9):
        _, grads = mlp.values_and_input_gradients(cert, x[None])
        grad = mlp.input_gradient(cert, x)
        assert grad.shape == (sys_.n,)
        assert np.array_equal(grad, grads[0])
