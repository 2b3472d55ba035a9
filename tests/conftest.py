"""Shared fixtures."""

import sys

import numpy as np
import pytest

from ellbethe import bethe, elliptic


@pytest.fixture
def newton_step(monkeypatch):
    """The Bethe solver with its Halley safeguard always saying no: every
    round takes the damped Newton step, bit for bit the solver that made
    the merges the dedup and off-complement tests pin."""
    monkeypatch.setattr(bethe, "HALLEY_REACH", 0.0)


@pytest.fixture
def kernel_rounds(monkeypatch):
    """A list that gets one entry per `bethe._bethe_kernels` call, the
    number of systems it evaluates: one per lockstep solver round."""
    calls = []
    kernels = bethe._bethe_kernels

    def counted(t, *args, **kwargs):
        calls.append(len(t))
        return kernels(t, *args, **kwargs)

    monkeypatch.setattr(bethe, "_bethe_kernels", counted)
    return calls


@pytest.fixture
def theta_jet_calls(monkeypatch):
    """A list that gets one `(order, points, dtau)` entry per call of
    `elliptic._theta_jets` through any `ellbethe` module that binds it when
    the fixture is set up.  One call is one request for jets at a set of
    points: a call past `_CHUNK` points sums its series in passes that
    re-enter `_theta_jets`, and those passes are part of the call."""
    calls, jets, inside = [], elliptic._theta_jets, False

    def counted(xs, ctx, order, pole=None, dtau=False):
        nonlocal inside
        if inside:  # a pass of a chunked call
            return jets(xs, ctx, order, pole=pole, dtau=dtau)
        calls.append((order, int(np.size(xs)), dtau))
        inside = True
        try:
            return jets(xs, ctx, order, pole=pole, dtau=dtau)
        finally:
            inside = False

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ellbethe" and getattr(module, "_theta_jets", None) is jets:
            monkeypatch.setattr(module, "_theta_jets", counted)
    return calls
