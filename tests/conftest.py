"""Shared fixtures."""

import pytest

from ellbethe import bethe


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
