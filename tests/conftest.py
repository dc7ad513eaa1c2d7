import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

from ttga import SeededRng, build_schedule
from ttga.autodiff import Tensor
from ttga.denoiser import ConvStack


# finite float64 values, drawn often at the edges: both zeros, subnormals and
# magnitudes whose sums and products leave the float range
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                     1e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.fixture(scope="session")
def default_schedule():
    return build_schedule()


@pytest.fixture()
def rng():
    return SeededRng(1234)


@pytest.fixture()
def no_cyclic_gc():
    """Cyclic garbage collection off while the test runs, so that only
    reference counting frees objects."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def relative_gradient_match(analytic, numeric, rtol=1e-4, atol=1e-8):
    """Per-coordinate |a - n| <= rtol * max(|a|, |n|) + atol."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    bound = rtol * np.maximum(np.abs(analytic), np.abs(numeric)) + atol
    return np.all(np.abs(analytic - numeric) <= bound)


def central_difference(f, x, h=1e-4):
    """Gradient of scalar f at vector x by central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


@pytest.fixture()
def conv_passes(monkeypatch):
    """Counts of conv-stack forward passes ("forward") and autodiff backward
    passes ("backward") made while the test runs."""
    counts = Counter()
    for owner, name in ((ConvStack, "forward"), (Tensor, "backward")):
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.fixture()
def conv_batch_items(monkeypatch):
    """The batch size of each conv-stack forward pass made while the test
    runs, in call order."""
    items = []
    forward = ConvStack.forward

    def counted(self, x, *more):
        items.append(len(x.data))
        return forward(self, x, *more)

    monkeypatch.setattr(ConvStack, "forward", counted)
    return items
