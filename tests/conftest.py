import numpy as np
import pytest

from importlib.resources import files

from jamoparse.autograd import backward


TOY_TREEBANK = str(files("jamoparse") / "resources" / "toy_ko.conllu")


@pytest.fixture
def toy_treebank_path():
    return TOY_TREEBANK


def gradient(param):
    """``param.grad``, or zeros of the value's shape and dtype if none was written yet."""
    return np.zeros_like(param.value) if param.grad is None else param.grad


def clear_gradient(param):
    """Zero ``param.grad`` in place, if it exists (a packed one stays in its arena)."""
    if param.grad is not None:
        param.grad.fill(0.0)


def numeric_gradients(build_loss, params, step=1e-5):
    """Central finite differences of a scalar-valued graph builder.

    ``build_loss`` must rebuild the graph from scratch on each call, reusing
    the given Parameter objects so perturbations are visible.
    """
    grads = {}
    for param in params:
        flat = param.value.reshape(-1)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = float(build_loss().value)
            flat[i] = original - step
            down = float(build_loss().value)
            flat[i] = original
            grad[i] = (up - down) / (2.0 * step)
        grads[param.name] = grad.reshape(param.value.shape)
    return grads


def assert_gradients_match(build_loss, params, rel_tol=1e-4, step=1e-5):
    """Backprop ``build_loss`` once and compare against finite differences."""
    for param in params:
        clear_gradient(param)
    backward(build_loss())
    analytic = {p.name: gradient(p).copy() for p in params}
    for param in params:
        clear_gradient(param)
    numeric = numeric_gradients(build_loss, params, step=step)
    for param in params:
        a = analytic[param.name].reshape(-1)
        n = numeric[param.name].reshape(-1)
        for i in range(a.size):
            denom = max(1.0, abs(a[i]), abs(n[i]))
            assert abs(a[i] - n[i]) / denom <= rel_tol, (
                "%s[%d]: analytic %g vs numeric %g" % (param.name, i, a[i], n[i]))
