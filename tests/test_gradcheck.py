"""Tests for the finite-difference harness itself."""

import inspect

import numpy as np

from twobranch import gradcheck
from twobranch import tensor_core as tc


def test_central_difference_on_polynomial():
    # f(x) = sum(x^3): df/dx = 3 x^2, known in closed form.
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    num = gradcheck.central_difference(lambda: float((x ** 3).sum()), x)
    assert np.abs(num - 3.0 * x ** 2).max() < 1e-8


def test_central_difference_restores_input():
    x = np.array([1.0, 2.0, 3.0])
    before = x.copy()
    gradcheck.central_difference(lambda: float((x ** 2).sum()), x)
    assert np.array_equal(x, before)


def test_max_relative_error_exact_match():
    g = np.array([1.0, -2.0, 0.0])
    assert gradcheck.max_relative_error(g, g.copy()) == 0.0


def test_max_relative_error_uses_floor():
    # Differences below the floor register as errors relative to the
    # floor, not as division blow-ups.
    a = np.array([0.0])
    n = np.array([1e-9])
    err = gradcheck.max_relative_error(a, n)
    assert err == 1e-9 / gradcheck.REL_FLOOR


def test_max_relative_error_scale_free():
    a = np.array([100.0])
    n = np.array([101.0])
    assert abs(gradcheck.max_relative_error(a, n) - 1.0 / 101.0) < 1e-12


def test_check_gradient_accepts_correct_gradient():
    x = np.array([2.0, -1.5])
    err = gradcheck.check_gradient(lambda: float((x ** 2).sum()), x, 2 * x)
    assert err < 1e-8


def test_check_gradient_flags_wrong_gradient():
    x = np.array([2.0, -1.5])
    err = gradcheck.check_gradient(lambda: float((x ** 2).sum()), x, 3 * x)
    assert err > 0.1


def test_layer_suite_two_seeds():
    for seed in (0, 1):
        results = gradcheck.run_layer_checks(seed)
        assert results, "no layer checks ran"
        worst = max(results.values())
        assert worst < 1e-4, f"seed {seed}: {results}"


def test_full_loss_suite_one_seed():
    results = gradcheck.run_full_loss_check(3)
    assert set(name.split("/")[0] for name in results) == {"loss"}
    assert max(results.values()) < 1e-4, results


def test_layer_suite_checks_the_forms_training_runs(monkeypatch):
    # the layer checks go through the backward forms that network and
    # loss_mining call, and through dropout's caller-drawn mask
    calls = []
    for name in ("affine_param_backward", "affine_input_backward",
                 "distance_weights", "distance_side_grad",
                 "dropout_forward"):
        real = getattr(tc, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            calls.append((_name, bound.arguments))
            return _real(*args, **kwargs)

        monkeypatch.setattr(tc, name, spy)
    gradcheck.run_layer_checks(0)
    called = {name for name, _ in calls}
    assert called == {"affine_param_backward", "affine_input_backward",
                      "distance_weights", "distance_side_grad",
                      "dropout_forward"}
    assert {args["side"] for name, args in calls
            if name == "distance_side_grad"} == {"a", "b"}
    drops = [args for name, args in calls if name == "dropout_forward"]
    assert all(args["mode"] == "train" and args.get("draws") is not None
               for args in drops)
