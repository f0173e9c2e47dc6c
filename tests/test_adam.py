import numpy as np
import pytest

from binauralize.training import TrainConfig, adam_init, adam_step


def test_zero_gradients_leave_params_unchanged():
    cfg = TrainConfig()
    params = {"unet.w": np.ones((3, 3)), "visual.b": np.full(4, 2.0)}
    state = adam_init(params)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    new_params, new_state = adam_step(params, grads, state, 1, cfg)
    for k in params:
        np.testing.assert_array_equal(new_params[k], params[k])
        np.testing.assert_array_equal(new_state[k]["m"], 0.0)


def test_first_step_closed_form():
    # single scalar with constant gradient g: bias-corrected first step is
    # -lr * g / (|g| + eps) ~ -lr * sign(g)
    cfg = TrainConfig(lr_audio=0.01)
    g = 3.7
    params = {"unet.x": np.array([0.0])}
    state = adam_init(params)
    new_params, _ = adam_step(params, {"unet.x": np.array([g])}, state, 1, cfg)
    expected = -0.01 * g / (abs(g) + cfg.eps)
    assert new_params["unet.x"][0] == pytest.approx(expected, abs=1e-6)
    assert new_params["unet.x"][0] == pytest.approx(-0.01, rel=1e-6)


def test_per_subnet_learning_rates():
    cfg = TrainConfig(lr_audio=0.1, lr_other=0.001)
    assert cfg.lr_for("unet.d0.w") == 0.1
    assert cfg.lr_for("fusion.proj.w") == 0.1
    for name in ("visual.c0.w", "coh.fc1.b", "rir.u1.w"):
        assert cfg.lr_for(name) == 0.001


def test_determinism_100_steps():
    cfg = TrainConfig()

    def run():
        rng = np.random.default_rng(0)
        params = {"unet.w": rng.standard_normal((4, 4)),
                  "rir.w": rng.standard_normal(6)}
        state = adam_init(params)
        for step in range(1, 101):
            grads = {k: np.sin(v) + 0.1 * step for k, v in params.items()}
            params, state = adam_step(params, grads, state, step, cfg)
        return params

    a, b = run(), run()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_non_finite_gradient_aborts_with_name():
    cfg = TrainConfig()
    params = {"coh.w": np.ones(3)}
    state = adam_init(params)
    with pytest.raises(FloatingPointError, match="coh.w"):
        adam_step(params, {"coh.w": np.array([1.0, np.nan, 0.0])}, state, 1, cfg)


def test_keep_params_accepts_only_best_or_final():
    assert TrainConfig(keep_params="final").keep_params == "final"
    with pytest.raises(ValueError, match="keep_params"):
        TrainConfig(keep_params="last")
