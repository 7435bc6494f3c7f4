"""Optimizer and learning-rate schedule."""

import math

import numpy as np
import pytest

from eventqa.autodiff import Tensor
from eventqa.optim import AdamW, LrSchedule, OptimizerConfig


def make_param(value):
    p = Tensor(np.asarray(value, dtype=float), requires_grad=True)
    return p


class TestAdamW:
    def test_first_step_hand_evaluated(self):
        # bias correction makes m_hat = v_hat = 1 on the first unit-gradient
        # step, so the parameter moves by exactly lr (up to eps)
        p = make_param([1.0])
        p.grad = np.array([1.0])
        opt = AdamW({"p": p}, OptimizerConfig(beta1=0.9, beta2=0.98,
                                              weight_decay=0.0))
        opt.step(lr=0.1)
        assert p.data[0] == pytest.approx(0.9, abs=1e-8)

    def test_zero_grad_zero_decay_is_identity(self):
        p = make_param([[1.0, -2.0], [0.5, 3.0]])
        p.grad = np.zeros((2, 2))
        opt = AdamW({"p": p}, OptimizerConfig(weight_decay=0.0))
        before = p.data.copy()
        for _ in range(5):
            opt.step(lr=0.7)
        np.testing.assert_array_equal(p.data, before)

    def test_decay_term_only(self):
        p = make_param([1.0])
        p.grad = np.array([0.0])
        opt = AdamW({"p": p}, OptimizerConfig(weight_decay=0.01))
        opt.step(lr=0.1)
        assert p.data[0] == pytest.approx(0.999, abs=1e-15)

    def test_decay_is_decoupled_from_moments(self):
        # decoupled decay: the decay term is lr*wd*p regardless of gradients
        p1 = make_param([2.0])
        p1.grad = np.array([0.0])
        opt = AdamW({"p": p1}, OptimizerConfig(weight_decay=0.1))
        opt.step(lr=0.5)
        assert p1.data[0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        p = make_param([1.0, 2.0])
        p.grad = np.zeros(3)
        opt = AdamW({"p": p})
        with pytest.raises(ValueError, match="shape"):
            opt.step(lr=0.1)

    def test_step_counter_strictly_increases(self):
        p = make_param([1.0])
        p.grad = np.array([0.5])
        opt = AdamW({"p": p})
        for expect in (1, 2, 3):
            opt.step(lr=0.01)
            assert opt.state.t == expect

    def test_missing_grad_treated_as_zero(self):
        p = make_param([4.0])
        opt = AdamW({"p": p}, OptimizerConfig(weight_decay=0.0))
        opt.step(lr=0.3)
        assert p.data[0] == 4.0

    def test_moment_shapes_match_parameters(self):
        p = make_param(np.ones((3, 4)))
        opt = AdamW({"p": p})
        assert opt.state.m["p"].shape == (3, 4)
        assert opt.state.v["p"].shape == (3, 4)

    def test_clip_grad_norm(self):
        p = make_param(np.zeros(4))
        p.grad = np.full(4, 3.0)  # norm 6
        opt = AdamW({"p": p})
        norm = opt.clip_grad_norm(1.5)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.5)


class TestLrSchedule:
    def test_warmup_endpoint_hits_peak(self):
        s = LrSchedule(peak_lr=0.4, min_lr=0.0, warmup_steps=10, cycle_length=100)
        assert s.lr_at(10) == pytest.approx(0.4)

    def test_warmup_midpoint_is_half_peak(self):
        s = LrSchedule(peak_lr=0.4, min_lr=0.0, warmup_steps=10, cycle_length=100)
        assert s.lr_at(5) == pytest.approx(0.2)

    def test_half_cycle_is_half_peak_when_min_zero(self):
        s = LrSchedule(peak_lr=0.8, min_lr=0.0, warmup_steps=10, cycle_length=100)
        assert s.lr_at(10 + 50) == pytest.approx(0.4, abs=1e-12)

    def test_continuous_at_warmup_boundary(self):
        s = LrSchedule(peak_lr=1.0, min_lr=0.1, warmup_steps=7, cycle_length=20)
        left = s.lr_at(6)
        boundary = s.lr_at(7)
        assert boundary == pytest.approx(1.0)
        assert boundary - left < 1.0 / 7 + 1e-9

    def test_never_negative_and_at_least_min(self):
        s = LrSchedule(peak_lr=0.3, min_lr=0.05, warmup_steps=4,
                       cycle_length=13)
        for step in range(0, 200):
            lr = s.lr_at(step)
            assert lr >= 0.0
            if step >= 4:
                assert lr >= 0.05 - 1e-15

    def test_restart_returns_to_peak(self):
        s = LrSchedule(peak_lr=0.3, min_lr=0.0, warmup_steps=0, cycle_length=10)
        assert s.lr_at(0) == pytest.approx(0.3)
        assert s.lr_at(10) == pytest.approx(0.3)  # restart at cycle end
        assert s.lr_at(20) == pytest.approx(0.3)

    def test_negative_step_rejected(self):
        s = LrSchedule(peak_lr=1.0, min_lr=0.0, warmup_steps=0,
                       cycle_length=1000)
        with pytest.raises(ValueError):
            s.lr_at(-1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LrSchedule(peak_lr=0.1, min_lr=0.2, warmup_steps=0,
                       cycle_length=1000)
        with pytest.raises(ValueError):
            LrSchedule(peak_lr=0.1, min_lr=0.0, warmup_steps=0,
                       cycle_length=0)

    def test_json_roundtrip(self):
        s = LrSchedule(peak_lr=0.3, min_lr=0.01, warmup_steps=5,
                       cycle_length=50)
        assert LrSchedule.from_json(s.to_json()) == s
