"""Min-norm simplex QP solver and momentum mixing."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlab import (
    MomentumSchedule,
    ParameterError,
    solve_min_norm,
)
from morlab.mgda import SimplexWeights, _face_systems, momentum_update, uniform_weights

from util import duality_gap, grid_min_norm_1d, lattice_min_norm, min_norm_reference

# captured actor gradient stacks with their exact optimum, see each "source"
CAPTURED = json.loads((Path(__file__).parent / "data" / "min_norm_stacks.json").read_text())


class TestSolveMinNorm:
    def test_singleton(self):
        g = np.array([3.0, -4.0])
        lam, val = solve_min_norm([g])
        assert np.array_equal(lam.values, [1.0])
        assert val == 25.0
        lam, val = solve_min_norm(np.zeros((1, 4)))
        assert np.array_equal(lam.values, [1.0]) and val == 0.0

    def test_opposing_gradients(self):
        lam, val = solve_min_norm([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        assert np.allclose(lam.values, [0.5, 0.5])
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_gradients(self):
        # 1-D scan oracle: min over t of ||t g1 + (1-t) g2||^2
        g1, g2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        t_star, v_star = grid_min_norm_1d(g1, g2)
        lam, val = solve_min_norm([g1, g2])
        assert t_star == pytest.approx(0.5, abs=1e-6)
        assert lam.values[0] == pytest.approx(t_star, abs=1e-6)
        assert val == pytest.approx(v_star, abs=1e-6)
        assert val == pytest.approx(0.5)

    def test_aligned_gradients_pick_shorter(self):
        g1, g2 = np.array([1.0, 1.0]), np.array([2.0, 2.0])
        t_star, v_star = grid_min_norm_1d(g1, g2)
        lam, val = solve_min_norm([g1, g2])
        assert np.allclose(lam.values, [1.0, 0.0])
        assert val == pytest.approx(2.0)
        assert val == pytest.approx(v_star, abs=1e-5)

    def test_duplicate_gradients_break_to_smallest_index(self):
        g = np.array([0.7, -0.2])
        lam, val = solve_min_norm([g, g.copy()])
        assert np.allclose(lam.values, [1.0, 0.0])
        assert val == pytest.approx(float(g @ g))

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            solve_min_norm([np.array([np.inf, 0.0]), np.array([0.0, 1.0])])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_overflowing_gram_rejected(self, m):
        # finite gradients whose inner products overflow to inf
        with pytest.raises(ParameterError, match="overflow"):
            solve_min_norm(np.full((m, 5), 1e200))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_lattice_oracle(self, m):
        rng = np.random.default_rng(1000 + m)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            grads = rng.uniform(-1.0, 1.0, size=(m, d))
            lam, val = solve_min_norm(grads)
            gram = grads @ grads.T
            grid_val = lattice_min_norm(0.5 * (gram + gram.T), step=1e-3)
            # the lattice value can only overestimate the continuum minimum
            assert val <= grid_val + 1e-12
            assert grid_val - val <= 1e-4
            assert duality_gap(grads, lam.values) <= 1e-10 * (1.0 + val)

    def test_certificate_on_closed_forms(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            grads = rng.normal(size=(2, 4))
            lam, val = solve_min_norm(grads)
            assert duality_gap(grads, lam.values) <= 1e-10 * (1.0 + val)

    def test_scale_covariance(self):
        rng = np.random.default_rng(88)
        for _ in range(25):
            grads = rng.uniform(-1.0, 1.0, size=(3, 4))
            lam1, v1 = solve_min_norm(grads)
            c = float(rng.uniform(0.1, 10.0))
            lam2, v2 = solve_min_norm(c * grads)
            assert v2 == pytest.approx(c * c * v1, rel=1e-6, abs=1e-12)
            assert duality_gap(c * grads, lam1.values) <= 1e-8 * (1.0 + v2)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            grads = rng.uniform(-1.0, 1.0, size=(m, 5))
            perm = rng.permutation(m)
            lam1, v1 = solve_min_norm(grads)
            lam2, v2 = solve_min_norm(grads[perm])
            assert v2 == pytest.approx(v1, rel=1e-8, abs=1e-12)
            assert np.allclose(lam2.values, lam1.values[perm], atol=1e-7)

    def test_zero_gradients(self):
        lam, val = solve_min_norm(np.zeros((3, 4)))
        assert val == pytest.approx(0.0)
        assert lam.values.sum() == pytest.approx(1.0)


class TestExactFaceSolver:
    """M >= 3: the batched solve over every face of the simplex."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(3, 5),
        dim=st.integers(2, 8),
        structure=st.sampled_from(["generic", "duplicate", "collinear", "zero row"]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-40, 40),
    )
    def test_power_of_two_rescale_is_exact(self, m, dim, structure, seed, k):
        rng = np.random.default_rng(seed)
        grads = rng.normal(size=(m, dim))
        if structure == "duplicate":
            grads[2] = grads[1]
        elif structure == "collinear":
            grads[2] = -0.5 * grads[1]
        elif structure == "zero row":
            grads[0] = 0.0
        # row norms from 1e-6 to 1, as for actor gradients of unit-scale rewards
        norms = np.linalg.norm(grads, axis=1, keepdims=True)
        grads = np.divide(grads, norms, out=np.zeros_like(grads), where=norms > 0)
        grads *= 10.0 ** rng.uniform(-6.0, 0.0, size=(m, 1))
        c = 2.0 ** k
        lam, val = solve_min_norm(grads)
        lam_c, val_c = solve_min_norm(c * grads)
        assert np.array_equal(lam_c.values, lam.values)
        assert val_c == c * c * val
        assert duality_gap(grads, lam.values) <= 1e-10 * np.max(np.sum(grads**2, axis=1))

    @pytest.mark.parametrize("name", sorted(CAPTURED))
    def test_captured_actor_stacks(self, name):
        case = CAPTURED[name]
        grads = np.array(case["gradients"])
        lam, val = solve_min_norm(grads)
        assert np.allclose(lam.values, case["exact_lambda"], rtol=0.0, atol=1e-12)
        assert val == pytest.approx(case["exact_min_norm_sq"], rel=1e-12)
        assert duality_gap(grads, lam.values) <= 1e-10 * np.max(np.sum(grads**2, axis=1))
        # the same weights in any units: x1024 and /1024 as well as the raw stack
        for k in (-10, 10):
            lam_k, val_k = solve_min_norm(2.0**k * grads)
            assert np.array_equal(lam_k.values, lam.values)
            assert val_k == 4.0**k * val

    def test_objective_cap(self):
        with pytest.raises(ParameterError, match="at most 10"):
            solve_min_norm(np.eye(11))
        lam, val = solve_min_norm(np.eye(10))
        assert np.allclose(lam.values, 0.1) and val == pytest.approx(0.1)


    @pytest.mark.parametrize("m", [1, 3, 4, 10])
    @pytest.mark.parametrize("structure", ["random", "equal_rows", "zero_row"])
    def test_matches_per_call_reference(self, m, structure):
        # face systems built once per M against a reference that builds them
        # on every call: the same weight and norm bytes, on the LU path, the
        # lstsq path (two equal rows) and with signed zeros (a zero row and
        # negative inner products)
        rng = np.random.default_rng(100 + m)
        for _ in range(5):
            grads = rng.normal(0.0, 1.0, size=(m, 6))
            if structure == "equal_rows" and m > 1:
                grads[-1] = grads[0]
            if structure == "zero_row":
                grads[rng.integers(m)] = 0.0
            lam, val = solve_min_norm(grads)
            ref_lam, ref_val = min_norm_reference(grads)
            assert lam.values.tobytes() == ref_lam.tobytes()
            assert np.float64(val).tobytes() == np.float64(ref_val).tobytes()

    def test_cached_face_arrays_are_read_only(self):
        assert _face_systems(3) is _face_systems(3)
        for arr in _face_systems(3):
            if isinstance(arr, np.ndarray):
                with pytest.raises(ValueError):
                    arr.flat[0] = 1

class TestSimplexWeights:
    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            SimplexWeights(np.array([-0.1, 1.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ParameterError):
            SimplexWeights(np.array([0.6, 0.6]))

    @pytest.mark.parametrize("values", [[np.nan, np.nan], [np.nan, 1.0], [0.5, np.nan, 0.5],
                                        [np.inf, 0.0]])
    def test_rejects_non_finite(self, values):
        with pytest.raises(ParameterError):
            SimplexWeights(np.array(values))

    def test_clips_float_noise(self):
        w = SimplexWeights(np.array([1.0 + 1e-13, -1e-13]))
        assert w.values[1] == 0.0


class TestMomentumUpdate:
    def test_eta_one_returns_qp(self):
        prev = SimplexWeights(np.array([1.0, 0.0]))
        qp = SimplexWeights(np.array([0.25, 0.75]))
        out = momentum_update(prev, qp, 1.0)
        assert np.allclose(out.values, qp.values)

    def test_eta_zero_returns_prev(self):
        prev = SimplexWeights(np.array([0.3, 0.7]))
        qp = SimplexWeights(np.array([1.0, 0.0]))
        out = momentum_update(prev, qp, 0.0)
        assert np.allclose(out.values, prev.values)

    def test_half_mix(self):
        prev = SimplexWeights(np.array([1.0, 0.0]))
        qp = SimplexWeights(np.array([0.0, 1.0]))
        out = momentum_update(prev, qp, 0.5)
        assert np.allclose(out.values, [0.5, 0.5])

    def test_eta_out_of_range(self):
        prev = uniform_weights(2)
        with pytest.raises(ParameterError):
            momentum_update(prev, prev, 1.5)

    def test_simplex_closure_and_movement_bound(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            prev = SimplexWeights(rng.dirichlet(np.ones(m)))
            qp = SimplexWeights(rng.dirichlet(np.ones(m)))
            eta = float(rng.uniform(0.0, 1.0))
            out = momentum_update(prev, qp, eta)
            assert np.all(out.values >= 0.0)
            assert out.values.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.abs(out.values - prev.values).sum() <= 2.0 * eta + 1e-12


class TestMomentumSchedule:
    def test_power_starts_at_one(self):
        for p in (0.5, 1.0, 2.0):
            sched = MomentumSchedule("power", p)
            assert sched.eta(1) == pytest.approx(1.0)
            assert sched.eta(4) == pytest.approx(4.0 ** (-p))

    def test_constant_and_zero(self):
        assert MomentumSchedule("constant", 0.3).eta(17) == pytest.approx(0.3)
        assert MomentumSchedule("zero").eta(5) == 0.0

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            MomentumSchedule("constant", 1.5)
        with pytest.raises(ParameterError):
            MomentumSchedule("warp", 1.0)

    @pytest.mark.parametrize("text", ["power:nan", "power:inf", "power:-inf", "constant:nan"])
    def test_non_finite_value_rejected(self, text):
        # 1.0 ** -nan == 1.0, so a NaN exponent would pass the first iteration
        with pytest.raises(ParameterError):
            MomentumSchedule.parse(text)

    def test_parse_round_trip(self):
        for text in ("zero", "constant:0.25", "power:1", "power:0.5"):
            sched = MomentumSchedule.parse(text)
            again = MomentumSchedule.parse(str(sched))
            assert again == sched
        with pytest.raises(ParameterError):
            MomentumSchedule.parse("power:abc")
