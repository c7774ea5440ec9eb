"""MLP blocks, optimizer behavior, and parameter serialization."""

import numpy as np
import pytest

import per_op as ops
from journeyrank import nn
from journeyrank.errors import ConfigError, ContractError, SchemaMismatchError, ShapeError


class TestMlpSpec:
    def test_parameter_count_formula(self):
        spec = nn.MlpSpec(input_dim=7, hidden_dims=(5, 3), output_dim=2)
        # (7+1)*5 + (5+1)*3 + (3+1)*2
        assert spec.n_params == 40 + 18 + 8

    def test_zero_hidden_layers_is_single_affine(self):
        spec = nn.MlpSpec(input_dim=4, hidden_dims=(), output_dim=2)
        assert spec.layer_dims == [(4, 2)]
        assert spec.n_params == 10

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ConfigError):
            nn.MlpSpec(input_dim=0, hidden_dims=(), output_dim=1)
        with pytest.raises(ConfigError):
            nn.MlpSpec(input_dim=2, hidden_dims=(0,), output_dim=1)


class TestForwardMlp:
    def test_identity_case(self):
        # zero hidden layers, identity weight, zero bias: output equals input
        store = nn.ParameterStore()
        store.add("id.w0", np.eye(3))
        store.add("id.b0", np.zeros(3))
        spec = nn.MlpSpec(input_dim=3, hidden_dims=(), output_dim=3)
        x = np.random.default_rng(0).normal(size=(5, 3))
        out = nn.forward_mlp(store, "id", spec, x)
        np.testing.assert_array_equal(out, x)

    def test_all_zero_weights_give_zero_output(self):
        store = nn.ParameterStore()
        store.add("z.w0", np.zeros((4, 3)))
        store.add("z.b0", np.zeros(3))
        store.add("z.w1", np.zeros((3, 2)))
        store.add("z.b1", np.zeros(2))
        spec = nn.MlpSpec(input_dim=4, hidden_dims=(3,), output_dim=2)
        x = np.random.default_rng(1).normal(size=(6, 4))
        out = nn.forward_mlp(store, "z", spec, x)
        np.testing.assert_array_equal(out, np.zeros((6, 2)))

    def test_matches_hand_rolled_matrix_oracle(self):
        rng = np.random.default_rng(2)
        spec = nn.MlpSpec(input_dim=2, hidden_dims=(3,), output_dim=1)
        store = nn.ParameterStore()
        nn.init_mlp_params(store, "net", spec, rng)
        x = rng.normal(size=(5, 2))
        got = nn.forward_mlp(store, "net", spec, x)
        h = x @ store["net.w0"].values + store["net.b0"].values
        h = np.maximum(h, 0.0)
        want = h @ store["net.w1"].values + store["net.b1"].values
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_width_mismatch_names_layer(self):
        rng = np.random.default_rng(3)
        spec = nn.MlpSpec(input_dim=4, hidden_dims=(), output_dim=1)
        store = nn.ParameterStore()
        nn.init_mlp_params(store, "net", spec, rng)
        with pytest.raises(ShapeError, match="layer 0"):
            nn.forward_mlp(store, "net", spec, np.zeros((2, 3)))

    def test_batch_row_independence(self):
        rng = np.random.default_rng(4)
        spec = nn.MlpSpec(input_dim=3, hidden_dims=(4,), output_dim=2)
        store = nn.ParameterStore()
        nn.init_mlp_params(store, "net", spec, rng)
        batch = rng.normal(size=(8, 3))
        full = nn.forward_mlp(store, "net", spec, batch)
        row0 = nn.forward_mlp(store, "net", spec, batch[:1])
        np.testing.assert_array_equal(full[0], row0[0])

    def test_input_is_left_as_it_is(self):
        rng = np.random.default_rng(5)
        spec = nn.MlpSpec(input_dim=3, hidden_dims=(4, 2), output_dim=2)
        store = nn.ParameterStore()
        nn.init_mlp_params(store, "net", spec, rng)
        x = rng.normal(size=(6, 3))
        kept = x.copy()
        acts = nn.mlp_activations(store, "net", spec, x)
        assert acts[0] is x and len(acts) == 4
        np.testing.assert_array_equal(x, kept)


def bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
class TestMlpGradients:
    """The plain block and its hand-written backward pass against the
    per-op composition (a dense node per layer, a ReLU node between
    layers), bit for bit."""

    @staticmethod
    def block(hidden, seed):
        rng = np.random.default_rng(seed)
        spec = nn.MlpSpec(input_dim=3, hidden_dims=hidden, output_dim=2)
        store = nn.ParameterStore()
        nn.init_mlp_params(store, "net", spec, rng)
        x = rng.normal(size=(9, 3))
        # a few exact zeros reach the ReLUs: their slope is 0 there
        x[:2] = 0.0
        store["net.b0"].values[:1] = 0.0
        return spec, store, x, rng.normal(size=(9, 2))

    def test_matches_per_op_composition(self, hidden):
        spec, store, x, g = self.block(hidden, 61)
        acts = nn.mlp_activations(store, "net", spec, x)
        grads, d_x = nn.mlp_gradients(store, "net", spec, acts, g,
                                      input_grad=True)
        leaf = nn.Tensor(x, requires_grad=True)
        with nn.Tape() as tape:
            out = ops.forward_mlp(store, "net", spec, leaf)
            nn.backward(tape, ops.total_sum(ops.mul(out, nn.Tensor(g))))
        np.testing.assert_array_equal(bits(acts[-1]), bits(out.values))
        assert sorted(grads) == sorted(store.names())
        for name, t in store.items():
            np.testing.assert_array_equal(bits(grads[name]), bits(t.grad),
                                          err_msg=name)
        np.testing.assert_array_equal(bits(d_x), bits(leaf.grad))

    def test_input_gradient_only_when_asked(self, hidden):
        spec, store, x, g = self.block(hidden, 62)
        acts = nn.mlp_activations(store, "net", spec, x)
        with_input = nn.mlp_gradients(store, "net", spec, acts, g, True)
        grads, d_x = nn.mlp_gradients(store, "net", spec, acts, g, False)
        assert d_x is None
        for name in store.names():
            np.testing.assert_array_equal(bits(grads[name]),
                                          bits(with_input[0][name]))


class TestInitialization:
    def test_deterministic_per_seed(self):
        spec = nn.MlpSpec(input_dim=6, hidden_dims=(5,), output_dim=2)
        stores = []
        for _ in range(2):
            store = nn.ParameterStore()
            nn.init_mlp_params(store, "net", spec, np.random.default_rng(99))
            stores.append(store)
        for name in stores[0].names():
            np.testing.assert_array_equal(stores[0][name].values,
                                          stores[1][name].values)

    def test_glorot_bounds(self):
        spec = nn.MlpSpec(input_dim=10, hidden_dims=(), output_dim=20)
        store = nn.ParameterStore()
        nn.init_mlp_params(store, "net", spec, np.random.default_rng(5))
        limit = np.sqrt(6.0 / 30.0)
        w = store["net.w0"].values
        assert np.all(np.abs(w) <= limit)
        np.testing.assert_array_equal(store["net.b0"].values, np.zeros(20))

    def test_store_value_count(self):
        spec = nn.MlpSpec(input_dim=7, hidden_dims=(5, 3), output_dim=2)
        store = nn.ParameterStore()
        nn.init_mlp_params(store, "net", spec, np.random.default_rng(6))
        assert store.n_values == spec.n_params

    def test_duplicate_name_rejected(self):
        store = nn.ParameterStore()
        store.add("w", np.zeros(1))
        with pytest.raises(ConfigError):
            store.add("w", np.zeros(1))


def zero_grads(store):
    for _, t in store.items():
        t.grad = np.zeros_like(t.values)


def loop_adam_step(values, grads, m, v, step, learning_rate):
    """Reference: Adam one parameter at a time, on dicts of arrays."""
    beta1, beta2, epsilon = nn.optim.BETA1, nn.optim.BETA2, nn.optim.EPSILON
    bias1 = 1.0 - beta1 ** step
    bias2 = 1.0 - beta2 ** step
    for name, g in grads.items():
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        values[name] -= learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)


class TestOptimizer:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = nn.ParameterStore()
        w = store.add("w", np.array([1.0, -2.0, 3.0]))
        state = nn.init_adam(store)
        before = w.values.copy()
        zero_grads(store)
        nn.optimizer_step(store, state)
        np.testing.assert_array_equal(w.values, before)
        assert state.step == 1

    def test_moves_opposite_gradient_sign(self):
        store = nn.ParameterStore()
        w = store.add("w", np.array([0.0]))
        state = nn.init_adam(store)
        w.grad = np.array([2.5])
        nn.optimizer_step(store, state)
        assert w.values[0] < 0.0

    def test_clears_gradients_after_step(self):
        store = nn.ParameterStore()
        w = store.add("w", np.array([1.0]))
        state = nn.init_adam(store)
        w.grad = np.array([1.0])
        nn.optimizer_step(store, state)
        assert w.grad is None

    def test_missing_gradient_is_a_contract_error(self):
        store = nn.ParameterStore()
        store.add("w", np.array([1.0]))
        state = nn.init_adam(store)
        with pytest.raises(ContractError, match="w"):
            nn.optimizer_step(store, state)

    def test_flat_update_matches_per_parameter_loop(self):
        rng = np.random.default_rng(9)
        store = nn.ParameterStore()
        shapes = {"w0": (3, 4), "b0": (4,), "w1": (4, 1), "b1": (1,),
                  "s": ()}
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape))
        state = nn.init_adam(store, 0.01)
        values = {name: t.values.copy() for name, t in store.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for step in range(1, 21):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3)
                     for name, shape in shapes.items()}
            for name, t in store.items():
                t.grad = grads[name].copy()
            nn.optimizer_step(store, state)
            loop_adam_step(values, grads, m, v, step, 0.01)
            for name, t in store.items():
                np.testing.assert_array_equal(t.values, values[name])

    def test_parameters_are_views_of_one_vector(self):
        store = nn.ParameterStore()
        w = store.add("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = store.add("b", np.array([5.0]))
        flat = store.flat_values()
        np.testing.assert_array_equal(flat, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.shares_memory(w.values, flat)
        assert np.shares_memory(b.values, flat)
        assert store.flat_values() is flat
        flat[4] = -1.0
        assert b.values[0] == -1.0

    def test_parameter_added_after_init_is_a_contract_error(self):
        store = nn.ParameterStore()
        w = store.add("w", np.array([1.0]))
        state = nn.init_adam(store)
        extra = store.add("late", np.array([2.0]))
        w.grad = np.array([1.0])
        extra.grad = np.array([1.0])
        with pytest.raises(ContractError):
            nn.optimizer_step(store, state)

    def test_quadratic_bowl_converges(self):
        # f(w) = ||w||^2 from ||w0|| = 1: 200 steps at lr 0.05 reach <1e-3
        store = nn.ParameterStore()
        w = store.add("w", np.full(4, 0.5))
        assert abs(np.linalg.norm(w.values) - 1.0) < 1e-12
        state = nn.init_adam(store, 0.05)
        for _ in range(200):
            with nn.Tape() as tape:
                loss = ops.total_sum(ops.mul(w, w))
            zero_grads(store)
            nn.backward(tape, loss)
            nn.optimizer_step(store, state)
        assert np.linalg.norm(w.values) < 1e-3


class TestSerialization:
    def _random_store(self):
        rng = np.random.default_rng(8)
        store = nn.ParameterStore()
        store.add("tower.w0", rng.normal(size=(5, 4)))
        store.add("tower.b0", rng.normal(size=4))
        store.add("head.w0", rng.normal(size=(4, 1)))
        store.add("scalar", np.asarray(rng.normal()))
        return store

    def test_roundtrip_is_bit_exact(self, tmp_path):
        store = self._random_store()
        nn.save_params(store, tmp_path)
        loaded, manifest = nn.load_params(tmp_path)
        assert loaded.names() == store.names()
        for name in store.names():
            np.testing.assert_array_equal(loaded[name].values, store[name].values)
            assert loaded[name].values.shape == store[name].values.shape
        assert manifest["format"] == "journeyrank-params-v1"

    def test_extra_manifest_fields_survive(self, tmp_path):
        store = self._random_store()
        nn.save_params(store, tmp_path, extra={"note": "golden"})
        _, manifest = nn.load_params(tmp_path)
        assert manifest["note"] == "golden"

    def test_corrupt_blob_is_rejected(self, tmp_path):
        store = self._random_store()
        nn.save_params(store, tmp_path)
        blob = bytearray((tmp_path / "params.bin").read_bytes())
        blob[3] ^= 0xFF
        (tmp_path / "params.bin").write_bytes(bytes(blob))
        with pytest.raises(SchemaMismatchError):
            nn.load_params(tmp_path)

    def test_saved_files_are_deterministic(self, tmp_path):
        store = self._random_store()
        nn.save_params(store, tmp_path / "a")
        nn.save_params(store, tmp_path / "b")
        assert (tmp_path / "a/params.bin").read_bytes() == (tmp_path / "b/params.bin").read_bytes()
        assert (tmp_path / "a/params.json").read_bytes() == (tmp_path / "b/params.json").read_bytes()
