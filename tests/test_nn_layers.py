"""MLP blocks, optimizer behavior, and parameter serialization."""

import json

import numpy as np
import pytest

import per_op as ops
from journeyrank import nn
from journeyrank.errors import ConfigError, ContractError, SchemaMismatchError, ShapeError


def block_store(prefix: str, spec: nn.MlpSpec,
                rng: np.random.Generator) -> nn.ParameterStore:
    """One block's parameters, Glorot-initialized from ``rng``."""
    store = nn.ParameterStore(nn.mlp_layout(prefix, spec))
    nn.init_glorot(store, rng)
    return store


class TestMlpSpec:
    def test_parameter_count_formula(self):
        spec = nn.MlpSpec(input_dim=7, hidden_dims=(5, 3), output_dim=2)
        # (7+1)*5 + (5+1)*3 + (3+1)*2
        store = nn.ParameterStore(nn.mlp_layout("net", spec))
        assert store.tensor.size == 40 + 18 + 8

    def test_zero_hidden_layers_is_single_affine(self):
        spec = nn.MlpSpec(input_dim=4, hidden_dims=(), output_dim=2)
        assert spec.layer_dims == [(4, 2)]
        assert nn.mlp_layout("net", spec) == [("net.w0", (4, 2)),
                                              ("net.b0", (2,))]

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ConfigError):
            nn.MlpSpec(input_dim=0, hidden_dims=(), output_dim=1)
        with pytest.raises(ConfigError):
            nn.MlpSpec(input_dim=2, hidden_dims=(0,), output_dim=1)


class TestForwardMlp:
    def test_identity_case(self):
        # zero hidden layers, identity weight, zero bias: output equals input
        spec = nn.MlpSpec(input_dim=3, hidden_dims=(), output_dim=3)
        store = nn.ParameterStore(nn.mlp_layout("id", spec))
        store["id.w0"].values[...] = np.eye(3)
        x = np.random.default_rng(0).normal(size=(5, 3))
        out = nn.mlp_activations(store, "id", spec, x)[-1]
        np.testing.assert_array_equal(out, x)

    def test_all_zero_weights_give_zero_output(self):
        spec = nn.MlpSpec(input_dim=4, hidden_dims=(3,), output_dim=2)
        # a new store starts at zero
        store = nn.ParameterStore(nn.mlp_layout("z", spec))
        x = np.random.default_rng(1).normal(size=(6, 4))
        out = nn.mlp_activations(store, "z", spec, x)[-1]
        np.testing.assert_array_equal(out, np.zeros((6, 2)))

    def test_matches_hand_rolled_matrix_oracle(self):
        rng = np.random.default_rng(2)
        spec = nn.MlpSpec(input_dim=2, hidden_dims=(3,), output_dim=1)
        store = block_store("net", spec, rng)
        x = rng.normal(size=(5, 2))
        got = nn.mlp_activations(store, "net", spec, x)[-1]
        h = x @ store["net.w0"].values + store["net.b0"].values
        h = np.maximum(h, 0.0)
        want = h @ store["net.w1"].values + store["net.b1"].values
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_width_mismatch_names_layer(self):
        rng = np.random.default_rng(3)
        spec = nn.MlpSpec(input_dim=4, hidden_dims=(), output_dim=1)
        store = block_store("net", spec, rng)
        with pytest.raises(ShapeError, match="layer 0"):
            nn.mlp_activations(store, "net", spec, np.zeros((2, 3)))

    def test_batch_row_independence(self):
        rng = np.random.default_rng(4)
        spec = nn.MlpSpec(input_dim=3, hidden_dims=(4,), output_dim=2)
        store = block_store("net", spec, rng)
        batch = rng.normal(size=(8, 3))
        full = nn.mlp_activations(store, "net", spec, batch)[-1]
        row0 = nn.mlp_activations(store, "net", spec, batch[:1])[-1]
        np.testing.assert_array_equal(full[0], row0[0])

    def test_input_is_left_as_it_is(self):
        rng = np.random.default_rng(5)
        spec = nn.MlpSpec(input_dim=3, hidden_dims=(4, 2), output_dim=2)
        store = block_store("net", spec, rng)
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
        store = block_store("net", spec, rng)
        x = rng.normal(size=(9, 3))
        # a few exact zeros reach the ReLUs: their slope is 0 there
        x[:2] = 0.0
        store["net.b0"].values[:1] = 0.0
        return spec, store, x, rng.normal(size=(9, 2))

    @staticmethod
    def gradients(store, spec, acts, g, input_grad):
        """The block's gradient vector, NaN wherever nothing was written,
        and the input's gradient."""
        grad = np.full(store.tensor.size, np.nan)
        d_x = nn.mlp_gradients(store, "net", spec, acts, g, grad, input_grad)
        return grad, d_x

    def test_matches_per_op_composition(self, hidden):
        spec, store, x, g = self.block(hidden, 61)
        acts = nn.mlp_activations(store, "net", spec, x)
        grad, d_x = self.gradients(store, spec, acts, g, input_grad=True)
        leaf = nn.Tensor(x, requires_grad=True)
        with nn.Tape() as tape:
            out = ops.forward_mlp(store, "net", spec, leaf)
            nn.backward(tape, ops.total_sum(ops.mul(out, nn.Tensor(g))))
        np.testing.assert_array_equal(bits(acts[-1]), bits(out.values))
        # every parameter's gradient, in layout order, is the vector
        np.testing.assert_array_equal(
            bits(grad), bits(np.concatenate([t.grad for _, t in store.items()],
                                            axis=None)))
        grads = store.views(grad)
        for name, t in store.items():
            np.testing.assert_array_equal(bits(grads[name]), bits(t.grad),
                                          err_msg=name)
        np.testing.assert_array_equal(bits(d_x), bits(leaf.grad))

    def test_input_gradient_only_when_asked(self, hidden):
        spec, store, x, g = self.block(hidden, 62)
        acts = nn.mlp_activations(store, "net", spec, x)
        with_input, _ = self.gradients(store, spec, acts, g, True)
        grad, d_x = self.gradients(store, spec, acts, g, False)
        assert d_x is None
        np.testing.assert_array_equal(bits(grad), bits(with_input))


class TestInitialization:
    def test_deterministic_per_seed(self):
        spec = nn.MlpSpec(input_dim=6, hidden_dims=(5,), output_dim=2)
        stores = [block_store("net", spec, np.random.default_rng(99))
                  for _ in range(2)]
        np.testing.assert_array_equal(stores[0].tensor.values,
                                      stores[1].tensor.values)

    def test_glorot_bounds(self):
        spec = nn.MlpSpec(input_dim=10, hidden_dims=(), output_dim=20)
        store = block_store("net", spec, np.random.default_rng(5))
        limit = np.sqrt(6.0 / 30.0)
        w = store["net.w0"].values
        assert np.all(np.abs(w) <= limit)
        np.testing.assert_array_equal(store["net.b0"].values, np.zeros(20))

    def test_store_value_count(self):
        spec = nn.MlpSpec(input_dim=7, hidden_dims=(5, 3), output_dim=2)
        store = block_store("net", spec, np.random.default_rng(6))
        assert store.tensor.shape == (40 + 18 + 8,)
        assert store.names() == [name for name, _ in store.layout]
        assert sum(t.size for _, t in store.items()) == store.tensor.size

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            nn.ParameterStore([("w", (1,)), ("w", (1,))])

    def test_layout_must_fit_the_vector(self):
        with pytest.raises(ConfigError):
            nn.ParameterStore([("w", (2,))], np.zeros(3))
        with pytest.raises(ConfigError, match="negative"):
            nn.ParameterStore([("w", (-1,)), ("b", (2,))], np.zeros(1))


def zero_grads(store):
    store.tensor.grad = np.zeros_like(store.tensor.values)


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
        store = nn.ParameterStore([("w", (3,))], np.array([1.0, -2.0, 3.0]))
        w = store["w"]
        state = nn.init_adam(store)
        before = w.values.copy()
        zero_grads(store)
        nn.optimizer_step(store, state)
        np.testing.assert_array_equal(w.values, before)
        assert state.step == 1

    def test_moves_opposite_gradient_sign(self):
        store = nn.ParameterStore([("w", (1,))])
        state = nn.init_adam(store)
        store.tensor.grad = np.array([2.5])
        nn.optimizer_step(store, state)
        assert store["w"].values[0] < 0.0

    def test_clears_gradients_after_step(self):
        store = nn.ParameterStore([("w", (1,))], np.array([1.0]))
        state = nn.init_adam(store)
        store.tensor.grad = np.array([1.0])
        nn.optimizer_step(store, state)
        assert store.tensor.grad is None

    def test_missing_gradient_is_a_contract_error(self):
        store = nn.ParameterStore([("w", (1,))], np.array([1.0]))
        state = nn.init_adam(store)
        with pytest.raises(ContractError, match="no gradient"):
            nn.optimizer_step(store, state)

    def test_flat_update_matches_per_parameter_loop(self):
        rng = np.random.default_rng(9)
        shapes = {"w0": (3, 4), "b0": (4,), "w1": (4, 1), "b1": (1,),
                  "s": ()}
        store = nn.ParameterStore(shapes.items(), np.concatenate(
            [rng.normal(size=shape) for shape in shapes.values()], axis=None))
        state = nn.init_adam(store, 0.01)
        values = {name: t.values.copy() for name, t in store.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for step in range(1, 21):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3)
                     for name, shape in shapes.items()}
            store.tensor.grad = np.empty_like(store.tensor.values)
            for name, view in store.views(store.tensor.grad).items():
                view[...] = grads[name]
            nn.optimizer_step(store, state)
            loop_adam_step(values, grads, m, v, step, 0.01)
            for name, t in store.items():
                np.testing.assert_array_equal(t.values, values[name])

    def test_parameters_are_views_of_one_vector(self):
        flat = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        store = nn.ParameterStore([("w", (2, 2)), ("b", (1,))], flat)
        w, b = store["w"], store["b"]
        np.testing.assert_array_equal(w.values, [[1.0, 2.0], [3.0, 4.0]])
        assert store.tensor.values is flat
        assert np.shares_memory(w.values, flat)
        assert np.shares_memory(b.values, flat)
        assert w.requires_grad and b.requires_grad
        flat[4] = -1.0
        assert b.values[0] == -1.0

    def test_state_of_another_store_is_a_contract_error(self):
        state = nn.init_adam(nn.ParameterStore([("w", (1,))]))
        store = nn.ParameterStore([("w", (1,)), ("late", (1,))])
        zero_grads(store)
        with pytest.raises(ContractError, match="init_adam"):
            nn.optimizer_step(store, state)

    def test_quadratic_bowl_converges(self):
        # f(w) = ||w||^2 from ||w0|| = 1: 200 steps at lr 0.05 reach <1e-3
        store = nn.ParameterStore([("w", (4,))], np.full(4, 0.5))
        w = store.tensor
        assert abs(np.linalg.norm(w.values) - 1.0) < 1e-12
        state = nn.init_adam(store, 0.05)
        for _ in range(200):
            with nn.Tape() as tape:
                loss = ops.total_sum(ops.mul(w, w))
            nn.backward(tape, loss)
            nn.optimizer_step(store, state)
        assert np.linalg.norm(w.values) < 1e-3


class TestSerialization:
    def _random_store(self):
        rng = np.random.default_rng(8)
        layout = [("tower.w0", (5, 4)), ("tower.b0", (4,)),
                  ("head.w0", (4, 1)), ("scalar", ())]
        return nn.ParameterStore(layout, np.concatenate(
            [rng.normal(size=shape) for _, shape in layout], axis=None))

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

    @staticmethod
    def edit_table(directory, edit):
        path = directory / "params.json"
        manifest = json.loads(path.read_text())
        edit(manifest["tensors"])
        path.write_text(json.dumps(manifest))

    def test_aliasing_offset_is_rejected(self, tmp_path):
        """An offset into another tensor's bytes would load that tensor's
        values, since the checksum covers only params.bin."""
        nn.save_params(self._random_store(), tmp_path)
        self.edit_table(tmp_path, lambda t: t[1].update(offset=0))
        with pytest.raises(SchemaMismatchError,
                           match="malformed tensors table"):
            nn.load_params(tmp_path)

    @pytest.mark.parametrize("dropped", [1, 3])
    def test_gap_is_rejected(self, tmp_path, dropped):
        """A table that skips some of params.bin's bytes, between two
        tensors or at its end."""
        nn.save_params(self._random_store(), tmp_path)
        self.edit_table(tmp_path, lambda t: t.pop(dropped))
        with pytest.raises(SchemaMismatchError,
                           match="malformed tensors table"):
            nn.load_params(tmp_path)

    def test_non_integer_shape_is_rejected(self, tmp_path):
        nn.save_params(self._random_store(), tmp_path)
        self.edit_table(tmp_path, lambda t: t[3].update(shape=[0.5]))
        with pytest.raises(SchemaMismatchError,
                           match="malformed tensors table"):
            nn.load_params(tmp_path)

    @pytest.mark.parametrize("name", [None, 3, ["tower.w0"]])
    def test_non_string_name_is_rejected(self, tmp_path, name):
        nn.save_params(self._random_store(), tmp_path)
        self.edit_table(tmp_path, lambda t: t[0].update(name=name))
        with pytest.raises(SchemaMismatchError,
                           match="malformed tensors table"):
            nn.load_params(tmp_path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_rejected(self, tmp_path, value):
        """A weight that is not finite, under a checksum that matches."""
        store = self._random_store()
        store["head.w0"].values[2, 0] = value
        nn.save_params(store, tmp_path)
        with pytest.raises(SchemaMismatchError,
                           match="params.json: params.bin is not finite"):
            nn.load_params(tmp_path)
