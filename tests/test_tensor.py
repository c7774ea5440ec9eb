"""Tensor engine tests: op semantics, tape mechanics, and gradient
correctness against the finite-difference oracle.

The operators the model's one node per training step replaced live on in
``per_op`` (as ``ops``), recorded through the engine's public hook: they
are the reference that node is compared against, so they are pinned here
too, and they serve as the layers, sums and products the engine's own
tests take losses with."""

import ast
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_op as ops
from conftest import fd_gradcheck
from journeyrank import nn
from journeyrank.errors import ContractError, ShapeError


class TestTensorConstruction:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ShapeError):
            nn.Tensor([1.0, np.nan])
        with pytest.raises(ShapeError):
            nn.Tensor([np.inf])

    def test_rejects_rank_3(self):
        with pytest.raises(ShapeError):
            nn.Tensor(np.zeros((2, 2, 2)))

    def test_coerces_to_float64(self):
        t = nn.Tensor(np.arange(4, dtype=np.int32))
        assert t.values.dtype == np.float64
        assert t.shape == (4,)
        assert t.size == 4


class TestTapeMechanics:
    def test_no_nesting(self):
        with nn.Tape():
            with pytest.raises(ContractError):
                with nn.Tape():
                    pass

    def test_loss_must_be_scalar(self):
        w = nn.Tensor([1.0, 2.0], requires_grad=True)
        with nn.Tape() as tape:
            y = ops.mul(w, w)
        with pytest.raises(ContractError):
            nn.backward(tape, y)

    def test_nothing_recorded_without_tape(self):
        w = nn.Tensor([1.0, 2.0], requires_grad=True)
        y = ops.total_sum(ops.mul(w, w))
        assert y.requires_grad is False

    def test_nothing_recorded_without_requires_grad(self):
        x = nn.Tensor([1.0, 2.0])
        with nn.Tape() as tape:
            ops.total_sum(ops.mul(x, x))
        assert len(tape) == 0

    def test_constant_loss_leaves_gradients_zero(self):
        w = nn.Tensor([1.0, 2.0], requires_grad=True)
        with nn.Tape() as tape:
            loss = nn.Tensor(3.0)
        w.grad = np.zeros(2)
        nn.backward(tape, loss)
        np.testing.assert_array_equal(w.grad, np.zeros(2))

    def test_linear_loss_gradient_is_the_coefficient(self):
        x = np.array([2.0, -3.0, 0.5])
        w = nn.Tensor(np.ones(3), requires_grad=True)
        with nn.Tape() as tape:
            loss = ops.total_sum(ops.mul(w, nn.Tensor(x)))
        nn.backward(tape, loss)
        np.testing.assert_array_equal(w.grad, x)

    def test_reuse_accumulates(self):
        # w enters the loss through two paths; gradients must add
        w = nn.Tensor([1.0, 1.0], requires_grad=True)
        a = nn.Tensor([2.0, 2.0])
        b = nn.Tensor([3.0, 3.0])
        with nn.Tape() as tape:
            loss = ops.add(ops.total_sum(ops.mul(w, a)),
                          ops.total_sum(ops.mul(w, b)))
        nn.backward(tape, loss)
        np.testing.assert_array_equal(w.grad, np.array([5.0, 5.0]))

    def test_record_hands_each_input_its_gradient(self):
        """A node recorded through ``nn.record`` hands each input that
        requires a gradient what its backward returns for it; a None
        leaves the input to the backward pass's zero fill, and a constant
        gets nothing. Without a tape nothing is recorded."""
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        b = nn.Tensor([3.0, 4.0], requires_grad=True)
        c = nn.Tensor([5.0, 6.0])

        def node():
            return nn.record(np.asarray(a.values @ c.values), (a, b, c),
                             lambda g: (g * c.values, None, np.ones(2)))

        assert not node().requires_grad
        with nn.Tape() as tape:
            out = node()
        nn.backward(tape, out)
        assert len(tape) == 1 and float(out.values) == 17.0
        np.testing.assert_array_equal(a.grad, [5.0, 6.0])
        np.testing.assert_array_equal(b.grad, [0.0, 0.0])
        assert c.grad is None

    def test_unreachable_parameter_gets_exact_zero(self):
        used = nn.Tensor([1.0], requires_grad=True)
        unused = nn.Tensor([7.0], requires_grad=True)
        with nn.Tape() as tape:
            # on the tape, but not feeding the loss
            dead = ops.mul(unused, unused)
            loss = ops.total_sum(ops.mul(used, used))
        nn.backward(tape, loss)
        assert dead.requires_grad
        np.testing.assert_array_equal(unused.grad, np.zeros(1))
        np.testing.assert_array_equal(used.grad, np.array([2.0]))


def total_of(*terms):
    """The sum of every element of every term."""
    total = ops.total_sum(terms[0])
    for term in terms[1:]:
        total = ops.add(total, ops.total_sum(term))
    return total


def assert_no_shared_buffers(tensors):
    grads = [t.grad for t in tensors if t.grad is not None]
    for k, a in enumerate(grads):
        for b in grads[k + 1:]:
            assert not np.shares_memory(a, b)


class TestGradientBuffers:
    """A gradient buffer belongs to one tensor: it never aliases another
    tensor's buffer, so adding into it later cannot leak elsewhere."""

    def test_one_tensor_feeding_two_adds(self):
        x = nn.Tensor([1.0, 2.0], requires_grad=True)
        y = nn.Tensor([3.0, 4.0], requires_grad=True)
        c = nn.Tensor([5.0, 7.0])
        d = nn.Tensor([11.0, 13.0])
        with nn.Tape() as tape:
            # backward runs in reverse: the add into s1 gives x and y
            # their first gradient, then y * d adds to y's
            yd = ops.mul(y, d)
            s1 = ops.add(x, y)
            s2 = ops.add(x, c)
            loss = total_of(ops.mul(s1, c), ops.mul(s2, d), yd)
        nn.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [16.0, 20.0])
        np.testing.assert_array_equal(y.grad, [16.0, 20.0])
        np.testing.assert_array_equal(s1.grad, [5.0, 7.0])
        np.testing.assert_array_equal(s2.grad, [11.0, 13.0])
        assert_no_shared_buffers([x, y, s1, s2])

    def test_concat_cols_slices(self):
        a = nn.Tensor(np.ones((2, 2)), requires_grad=True)
        b = nn.Tensor(np.ones((2, 1)), requires_grad=True)
        w = nn.Tensor(np.array([[1.0], [2.0], [3.0]]))
        v = nn.Tensor(np.array([[10.0, 20.0]]).T)
        with nn.Tape() as tape:
            # backward runs in reverse: z hands a and b their first
            # gradient as slices of its own, then av and b100 add to them
            av = ops.matmul(a, v)
            b100 = ops.matmul(b, nn.Tensor([[100.0]]))
            z = ops.concat_cols(a, b)
            loss = total_of(ops.matmul(z, w), av, b100)
        nn.backward(tape, loss)
        np.testing.assert_array_equal(a.grad, [[11.0, 22.0], [11.0, 22.0]])
        np.testing.assert_array_equal(b.grad, [[103.0], [103.0]])
        np.testing.assert_array_equal(z.grad, [[1.0, 2.0, 3.0]] * 2)
        assert_no_shared_buffers([a, b, z])

    def test_wide_concat_and_segment_broadcast(self):
        a = nn.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        v = nn.Tensor([1.0, 2.0], requires_grad=True)
        c = nn.Tensor(np.arange(1.0, 9.0).reshape(2, 4))
        d = nn.Tensor([[10.0, 20.0], [30.0, 40.0]])
        with nn.Tape() as tape:
            # backward runs in reverse: u hands v a fresh segment sum, b
            # gets add's gradient twice (a copy, then an add), its
            # one-row segment sums reach a, and the concats hand a and v
            # two views each of their own gradients
            z = ops.concat_cols(a, a)
            w = ops.concat_cols(v, v)
            y = ops.dense(z, nn.Tensor(np.eye(4)), w)
            b = ops.segment_broadcast(a, nn.Segments([1, 1]))
            u = ops.segment_broadcast(v, nn.Segments([2, 1]))
            loss = total_of(ops.mul(y, c), ops.mul(ops.add(b, b), d),
                            ops.mul(u, nn.Tensor([100.0, 200.0, 300.0])))
        nn.backward(tape, loss)
        np.testing.assert_array_equal(z.grad, c.values)
        np.testing.assert_array_equal(w.grad, [6.0, 8.0, 10.0, 12.0])
        np.testing.assert_array_equal(b.grad, 2 * d.values)
        np.testing.assert_array_equal(a.grad, [[24.0, 46.0], [72.0, 94.0]])
        np.testing.assert_array_equal(v.grad, [316.0, 320.0])
        assert_no_shared_buffers([a, v, z, w, y, b, u])

    def test_tensor_reached_twice(self):
        x = nn.Tensor([1.0, -1.0, 2.0], requires_grad=True)
        c = nn.Tensor([2.0, 3.0, 5.0])
        with nn.Tape() as tape:
            # backward runs in reverse: add(x, x) gives x its first
            # gradient and adds to it, then the add of a constant adds again
            shifted = ops.add(x, nn.Tensor([1.0, 1.0, 1.0]))
            doubled = ops.add(x, x)
            loss = total_of(ops.mul(doubled, c), ops.mul(shifted, c))
        nn.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [6.0, 9.0, 15.0])
        np.testing.assert_array_equal(doubled.grad, [2.0, 3.0, 5.0])
        np.testing.assert_array_equal(shifted.grad, [2.0, 3.0, 5.0])
        assert_no_shared_buffers([x, doubled, shifted])

    def test_column_writes_into_its_slice(self):
        x = nn.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with nn.Tape() as tape:
            loss = total_of(ops.mul(ops.column(x, 0), nn.Tensor([1.0, 2.0, 3.0])),
                            ops.mul(ops.column(x, 1), nn.Tensor([4.0, 5.0, 6.0])),
                            ops.column(x, 1))
        nn.backward(tape, loss)
        np.testing.assert_array_equal(x.grad,
                                      [[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])

    def test_gather_backward_matches_add_at(self):
        rng = np.random.default_rng(41)
        for rep in range(50):
            n = int(rng.integers(1, 12))
            idx = rng.integers(0, n, size=int(rng.integers(0, 30)))
            g = rng.normal(size=idx.size) * 10.0 ** rng.integers(-3, 4, idx.size)
            x = nn.Tensor(rng.normal(size=n), requires_grad=True)
            with nn.Tape() as tape:
                loss = ops.total_sum(ops.mul(ops.gather(x, idx), nn.Tensor(g)))
            nn.backward(tape, loss)
            want = np.zeros(n)
            np.add.at(want, idx, g)
            assert x.grad.dtype == np.float64
            np.testing.assert_array_equal(x.grad, want)

    def test_gather_rejects_negative_index(self):
        with pytest.raises(ShapeError):
            ops.gather(nn.Tensor([1.0, 2.0]), np.array([0, -1]))


def matmul_then_bias(x, w, b, g):
    """Reference: the dense layer as the two nodes it replaced, a matmul
    and then a row-broadcast bias, values and the gradients for an
    upstream gradient ``g``."""
    out = x @ w + b
    return out, g @ w.T, x.T @ g, g.sum(axis=0)


class TestDense:
    def test_bit_identical_to_matmul_then_bias(self):
        rng = np.random.default_rng(81)
        for m, k, n in ((1, 1, 1), (7, 3, 5), (2000, 20, 24), (64, 12, 9)):
            x = nn.Tensor(rng.normal(size=(m, k)), requires_grad=True)
            w = nn.Tensor(rng.normal(size=(k, n)), requires_grad=True)
            b = nn.Tensor(rng.normal(size=n), requires_grad=True)
            g = rng.normal(size=(m, n))
            with nn.Tape() as tape:
                out = ops.dense(x, w, b)
                loss = ops.total_sum(ops.mul(out, nn.Tensor(g)))
            nn.backward(tape, loss)
            want = matmul_then_bias(x.values, w.values, b.values, g)
            for got, ref in zip((out.values, x.grad, w.grad, b.grad), want):
                np.testing.assert_array_equal(bits(got), bits(ref))

    def test_constant_input_gets_no_gradient(self):
        x = nn.Tensor(np.ones((3, 2)))
        w = nn.Tensor(np.ones((2, 2)), requires_grad=True)
        b = nn.Tensor(np.zeros(2), requires_grad=True)
        with nn.Tape() as tape:
            loss = ops.total_sum(ops.dense(x, w, b))
        nn.backward(tape, loss)
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, np.full((2, 2), 3.0))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_gradcheck(self):
        rng = np.random.default_rng(82)
        params = {"x": nn.Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                  "w": nn.Tensor(rng.normal(size=(3, 2)), requires_grad=True),
                  "b": nn.Tensor(rng.normal(size=2), requires_grad=True)}
        c = nn.Tensor(rng.normal(size=(4, 2)))

        def make_loss():
            y = ops.softplus(ops.dense(params["x"], params["w"], params["b"]))
            return ops.total_sum(ops.mul(y, c))

        fd_gradcheck(make_loss, params)


class TestRows:
    def test_blocks_and_gradients(self):
        x = nn.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with nn.Tape() as tape:
            top = ops.rows(x, slice(0, 1))
            rest = ops.rows(x, slice(1, 4))
            loss = total_of(top, ops.mul(rest, rest))
        nn.backward(tape, loss)
        np.testing.assert_array_equal(top.values, [[0.0, 1.0, 2.0]])
        np.testing.assert_array_equal(rest.values, x.values[1:])
        np.testing.assert_array_equal(x.grad[0], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(x.grad[1:], 2.0 * x.values[1:])

    def test_range(self):
        x = nn.Tensor(np.zeros((3, 2)))
        for block in (slice(2, 4), slice(1, 1), slice(0, 3, 2), 1):
            with pytest.raises(ShapeError):
                ops.rows(x, block)


class TestStopGradient:
    def test_value_transparent_bitwise(self):
        x = nn.Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        y = ops.stop_gradient(x)
        assert np.array_equal(y.values, x.values)

    def test_blocks_gradient_exactly(self):
        w = nn.Tensor([1.0, 2.0], requires_grad=True)
        with nn.Tape() as tape:
            loss = ops.total_sum(ops.stop_gradient(w))
        w.grad = np.zeros(2)
        nn.backward(tape, loss)
        np.testing.assert_array_equal(w.grad, np.zeros(2))

    def test_only_live_path_counts(self):
        w = nn.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with nn.Tape() as tape:
            loss = ops.total_sum(ops.add(w, ops.stop_gradient(w)))
        nn.backward(tape, loss)
        np.testing.assert_array_equal(w.grad, np.ones(3))


class TestRelu:
    def test_values_and_gradient_at_the_kink(self):
        x = nn.Tensor([[-2.0, -0.0, 0.0, 1e-300, 3.0]], requires_grad=True)
        with nn.Tape() as tape:
            y = ops.relu(x)
            loss = ops.total_sum(ops.mul(y, nn.Tensor([[1.0, 2.0, 3.0, 4.0,
                                                      5.0]])))
        nn.backward(tape, loss)
        np.testing.assert_array_equal(y.values, [[0.0, 0.0, 0.0, 1e-300, 3.0]])
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 0.0, 4.0, 5.0]])

    def test_backward_uses_the_forward_mask(self):
        """The gradient follows the signs the forward saw, bit for bit the
        same as ``g * (x > 0)`` taken then, even if the input's buffer is
        overwritten before the backward runs."""
        rng = np.random.default_rng(90)
        values = rng.normal(size=(40, 6))
        g = rng.normal(size=(40, 6))
        x = nn.Tensor(values.copy(), requires_grad=True)
        with nn.Tape() as tape:
            loss = ops.total_sum(ops.mul(ops.relu(x), nn.Tensor(g)))
        x.values[...] = -x.values
        nn.backward(tape, loss)
        np.testing.assert_array_equal(bits(x.grad), bits(g * (values > 0.0)))


class TestLogSigmoid:
    def test_at_zero(self):
        y = ops.log_sigmoid(nn.Tensor(0.0))
        np.testing.assert_allclose(float(y.values), np.log(0.5), rtol=1e-15)

    def test_asymptotes(self):
        hi = ops.log_sigmoid(nn.Tensor(100.0))
        lo = ops.log_sigmoid(nn.Tensor(-100.0))
        assert abs(float(hi.values)) < 1e-40
        np.testing.assert_allclose(float(lo.values), -100.0, atol=1e-10)

    def test_stable_to_extreme_inputs(self):
        x = nn.Tensor([-1e3, -50.0, 0.0, 50.0, 1e3])
        y = ops.log_sigmoid(x)
        assert np.all(np.isfinite(y.values))
        assert np.all(y.values <= 0.0)

    def test_matches_high_precision_oracle(self):
        # extended-precision reference: log(1 / (1 + exp(-x)))
        mpmath.mp.dps = 50
        rng = np.random.default_rng(7)
        xs = rng.uniform(-10.0, 10.0, size=500)
        got = ops.log_sigmoid(nn.Tensor(xs)).values
        want = np.array([float(mpmath.log(1 / (1 + mpmath.exp(-mpmath.mpf(x)))))
                         for x in xs])
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def two_branch_logistic(x):
    """Reference: each sign's elements computed apart through masks."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestLogistic:
    EDGES = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 710.0,
             -710.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
    # quiet NaNs with a payload, with the sign bit clear and set
    NAN_BITS = [0x7FF8000000000001, 0xFFF8000000000001]

    def inputs(self):
        nans = np.array(self.NAN_BITS, dtype=np.uint64).view(np.float64)
        return np.r_[np.array(self.EDGES), nans]

    def test_bit_identical_to_two_branch_form_1d(self):
        x = np.r_[self.inputs(),
                  np.random.default_rng(3).normal(scale=20.0, size=2000)]
        np.testing.assert_array_equal(
            nn.logistic(x).view(np.uint64),
            two_branch_logistic(x).view(np.uint64))

    def test_bit_identical_to_two_branch_form_0d(self):
        for v in self.inputs():
            got = nn.logistic(v)
            want = two_branch_logistic(v)
            assert got.shape == want.shape == ()
            assert got.view(np.uint64) == want.view(np.uint64), v

    def test_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nn.logistic(self.inputs())


def raw_tensor(values) -> nn.Tensor:
    """A gradient-tracking tensor holding ``values`` as they are: the
    constructor refuses NaN and infinity, which the kernels must still
    handle."""
    t = nn.Tensor(np.zeros(np.shape(values)), requires_grad=True)
    t.values = np.asarray(values, dtype=np.float64)
    return t


class TestLog1pKernels:
    """``log_sigmoid`` and ``softplus`` against their ``np.logaddexp``
    forms and an extended-precision oracle, and their slopes against the
    two-branch logistic."""

    # op, np.logaddexp form, exact value, and the argument of its slope's
    # logistic (negated with unary minus, which flips a NaN's sign bit)
    KERNELS = {
        "log_sigmoid": (ops.log_sigmoid, lambda x: -np.logaddexp(0.0, -x),
                        lambda v: -mpmath.log1p(mpmath.exp(-v)),
                        lambda x: -x),
        "softplus": (ops.softplus, lambda x: np.logaddexp(0.0, x),
                     lambda v: mpmath.log1p(mpmath.exp(v)),
                     lambda x: x),
    }

    @staticmethod
    def inputs():
        return np.r_[TestLogistic().inputs(),
                     np.random.default_rng(83).normal(size=2000),
                     np.random.default_rng(84).normal(scale=30.0, size=2000)]

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_close_to_logaddexp_form(self, name):
        """Both forms are within 1 ulp of the exact value, so they are
        within 2 of each other, and NaN where the other is."""
        op, reference, _, _ = self.KERNELS[name]
        x = self.inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = op(raw_tensor(x)).values
        with np.errstate(invalid="ignore"):
            want = reference(x)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_max_ulp(got[~nan], want[~nan], maxulp=2)

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_within_one_ulp_of_exact(self, name):
        op, _, exact, _ = self.KERNELS[name]
        mpmath.mp.dps = 50
        x = np.r_[np.random.default_rng(87).normal(size=300),
                  np.random.default_rng(88).normal(scale=30.0, size=100)]
        want = np.array([float(exact(mpmath.mpf(v))) for v in x])
        np.testing.assert_array_max_ulp(op(nn.Tensor(x)).values, want,
                                        maxulp=1)

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_slope_is_logistic_bit_for_bit(self, name):
        op, _, _, slope_arg = self.KERNELS[name]
        x = self.inputs()
        g = np.random.default_rng(85).normal(size=x.size)
        t = raw_tensor(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with nn.Tape() as tape:
                loss = ops.total_sum(ops.mul(op(t), nn.Tensor(g)))
            nn.backward(tape, loss)
        np.testing.assert_array_equal(
            bits(t.grad), bits(g * two_branch_logistic(slope_arg(x))))

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_matrix_and_scalar_shapes(self, name):
        op, reference, _, _ = self.KERNELS[name]
        x = np.random.default_rng(86).normal(size=(2000, 6))
        np.testing.assert_array_max_ulp(op(nn.Tensor(x)).values,
                                        reference(x), maxulp=2)
        got = op(nn.Tensor(0.5)).values
        assert np.shape(got) == ()
        np.testing.assert_array_max_ulp(got, reference(0.5), maxulp=2)


def layout_of(ids, n: int) -> nn.Segments:
    """The layout of sorted segment ids 0..n-1."""
    return nn.Segments(np.bincount(ids, minlength=n))


class TestSegments:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=12))
    def test_layout_from_sizes(self, sizes):
        segments = nn.Segments(sizes)
        n = len(sizes)
        assert segments.n == n
        assert segments.n_rows == sum(sizes)
        assert segments.all_nonempty == all(k > 0 for k in sizes)
        np.testing.assert_array_equal(segments.starts, np.r_[0, np.cumsum(
            sizes, dtype=np.int64)])
        np.testing.assert_array_equal(segments.sizes, sizes)
        np.testing.assert_array_equal(segments.ids,
                                      np.repeat(np.arange(n), sizes))
        assert segments.starts.dtype == segments.ids.dtype == np.int64

        # the forward broadcast takes any layout, empty segments included
        x = nn.Tensor(np.arange(2.0 * n).reshape(n, 2), requires_grad=True)
        with nn.Tape() as tape:
            out = ops.segment_broadcast(x, segments)
            loss = ops.total_sum(out)
        np.testing.assert_array_equal(out.values, x.values[segments.ids])

        # the reductions need a row in every segment
        if segments.all_nonempty:
            nn.backward(tape, loss)
            np.testing.assert_array_equal(x.grad[:, 0], sizes)
        else:
            with pytest.raises(ContractError):
                nn.backward(tape, loss)
        if segments.all_nonempty and n:
            lse = ops.segment_logsumexp(nn.Tensor(np.zeros(sum(sizes))),
                                       segments)
            np.testing.assert_allclose(lse.values, np.log(sizes), rtol=1e-15)
        else:
            with pytest.raises(ContractError):
                ops.segment_logsumexp(nn.Tensor(np.zeros(sum(sizes))),
                                     segments)

    def test_is_frozen(self):
        segments = nn.Segments([2, 1])
        with pytest.raises(AttributeError):
            segments.n = 3
        with pytest.raises(ValueError):
            segments.ids[0] = 1
        with pytest.raises(ValueError):
            segments.starts[0] = 1

    @pytest.mark.parametrize("sizes", [[2, -1], [[1, 2]], [1.5, 2.0],
                                       [True, False]])
    def test_rejects_sizes_that_are_no_layout(self, sizes):
        # a negative size would run rows backwards, the one way to write
        # unsorted segment ids as sizes
        with pytest.raises(ContractError):
            nn.Segments(sizes)


class TestSegmentOps:
    def test_segment_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(4)
        lengths = rng.integers(1, 7, size=6)
        seg = np.repeat(np.arange(6), lengths)
        x = rng.normal(size=seg.size) * 10
        got = ops.segment_logsumexp(nn.Tensor(x), nn.Segments(lengths)).values
        want = np.array([np.log(np.exp(x[seg == s]).sum()) for s in range(6)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_segment_logsumexp_stable_for_large_scores(self):
        x = np.array([700.0, 701.0, -700.0, -701.0])
        got = ops.segment_logsumexp(nn.Tensor(x), nn.Segments([2, 2])).values
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got[0], 701.0 + np.log1p(np.exp(-1.0)), rtol=1e-14)

    def test_rejects_unsorted_segments(self):
        # ids [1, 0] name no layout: sizes cannot describe them
        with pytest.raises(ContractError):
            nn.Segments([-1, 1])

    def test_rejects_missing_segment(self):
        # ids [0, 2] over 3 segments: segment 1 is empty
        with pytest.raises(ContractError):
            ops.segment_logsumexp(nn.Tensor([1.0, 2.0]),
                                 layout_of([0, 2], 3))

    def test_rejects_empty_input(self):
        with pytest.raises(ContractError):
            ops.segment_logsumexp(nn.Tensor(np.zeros(0)), nn.Segments([]))

    def test_rejects_rows_the_layout_lacks(self):
        for x, sizes in ((np.zeros(3), [1, 1]), (np.zeros((3, 2)), [1, 1]),
                         (np.zeros(()), [1])):
            with pytest.raises(ShapeError):
                ops.segment_logsumexp(nn.Tensor(x), nn.Segments(sizes))

    def test_segment_broadcast_gradcheck(self):
        rng = np.random.default_rng(62)
        # segments 0 and 2 hold one row each
        segments = nn.Segments([1, 3, 1, 2])
        params = {"vec": nn.Tensor(rng.normal(size=4), requires_grad=True),
                  "mat": nn.Tensor(rng.normal(size=(4, 2)),
                                   requires_grad=True)}
        c_vec = nn.Tensor(rng.normal(size=7))
        c_mat = nn.Tensor(rng.normal(size=(7, 2)))

        def make_loss():
            vec = ops.segment_broadcast(params["vec"], segments)
            mat = ops.segment_broadcast(params["mat"], segments)
            return total_of(ops.mul(ops.softplus(vec), c_vec),
                            ops.mul(ops.softplus(mat), c_mat))

        fd_gradcheck(make_loss, params)
        for x in params.values():
            np.testing.assert_array_equal(
                ops.segment_broadcast(x, segments).values,
                x.values[[0, 1, 1, 1, 2, 3, 3]])

    def test_segment_broadcast_backward_checks_layout(self):
        x = nn.Tensor([1.0, 2.0], requires_grad=True)
        # one row of x per segment
        for sizes in ([1], [1, 1, 1]):
            with pytest.raises(ShapeError):
                ops.segment_broadcast(x, nn.Segments(sizes))
        # ids [0, 0] over 2 segments: segment 1 is empty
        for segments in (layout_of([0, 0], 2), nn.Segments([0, 2])):
            with nn.Tape() as tape:
                loss = ops.total_sum(ops.segment_broadcast(x, segments))
            with pytest.raises(ContractError):
                nn.backward(tape, loss)

    def test_segment_broadcast_forward_of_nothing(self):
        out = ops.segment_broadcast(nn.Tensor(np.zeros((0, 3))),
                                   nn.Segments([]))
        assert out.shape == (0, 3)


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestCumsum:
    def test_bit_identical_to_running_add_chain(self):
        """Values and gradients equal a chain of ``ops.add`` over column
        vectors, the form the funnel chain and the blend once took."""
        rng = np.random.default_rng(71)
        for rep in range(40):
            n, k = int(rng.integers(1, 30)), int(rng.integers(1, 8))
            x = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-6, 6, (n, k))
            c = rng.normal(size=(n, k))
            m = nn.Tensor(x, requires_grad=True)
            with nn.Tape() as tape:
                out = ops.cumsum(m)
                loss = ops.total_sum(ops.mul(out, nn.Tensor(c)))
            nn.backward(tape, loss)

            cols = [nn.Tensor(x[:, j], requires_grad=True) for j in range(k)]
            with nn.Tape() as tape:
                running = [cols[0]]
                for col in cols[1:]:
                    running.append(ops.add(running[-1], col))
                loss = total_of(*(ops.mul(r, nn.Tensor(c[:, j]))
                                  for j, r in enumerate(running)))
            nn.backward(tape, loss)
            for j in range(k):
                np.testing.assert_array_equal(bits(out.values[:, j]),
                                              bits(running[j].values))
                np.testing.assert_array_equal(bits(m.grad[:, j]),
                                              bits(cols[j].grad))

    def test_gradcheck(self):
        rng = np.random.default_rng(72)
        params = {"x": nn.Tensor(rng.normal(size=(4, 5)), requires_grad=True)}
        c = nn.Tensor(rng.normal(size=(4, 5)))
        fd_gradcheck(lambda: ops.total_sum(ops.mul(
            ops.softplus(ops.cumsum(params["x"])), c)), params)

    def test_rejects_what_has_no_columns(self):
        for values in (np.zeros(3), np.zeros((3, 0)), np.zeros(())):
            with pytest.raises(ShapeError):
                ops.cumsum(nn.Tensor(values))


class TestMatrixGatherAndLogsumexp:
    def test_gather_takes_a_flat_index_into_a_matrix(self):
        rng = np.random.default_rng(75)
        for rep in range(30):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            size = shape[0] * shape[1]
            idx = rng.integers(0, size, size=int(rng.integers(0, 20)))
            g = rng.normal(size=idx.size)
            x = nn.Tensor(rng.normal(size=shape), requires_grad=True)
            with nn.Tape() as tape:
                out = ops.gather(x, idx)
                loss = ops.total_sum(ops.mul(out, nn.Tensor(g)))
            nn.backward(tape, loss)
            np.testing.assert_array_equal(out.values, x.values.ravel()[idx])
            want = np.zeros(size)
            np.add.at(want, idx, g)
            np.testing.assert_array_equal(x.grad, want.reshape(shape))

    def test_gather_rows_adds_each_row_back(self):
        rng = np.random.default_rng(76)
        for rep in range(30):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            # rows may repeat, and some may not be taken at all
            idx = rng.integers(0, shape[0], size=int(rng.integers(0, 20)))
            g = rng.normal(size=(idx.size, shape[1]))
            x = nn.Tensor(rng.normal(size=shape), requires_grad=True)
            with nn.Tape() as tape:
                out = ops.gather_rows(x, idx)
                loss = ops.total_sum(ops.mul(out, nn.Tensor(g)))
            nn.backward(tape, loss)
            np.testing.assert_array_equal(out.values, x.values[idx])
            want = np.zeros(shape)
            np.add.at(want, idx, g)
            np.testing.assert_array_equal(x.grad, want)

    def test_gather_rows_gradcheck(self):
        rng = np.random.default_rng(77)
        params = {"x": nn.Tensor(rng.normal(size=(3, 2)), requires_grad=True)}
        c = nn.Tensor(rng.normal(size=(6, 2)))
        fd_gradcheck(lambda: ops.total_sum(ops.mul(ops.softplus(
            ops.gather_rows(params["x"], [2, 0, 2, 1, 2, 0])), c)), params)

    @pytest.mark.parametrize("x, idx", [
        (np.zeros(3), [0]), (np.zeros((3, 2)), [[0]]),
        (np.zeros((3, 2)), [3]), (np.zeros((3, 2)), [0, -1])],
        ids=["vector", "2-d-index", "past-the-end", "negative"])
    def test_gather_rows_rejects(self, x, idx):
        with pytest.raises(ShapeError):
            ops.gather_rows(nn.Tensor(x), idx)

    def test_segment_logsumexp_of_a_matrix_is_per_column(self):
        """One call over ``[rows, k]`` equals k calls over its columns,
        bit for bit, forward and backward."""
        rng = np.random.default_rng(76)
        for rep in range(20):
            segments = nn.Segments(rng.integers(1, 20, size=6))
            k = int(rng.integers(1, 7))
            x = rng.normal(size=(segments.n_rows, k)) * 5.0
            g = rng.normal(size=(segments.n, k))
            m = nn.Tensor(x, requires_grad=True)
            with nn.Tape() as tape:
                lse = ops.segment_logsumexp(m, segments)
                loss = ops.total_sum(ops.mul(lse, nn.Tensor(g)))
            nn.backward(tape, loss)
            for j in range(k):
                col = nn.Tensor(x[:, j], requires_grad=True)
                with nn.Tape() as tape:
                    want = ops.segment_logsumexp(col, segments)
                    loss = ops.total_sum(ops.mul(want, nn.Tensor(g[:, j])))
                nn.backward(tape, loss)
                np.testing.assert_array_equal(bits(lse.values[:, j]),
                                              bits(want.values))
                np.testing.assert_array_equal(bits(m.grad[:, j]),
                                              bits(col.grad))


def engine_names_read(tree: ast.Module) -> set[str]:
    """Names a module reads from the engine: ``nn.x`` or ``T.x`` through
    a relative import of ``nn`` or ``tensor``, or ``x`` itself after
    ``from .nn import x``."""
    modules, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name in ("nn", "tensor"):
                    modules.add(alias.asname or alias.name)
                elif (node.module or "").split(".")[-1] in ("nn", "tensor"):
                    imported.add(alias.asname or alias.name)
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            read.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in imported:
            read.add(node.id)
    return read


class TestEngineSurface:
    def test_every_exported_op_has_a_caller_in_the_package(self):
        """The engine carries only operators the package uses: each name
        ``nn`` exports from ``nn.tensor`` is read somewhere in the package
        outside ``nn.tensor`` and the re-export in ``nn/__init__.py``."""
        nn_dir = Path(nn.__file__).resolve().parent
        skip = {nn_dir / "tensor.py", nn_dir / "__init__.py"}
        read = set()
        for path in nn_dir.parent.rglob("*.py"):
            if path not in skip:
                read |= engine_names_read(ast.parse(path.read_text()))
        exported = [name for name in nn.__all__
                    if getattr(getattr(nn, name), "__module__", None)
                    == nn.tensor.__name__]
        assert {"Tensor", "record"} <= set(exported)
        assert [name for name in exported if name not in read] == []


class TestConcatCols:
    def test_n_inputs_gradcheck(self):
        rng = np.random.default_rng(61)
        params = {f"m{k}": nn.Tensor(rng.normal(size=(3, width)),
                                     requires_grad=True)
                  for k, width in enumerate((2, 1, 3))}
        params.update({f"v{k}": nn.Tensor(rng.normal(size=width),
                                          requires_grad=True)
                       for k, width in enumerate((1, 5))})
        c = nn.Tensor(rng.normal(size=(3, 6)))
        mix = nn.Tensor(rng.normal(size=(6, 6)))

        def make_loss():
            z = ops.concat_cols(params["m0"], params["m1"], params["m2"])
            y = ops.softplus(ops.dense(
                z, mix, ops.concat_cols(params["v0"], params["v1"])))
            block = ops.column(y, slice(2, 5))
            return total_of(ops.mul(y, c), ops.mul(block, block))

        fd_gradcheck(make_loss, params)

    def test_values_and_shapes(self):
        a = nn.Tensor([[1.0], [2.0]])
        b = nn.Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ops.concat_cols(a, b, a).values,
                                      [[1.0, 3.0, 4.0, 1.0],
                                       [2.0, 5.0, 6.0, 2.0]])
        np.testing.assert_array_equal(
            ops.concat_cols(nn.Tensor([1.0]), nn.Tensor([2.0, 3.0])).values,
            [1.0, 2.0, 3.0])
        for bad in ((a, nn.Tensor([1.0, 2.0])), (a, nn.Tensor([[1.0]])),
                    (nn.Tensor(1.0), nn.Tensor(2.0)), ()):
            with pytest.raises(ShapeError):
                ops.concat_cols(*bad)


class TestShapeValidation:
    def test_matmul_inner_dim(self):
        with pytest.raises(ShapeError):
            ops.matmul(nn.Tensor(np.zeros((2, 3))), nn.Tensor(np.zeros((4, 2))))

    def test_elementwise_same_shape(self):
        with pytest.raises(ShapeError):
            ops.add(nn.Tensor(np.zeros(3)), nn.Tensor(np.zeros(4)))

    def test_dense_shapes(self):
        x, w, b = np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(4)
        for bad in ((x, w, np.zeros(3)), (x, np.zeros((2, 4)), b),
                    (np.zeros(3), w, b), (x, w, np.zeros((1, 4)))):
            with pytest.raises(ShapeError):
                ops.dense(*(nn.Tensor(v) for v in bad))

    def test_column_range(self):
        with pytest.raises(ShapeError):
            ops.column(nn.Tensor(np.zeros((2, 3))), 3)

    def test_column_block_range(self):
        for block in (slice(2, 4), slice(1, 1), slice(0, 3, 2)):
            with pytest.raises(ShapeError):
                ops.column(nn.Tensor(np.zeros((2, 3))), block)

    def test_gather_rank(self):
        with pytest.raises(ShapeError):
            ops.gather(nn.Tensor(0.0), np.array([0]))

    def test_mean_of_empty(self):
        with pytest.raises(ContractError):
            ops.total_mean(nn.Tensor(np.zeros(0)))


def _redraw_away_from_relu_kinks(rng, build, min_gap=1e-2, tries=50):
    """Draw (params, inputs) until no relu preactivation sits near zero.

    Central differences step h=1e-5 across a kink give a wrong one-sided
    slope, so the fuzzer filters those draws out; relu correctness at the
    kink itself is checked exactly elsewhere.
    """
    for _ in range(tries):
        candidate = build(rng)
        if candidate is not None:
            return candidate
    raise AssertionError("could not draw a kink-free relu configuration")


class TestGradientFuzz:
    """Finite-difference fuzz over >=100 random graph configurations.

    Families cover the engine's operators and the per-op forms of the
    losses the model's loss node replaced: dense layers, the stable
    logistic primitives, gather/segment reductions, and the mixed
    arithmetic of the losses.
    """

    def test_fuzz_100_random_graphs(self):
        rng = np.random.default_rng(20260815)
        n_graphs = 0

        for rep in range(18):
            # family 1: softplus MLP, nonlinear chain, sum-of-squares loss
            dims = [int(rng.integers(1, 5)) for _ in range(3)]
            w0 = nn.Tensor(rng.normal(size=(dims[0], dims[1])), requires_grad=True)
            b0 = nn.Tensor(rng.normal(size=dims[1]), requires_grad=True)
            w1 = nn.Tensor(rng.normal(size=(dims[1], dims[2])), requires_grad=True)
            x = nn.Tensor(rng.normal(size=(3, dims[0])))

            def loss_mlp():
                h = ops.softplus(ops.dense(x, w0, b0))
                y = ops.matmul(h, w1)
                return ops.total_sum(ops.mul(y, y))

            fd_gradcheck(loss_mlp, {"w0": w0, "b0": b0, "w1": w1})
            n_graphs += 1

            # family 2: the funnel chain as a [rows, tasks] matrix, one
            # running sum of log-sigmoids, then the per-task listwise terms:
            # a segment logsumexp, flat-index gathers of each task's
            # positives and their total weighted by task
            n_seg = int(rng.integers(2, 5))
            lengths = rng.integers(2, 5, size=n_seg)
            segments = nn.Segments(lengths)
            n_tasks = int(rng.integers(1, 4))
            u = nn.Tensor(rng.normal(size=(segments.n_rows, n_tasks)) * 3,
                          requires_grad=True)
            task, row = np.nonzero(
                rng.random((n_tasks, segments.n_rows)) < 0.4)
            task_weight = nn.Tensor(rng.uniform(0.5, 2.0, size=n_tasks)[task])

            def loss_listwise():
                lj = ops.cumsum(ops.log_sigmoid(u))
                lse = ops.segment_logsumexp(lj, segments)
                per_positive = ops.sub(
                    ops.gather(lse, segments.ids[row] * n_tasks + task),
                    ops.gather(lj, row * n_tasks + task))
                return ops.total_sum(ops.mul(per_positive, task_weight))

            fd_gradcheck(loss_listwise, {"u": u})
            n_graphs += 1

            # family 3: softplus/log-sigmoid arithmetic mix
            m = int(rng.integers(2, 6))
            a = nn.Tensor(rng.normal(size=m), requires_grad=True)
            b = nn.Tensor(rng.normal(size=m), requires_grad=True)
            mask = nn.Tensor(rng.integers(0, 2, size=m).astype(float))

            def loss_mix():
                t1 = ops.mul(ops.log_sigmoid(a), ops.softplus(b))
                t2 = ops.mul(ops.log_sigmoid(b), mask)
                return ops.total_mean(ops.add(ops.add(t1, t2), ops.mul(a, b)))

            fd_gradcheck(loss_mix, {"a": a, "b": b})
            n_graphs += 1

            # family 4: concat + column + gather + pairwise differences
            r = int(rng.integers(3, 6))
            w = nn.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
            feats = nn.Tensor(rng.normal(size=(r, 2)))
            ii = rng.integers(0, r, size=4)
            jj = rng.integers(0, r, size=4)

            def loss_pairwise():
                z = ops.concat_cols(feats, ops.matmul(feats, ops.matmul(w, w)))
                s = ops.add(ops.column(z, 2), ops.column(z, 3))
                # -log sigmoid(s_i - s_j), as the combination loss takes it
                diff = ops.sub(ops.gather(s, jj), ops.gather(s, ii))
                return ops.total_mean(ops.softplus(diff))

            fd_gradcheck(loss_pairwise, {"w": w})
            n_graphs += 1

            # family 5: masked binary cross-entropy shape
            k = int(rng.integers(2, 5))
            logits = nn.Tensor(rng.normal(size=k) * 2, requires_grad=True)
            targets = nn.Tensor(rng.integers(0, 2, size=k).astype(float))

            def loss_bce():
                one = nn.Tensor(np.ones(k))
                minus = ops.sub(nn.Tensor(np.zeros(k)), logits)
                pos_term = ops.mul(targets, ops.softplus(minus))
                neg_term = ops.mul(ops.sub(one, targets), ops.softplus(logits))
                return ops.total_mean(ops.add(pos_term, neg_term))

            fd_gradcheck(loss_bce, {"logits": logits})
            n_graphs += 1

            # family 6: relu MLP, redrawn until preactivations clear the kink
            def build(rng):
                wr = rng.normal(size=(3, 3))
                br = rng.normal(size=3)
                xr = rng.normal(size=(4, 3))
                pre = xr @ wr + br
                if np.min(np.abs(pre)) < 1e-2:
                    return None
                return wr, br, xr

            wr_, br_, xr_ = _redraw_away_from_relu_kinks(rng, build)
            wr = nn.Tensor(wr_, requires_grad=True)
            br = nn.Tensor(br_, requires_grad=True)
            xr = nn.Tensor(xr_)

            def loss_relu():
                h = ops.relu(ops.dense(xr, wr, br))
                return ops.total_sum(ops.mul(h, h))

            fd_gradcheck(loss_relu, {"wr": wr, "br": br})
            n_graphs += 1

        assert n_graphs >= 100
