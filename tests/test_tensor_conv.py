"""Convolution and pooling: shapes, numeric gradients and kernel oracles."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F


def central_difference(build, param: Tensor, index, eps=1e-6):
    param.data[index] += eps
    hi = build().item()
    param.data[index] -= 2 * eps
    lo = build().item()
    param.data[index] += eps
    return (hi - lo) / (2 * eps)


def ref_im2col_indices(x_shape, kh, kw, stride, padding):
    """Fancy-index gather coordinates of the original im2col formulation."""
    _, channels, height, width = x_shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    i0 = np.tile(np.repeat(np.arange(kh), kw), channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j


def ref_im2col(x, kh, kw, stride, padding):
    k, i, j = ref_im2col_indices(x.shape, kh, kw, stride, padding)
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    return np.pad(x, pad, mode="constant")[:, k, i, j]


def ref_col2im(cols, x_shape, kh, kw, stride, padding):
    batch, channels, height, width = x_shape
    k, i, j = ref_im2col_indices(x_shape, kh, kw, stride, padding)
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    np.add.at(padded, (slice(None), k, i, j), cols)
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def ref_max_pool2d(x, grad, kernel, stride):
    """Original argmax max-pool: output and input gradient for upstream ``grad``."""
    batch, channels, height, width = x.shape
    flat_shape = (batch * channels, 1, height, width)
    cols = ref_im2col(x.reshape(flat_shape), kernel, kernel, stride, 0)
    argmax = cols.argmax(axis=1)
    out = np.take_along_axis(cols, argmax[:, None, :], axis=1).reshape(grad.shape)
    dcols = np.zeros_like(cols)
    np.put_along_axis(dcols, argmax[:, None, :], grad.reshape(batch * channels, 1, -1), axis=1)
    return out, ref_col2im(dcols, flat_shape, kernel, kernel, stride, 0).reshape(x.shape)


#: (input shape, kernel, padding, stride): the VGG proxy conv shapes, an
#: odd-size stride-2 conv, and pool windows (disjoint, overlapping, cropped)
KERNEL_CASES = [
    ((16, 3, 16, 16), 3, 1, 1),
    ((16, 8, 8, 8), 3, 1, 1),
    ((16, 16, 8, 8), 3, 1, 1),
    ((16, 4, 7, 7), 3, 1, 2),
    ((64, 1, 16, 16), 2, 0, 2),
    ((64, 1, 8, 8), 2, 0, 1),
    ((64, 1, 5, 5), 2, 0, 2),
]


@pytest.fixture
def x(rng) -> Tensor:
    return Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)


@pytest.fixture
def w(rng) -> Tensor:
    return Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)


class TestConv2d:
    def test_output_shape_no_padding(self, x, w):
        assert F.conv2d(x, w).shape == (2, 4, 6, 6)

    def test_output_shape_padding(self, x, w):
        assert F.conv2d(x, w, padding=1).shape == (2, 4, 8, 8)

    def test_output_shape_stride(self, x, w):
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 4, 4, 4)

    def test_matches_direct_convolution(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)))
        out = F.conv2d(x, w).data[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = np.sum(x.data[0, 0, i : i + 3, j : j + 3] * w.data[0, 0])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_weight_grad(self, x, w):
        def build():
            return (F.conv2d(x, w, padding=1) ** 2).sum()

        x.zero_grad(); w.zero_grad()
        build().backward()
        numeric = central_difference(build, w, (2, 1, 0, 2))
        assert abs(w.grad[2, 1, 0, 2] - numeric) < 1e-4

    def test_input_grad(self, x, w):
        def build():
            return (F.conv2d(x, w, stride=2, padding=1) ** 2).sum()

        x.zero_grad(); w.zero_grad()
        build().backward()
        numeric = central_difference(build, x, (1, 2, 3, 4))
        assert abs(x.grad[1, 2, 3, 4] - numeric) < 1e-4

    def test_bias_grad(self, x, w, rng):
        b = Tensor(rng.standard_normal(4), requires_grad=True)

        def build():
            return F.conv2d(x, w, b).sum()

        build().backward()
        # d(sum)/d(bias_c) = number of output positions x batch.
        np.testing.assert_allclose(b.grad, np.full(4, 2 * 6 * 6), atol=1e-9)


class TestPooling:
    def test_max_pool_shape_and_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        grad = x.grad[0, 0]
        assert grad[1, 1] == 1 and grad[0, 0] == 0
        assert grad.sum() == 4

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_grad_uniform(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_avg_pool_overlapping_grad_matches_reference(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 7, 7)), requires_grad=True)
        out = F.avg_pool2d(x, 3, stride=2)
        grad = rng.standard_normal(out.shape)
        out.backward(grad)
        dcols = np.broadcast_to(grad.reshape(6, 1, -1) / 9, (6, 9, out.shape[2] * out.shape[3]))
        expected = ref_col2im(np.ascontiguousarray(dcols), (6, 1, 7, 7), 3, 3, 2, 0)
        assert np.array_equal(x.grad, expected.reshape(x.data.shape))

    def test_max_pool_stride(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        out = F.max_pool2d(x, 2, stride=1)
        assert out.shape == (1, 2, 5, 5)
        out.sum().backward()
        assert x.grad.shape == x.data.shape


@pytest.mark.parametrize("shape,kernel,padding,stride", KERNEL_CASES)
class TestKernelOracles:
    """The window-view im2col and strided-add col2im are bitwise the originals."""

    def test_im2col_bitwise(self, rng, shape, kernel, padding, stride):
        x = rng.standard_normal(shape)
        cols, (out_h, out_w) = F._im2col(x, kernel, kernel, stride, padding)
        expected = ref_im2col(x, kernel, kernel, stride, padding)
        assert np.array_equal(cols, expected)
        assert cols.shape[2] == out_h * out_w

    def test_col2im_bitwise(self, rng, shape, kernel, padding, stride):
        _, i, _ = ref_im2col_indices(shape, kernel, kernel, stride, padding)
        cols = rng.standard_normal((shape[0], shape[1] * kernel * kernel, i.shape[1]))
        out = F._col2im(cols, shape, kernel, kernel, stride, padding)
        assert np.array_equal(out, ref_col2im(cols, shape, kernel, kernel, stride, padding))

    def test_conv2d_matches_einsum(self, rng, shape, kernel, padding, stride):
        filters = 5
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        w = Tensor(rng.standard_normal((filters, shape[1], kernel, kernel)), requires_grad=True)
        out = F.conv2d(x, w, stride=stride, padding=padding)
        grad = rng.standard_normal(out.shape)
        out.backward(grad)

        cols = ref_im2col(x.data, kernel, kernel, stride, padding)
        w_flat = w.data.reshape(filters, -1)
        g = grad.reshape(shape[0], filters, -1)
        expected_out = np.einsum("fc,bcl->bfl", w_flat, cols).reshape(out.shape)
        expected_dw = np.einsum("bfl,bcl->fc", g, cols).reshape(w.data.shape)
        expected_dx = ref_col2im(
            np.einsum("fc,bfl->bcl", w_flat, g), shape, kernel, kernel, stride, padding
        )
        np.testing.assert_allclose(out.data, expected_out, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w.grad, expected_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x.grad, expected_dx, rtol=1e-12, atol=1e-12)


class TestMaxPoolTies:
    """Ties (ReLU zeros) keep the first-max tie-break of the argmax formulation."""

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (2, 1), (3, 2)])
    def test_relu_zeros_route_like_reference(self, rng, kernel, stride):
        x = Tensor(np.maximum(rng.standard_normal((8, 4, 9, 9)), 0.0), requires_grad=True)
        assert (x.data == 0).mean() > 0.4
        out = F.max_pool2d(x, kernel, stride=stride)
        grad = rng.standard_normal(out.shape)
        out.backward(grad)

        expected_out, expected_dx = ref_max_pool2d(x.data, grad, kernel, stride)
        assert np.array_equal(out.data, expected_out)
        assert np.array_equal(x.grad, expected_dx)
