"""Tests for operand-stream extraction from traced tensors."""

import numpy as np

from repro.simulation.cycle_sim import LayerSimulator
from repro.simulation.streams import operation_streams
from repro.training.tracing import LayerTrace


def sparse_mask(shape, sparsity, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(shape) >= sparsity


def streams(operation, activations=None, gradients=None, kernel=1, stride=1,
            padding=0, max_groups=None):
    """One operation's streams on the default 4-row tile of 16-lane PEs."""
    return operation_streams(
        operation, activations, gradients, kernel, stride, padding,
        tile_rows=4, lanes=16, max_groups=max_groups,
    )


def layer_streams(layer_type, activations, gradients, max_groups=None, **conv):
    """Every operation's streams for one traced layer, as the simulator sees them."""
    trace = LayerTrace(
        layer_name="layer", layer_type=layer_type,
        activation_mask=activations, output_gradient_mask=gradients, **conv,
    )
    return LayerSimulator(max_groups=max_groups).streams_for_trace(trace)


class TestForwardStreams:
    def test_group_shape(self):
        mask = sparse_mask((2, 32, 8, 8), 0.5)
        groups = streams("AxW", mask, kernel=3, stride=1, padding=1).groups
        assert groups.ndim == 4
        assert groups.shape[1] == 4          # tile rows
        assert groups.shape[3] == 16         # lanes
        # Stream length: ceil(3*3*32 / 16) = 18 rows.
        assert groups.shape[2] == 18

    def test_total_groups_counts_all_windows(self):
        mask = sparse_mask((2, 16, 8, 8), 0.5)
        forward = streams("AxW", mask, kernel=3, stride=1, padding=1)
        windows = 2 * 8 * 8
        assert forward.total_groups == -(-windows // 4)

    def test_effectual_count_preserved_without_sampling(self):
        """Every non-zero of every receptive field appears in the streams."""
        mask = sparse_mask((1, 8, 6, 6), 0.5, seed=1)
        forward = streams("AxW", mask, kernel=3, stride=1, padding=0)
        # Sum over receptive fields equals sum over stream groups (modulo the
        # all-zero padding streams, which add nothing).
        from repro.nn.functional import im2col

        cols = im2col(mask.astype(np.float32), 3, 3, 1, 0)
        assert int(forward.groups.sum()) == int(cols.sum())

    def test_sampling_caps_group_count(self):
        mask = sparse_mask((4, 32, 16, 16), 0.5)
        forward = streams("AxW", mask, kernel=3, stride=1, padding=1, max_groups=32)
        assert forward.sampled_groups == 32
        assert forward.total_groups > 32
        assert forward.sampling_factor > 1.0

    def test_dense_mask_produces_fully_effectual_streams(self):
        mask = np.ones((1, 16, 4, 4), dtype=bool)
        forward = streams("AxW", mask, kernel=1, stride=1, padding=0)
        # 16 channels fill exactly one row of 16 lanes; every window dense.
        assert forward.groups.shape[2] == 1
        assert forward.groups[: forward.total_groups].all()

    def test_stride_two_reduces_window_count(self):
        mask = sparse_mask((1, 16, 8, 8), 0.5)
        s1 = streams("AxW", mask, kernel=3, stride=1, padding=1)
        s2 = streams("AxW", mask, kernel=3, stride=2, padding=1)
        assert s2.total_groups < s1.total_groups


class TestInputGradientStreams:
    def test_dilation_for_strided_layers(self):
        mask = sparse_mask((1, 8, 4, 4), 0.0)
        plain = streams("AxG", gradients=mask, kernel=3, stride=1)
        dilated = streams("AxG", gradients=mask, kernel=3, stride=2)
        # Dilation spreads the same non-zeros over more windows.
        assert dilated.total_groups > plain.total_groups

    def test_targeted_operand_is_gradient(self):
        mask = sparse_mask((1, 8, 4, 4), 0.5)
        assert streams("AxG", gradients=mask, kernel=3).targeted_operand == "GO"

    def test_full_convolution_window_count(self):
        mask = np.ones((1, 4, 5, 5), dtype=bool)
        backward = streams("AxG", gradients=mask, kernel=3, stride=1)
        # Full convolution: output positions = (5 + 3 - 1)^2 = 49 windows.
        assert backward.total_groups == -(-49 // 4)


class TestWeightGradientStreams:
    def test_targets_sparser_operand(self):
        gradients = sparse_mask((2, 8, 6, 6), 0.9, seed=2)
        activations = sparse_mask((2, 4, 6, 6), 0.1, seed=3)
        assert streams("WxG", activations, gradients).targeted_operand == "GO"
        # When the activations are the sparser side, they are targeted instead.
        flipped = streams("WxG", gradients, activations)
        assert flipped.targeted_operand == "A"

    def test_one_stream_per_channel(self):
        gradients = sparse_mask((2, 8, 6, 6), 0.9, seed=4)
        activations = sparse_mask((2, 4, 6, 6), 0.1, seed=5)
        assert streams("WxG", activations, gradients).total_groups == -(-8 // 4)


class TestFullyConnectedStreams:
    """An fc layer runs as the 1x1 convolution of its flattened features."""

    def test_forward_streams_one_per_sample(self):
        mask = sparse_mask((8, 64), 0.5)
        forward = layer_streams("fc", mask, None)["AxW"]
        assert forward.total_groups == 2
        assert forward.groups.shape[2] == 4    # 64 features / 16 lanes

    def test_weight_gradient_streams_reduce_over_batch(self):
        gradients = sparse_mask((32, 10), 0.8, seed=6)
        activations = sparse_mask((32, 20), 0.0, seed=7)
        weight = layer_streams("fc", activations, gradients)["WxG"]
        assert weight.targeted_operand == "GO"
        # One stream per output feature, each a reduction over 32 samples.
        assert weight.total_groups == -(-10 // 4)
        assert weight.groups.shape[2] == 2    # ceil(32 / 16)

    def test_higher_dimensional_inputs_are_flattened(self):
        mask = sparse_mask((4, 2, 8), 0.5)
        forward = layer_streams("fc", mask, None)["AxW"]
        assert forward.groups.shape[2:] == (1, 16)


class TestStreamExtractor:
    """``LayerSimulator.streams_for_trace``: one traced layer's streams."""

    def test_conv_streams_cover_three_operations(self):
        activations = sparse_mask((2, 16, 8, 8), 0.5, seed=8)
        gradients = sparse_mask((2, 8, 8, 8), 0.6, seed=9)
        result = layer_streams(
            "conv", activations, gradients, max_groups=16,
            kernel=3, stride=1, padding=1,
        )
        assert set(result) == {"AxW", "AxG", "WxG"}

    def test_conv_streams_without_gradients(self):
        activations = sparse_mask((2, 16, 8, 8), 0.5)
        result = layer_streams(
            "conv", activations, None, kernel=3, stride=1, padding=1
        )
        assert set(result) == {"AxW"}

    def test_fc_streams_cover_three_operations(self):
        activations = sparse_mask((16, 64), 0.5, seed=10)
        gradients = sparse_mask((16, 32), 0.6, seed=11)
        result = layer_streams("fc", activations, gradients, max_groups=16)
        assert set(result) == {"AxW", "AxG", "WxG"}
