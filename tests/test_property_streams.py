"""Property test: operand streams equal the training convolutions' loop nests.

The reference writes each operation's loop nest, as the
:mod:`repro.simulation.streams` docstring states it, as plain Python
loops over output and reduction indices, one operand value at a time.
It then pads each stream to whole lane rows, packs ``tile_rows`` streams
per group (padding the last group with all-zero streams) and keeps the
evenly spaced sample of ``max_groups`` groups.  For random conv and fc
layers the simulator must produce the same groups (shape and bits), the
same pre-sampling group count and the same targeted operand.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import AcceleratorConfig
from repro.simulation.cycle_sim import LayerSimulator
from repro.training.tracing import LayerTrace

CHANNELS = st.integers(1, 19).filter(lambda c: c % 16)
ZERO_SHARES = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))


def forward_loop_nest(a, k, s, p):
    """``O = W*A``: one stream per ``(n, oh, ow)``, reduced over ``(kh, kw, c)``."""
    N, C, H, W = a.shape
    A = a.tolist()
    streams = []
    for n in range(N):
        for oh in range((H + 2 * p - k) // s + 1):
            for ow in range((W + 2 * p - k) // s + 1):
                stream = []
                for kh in range(k):
                    for kw in range(k):
                        for c in range(C):
                            y, x = oh * s + kh - p, ow * s + kw - p
                            stream.append(0 <= y < H and 0 <= x < W and A[n][c][y][x])
                streams.append(stream)
    return streams


def input_gradient_loop_nest(go, k, s):
    """``GA = GO*W``: the full convolution of the stride-dilated GO."""
    N, Co, Ho, Wo = go.shape
    G = go.tolist()
    Hd, Wd = (Ho - 1) * s + 1, (Wo - 1) * s + 1

    def dilated(n, co, y, x):
        inside = 0 <= y < Hd and 0 <= x < Wd and y % s == 0 and x % s == 0
        return inside and G[n][co][y // s][x // s]

    streams = []
    for n in range(N):
        for y in range(Hd + k - 1):
            for x in range(Wd + k - 1):
                stream = []
                for kh in range(k):
                    for kw in range(k):
                        for co in range(Co):
                            stream.append(dilated(n, co, y + kh - (k - 1), x + kw - (k - 1)))
                streams.append(stream)
    return streams


def sparser_operand(go, a):
    """The WxG target: whichever of GO and A is sparser, GO on a tie."""
    def zero_share(mask):
        return Fraction(mask.size - int(mask.sum()), mask.size)

    return ("GO", go) if zero_share(go) >= zero_share(a) else ("A", a)


def weight_gradient_loop_nest(x):
    """``GW = GO*A``: one stream per channel, reduced over ``(n, h, w)``."""
    N, C, H, W = x.shape
    X = x.tolist()
    return [
        [X[n][c][h][w] for n in range(N) for h in range(H) for w in range(W)]
        for c in range(C)
    ]


def fc_loop_nests(a, go):
    """An fc layer: per-sample streams over the features, per-feature over the batch."""
    A = a.reshape(a.shape[0], -1).tolist()
    streams = {"AxW": ("A", [[A[n][f] for f in range(len(A[n]))] for n in range(len(A))])}
    if go is not None:
        G = go.reshape(go.shape[0], -1).tolist()
        streams["AxG"] = ("GO", [[G[n][f] for f in range(len(G[n]))] for n in range(len(G))])
        name, x = sparser_operand(go, a)
        X = x.reshape(x.shape[0], -1).tolist()
        streams["WxG"] = (name, [[X[n][f] for n in range(len(X))] for f in range(len(X[0]))])
    return streams


def conv_loop_nests(a, go, k, s, p):
    streams = {"AxW": ("A", forward_loop_nest(a, k, s, p))}
    if go is not None:
        streams["AxG"] = ("GO", input_gradient_loop_nest(go, k, s))
        name, x = sparser_operand(go, a)
        streams["WxG"] = (name, weight_gradient_loop_nest(x))
    return streams


def grouped(streams, tile_rows, lanes, max_groups):
    """Pad to lane rows, group ``tile_rows`` streams, sample evenly."""
    rows = -(-len(streams[0]) // lanes)
    total = -(-len(streams) // tile_rows)
    padded = [list(stream) + [False] * (rows * lanes - len(stream)) for stream in streams]
    padded += [[False] * (rows * lanes)] * (total * tile_rows - len(streams))
    groups = np.array(padded, dtype=bool).reshape(total, tile_rows, rows, lanes)
    if max_groups is not None and total > max_groups:
        groups = groups[np.linspace(0, total - 1, max_groups).astype(np.int64)]
    return groups, total


@st.composite
def traced_layers(draw):
    """A conv, rank-2 fc or rank-3 fc layer's masks, as the collector records them."""
    kind = draw(st.sampled_from(("conv", "fc2", "fc3")))
    n = draw(st.integers(1, 3))
    if kind == "conv":
        k = draw(st.sampled_from((1, 2, 3, 5)))
        s = draw(st.integers(1, 3))
        p = draw(st.integers(0, k - 1))
        h, w = draw(st.integers(k, 8)), draw(st.integers(k, 8))
        ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        a_shape = (n, draw(CHANNELS), h, w)
        go_shape = (n, draw(CHANNELS), ho, wo)
    else:
        k, s, p = 1, 1, 0
        middle = (draw(st.integers(1, 3)),) if kind == "fc3" else ()
        a_shape = (n, *middle, draw(CHANNELS))
        go_shape = (n, *middle, draw(CHANNELS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random(a_shape) >= draw(ZERO_SHARES)
    go = rng.random(go_shape) >= draw(ZERO_SHARES) if draw(st.booleans()) else None
    return LayerTrace(
        layer_name="layer", layer_type="conv" if kind == "conv" else "fc",
        kernel=k, stride=s, padding=p,
        activation_mask=a, output_gradient_mask=go,
    )


class TestLoopNestOracle:
    @given(
        trace=traced_layers(),
        lanes=st.sampled_from((4, 8, 16)),
        tile_rows=st.sampled_from((1, 2, 4)),
        max_groups=st.none() | st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_streams_match_loop_nests(self, trace, lanes, tile_rows, max_groups):
        config = AcceleratorConfig().with_pe(lanes=lanes).with_tile(rows=tile_rows)
        streams = LayerSimulator(config, max_groups=max_groups).streams_for_trace(trace)
        a, go = trace.activation_mask, trace.output_gradient_mask
        if trace.layer_type == "conv":
            expected = conv_loop_nests(a, go, trace.kernel, trace.stride, trace.padding)
        else:
            expected = fc_loop_nests(a, go)
        assert set(streams) == set(expected)
        for operation, (targeted, loop_streams) in expected.items():
            groups, total = grouped(loop_streams, tile_rows, lanes, max_groups)
            actual = streams[operation]
            assert actual.targeted_operand == targeted
            assert actual.total_groups == total
            assert actual.groups.shape == groups.shape
            assert np.array_equal(actual.groups, groups)
