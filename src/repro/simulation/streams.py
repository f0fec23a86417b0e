"""Operand streams of the three training convolutions, from their loop nests.

The accelerator consumes *dense-schedule streams*: for every output value,
the reduction over its receptive field is laid out as rows of ``lanes``
values (16 consecutive channel values per row, per the Section 3.4 tensor
layout).  The hardware scheduler's behaviour depends only on which of those
values are zero, so each operation's stream is the boolean non-zero mask of
its targeted (B-side) operand, read in the order of that operation's loop
nest.  With ``A`` the ``(N, C, H, W)`` input activations, ``GO`` the
``(N, Co, Ho, Wo)`` output gradients, kernel ``k``, stride ``s`` and
padding ``p``, the three loop nests are:

* ``O = W * A`` (AxW) targets A.  One stream per ``(n, oh, ow)``; the
  reduction runs over ``(kh, kw, c)``, ``c`` innermost, and reads
  ``A[n, c, oh*s + kh - p, ow*s + kw - p]``, zero outside the input.
* ``GA = GO * W`` (AxG) targets GO.  GO is dilated by ``s`` to
  ``GOd`` of height ``Hd = (Ho - 1)*s + 1`` (width likewise) and the
  convolution is "full": one stream per ``(n, y, x)`` with
  ``y < Hd + k - 1`` and ``x < Wd + k - 1``; the reduction runs over
  ``(kh, kw, co)`` and reads ``GOd[n, co, y + kh - (k-1), x + kw - (k-1)]``,
  zero outside.
* ``GW = GO * A`` (WxG) targets whichever of GO and A is sparser (GO on a
  tie; the paper's policy).  One stream per channel of that operand; the
  reduction runs over ``(n, h, w)``.

A fully-connected layer is the 1x1 case:
:meth:`~repro.simulation.cycle_sim.LayerSimulator.streams_for_trace`
reshapes its masks to ``(N, -1, 1, 1)``, whatever their rank, and the
trace collector records ``k = 1, s = 1, p = 0`` for it, so the same
loop nests give one stream per sample (AxW, AxG) and one per feature,
reduced over the batch (WxG).

All three operations share one tail: pad each stream to whole rows of
``lanes`` values, pack ``tile_rows`` streams per work group (the last
group padded with all-zero streams, mirroring fragmentation at layer
edges) and keep an evenly spaced sample of at most ``max_groups`` groups.
Sampling is deterministic, so results are reproducible, and speedups
remain ratios over identical work for baseline and TensorDash.  The cycle
simulator scales sampled cycle counts back up by
:attr:`OperandStreams.sampling_factor` before consulting the memory
hierarchy, so the bandwidth constraint always compares full-operation
compute cycles against the (unsampled) full-operation byte counts.

The batch is not clipped here: the trace collector
(:class:`repro.training.tracing.TraceCollector`) is the one batch clip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


#: The three operations in the order the paper's figures list them.
OPERATIONS = ("AxW", "AxG", "WxG")


@dataclass
class OperandStreams:
    """Row-group streams for one operation of one layer.

    Attributes
    ----------
    groups:
        Boolean array ``(num_groups, tile_rows, stream_rows, lanes)`` of
        effectual (non-zero targeted operand) positions.
    total_groups:
        Number of groups the full operation contains before sampling; the
        simulator scales MAC counts by ``total_groups / groups.shape[0]``.
    targeted_operand:
        Name of the operand whose sparsity is extracted ("A" or "GO").
    """

    groups: np.ndarray
    total_groups: int
    targeted_operand: str

    @property
    def sampled_groups(self) -> int:
        return int(self.groups.shape[0])

    @property
    def sampling_factor(self) -> float:
        """How much the full operation exceeds the sampled portion."""
        if self.sampled_groups == 0:
            return 1.0
        return self.total_groups / self.sampled_groups


def _dilate_spatial(mask: np.ndarray, stride: int) -> np.ndarray:
    """Insert ``stride - 1`` zeros between spatial positions (gradient dilation)."""
    if stride == 1:
        return mask
    n, c, h, w = mask.shape
    dilated = np.zeros(
        (n, c, (h - 1) * stride + 1, (w - 1) * stride + 1), dtype=mask.dtype
    )
    dilated[:, :, ::stride, ::stride] = mask
    return dilated


def _receptive_field_vectors(
    mask: np.ndarray, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """All receptive-field vectors of a 4D boolean mask, channel-innermost.

    Returns an array of shape ``(windows, kernel * kernel * channels)``
    where each vector is the flattened receptive field of one output
    position with the channel dimension innermost (matching the 16-wide
    channel blocks of the tensor layout).
    """
    n, c, h, w = mask.shape
    if padding:
        mask = np.pad(
            mask,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
        h, w = h + 2 * padding, w + 2 * padding
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s = mask.strides
    view = np.lib.stride_tricks.as_strided(
        mask,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    # (n, out_h, out_w, kernel, kernel, c): channel innermost.
    vectors = view.transpose(0, 2, 3, 4, 5, 1).reshape(
        n * out_h * out_w, kernel * kernel * c
    )
    return np.ascontiguousarray(vectors)


def _zero_share(mask: np.ndarray) -> float:
    return 1.0 - np.count_nonzero(mask) / max(mask.size, 1)


def operation_streams(
    operation: str,
    activation_mask: np.ndarray,
    output_gradient_mask: Optional[np.ndarray],
    kernel: int,
    stride: int,
    padding: int,
    tile_rows: int,
    lanes: int,
    max_groups: Optional[int],
) -> OperandStreams:
    """Grouped streams of one training convolution, per the loop nests above.

    Both masks are ``(N, C, H, W)`` booleans; ``output_gradient_mask``
    is needed by AxG and WxG only.
    """
    if operation == "AxW":
        targeted = "A"
        vectors = _receptive_field_vectors(activation_mask, kernel, stride, padding)
    elif operation == "AxG":
        targeted = "GO"
        dilated = _dilate_spatial(output_gradient_mask, stride)
        vectors = _receptive_field_vectors(dilated, kernel, 1, kernel - 1)
    elif operation == "WxG":
        if _zero_share(output_gradient_mask) >= _zero_share(activation_mask):
            targeted, mask = "GO", output_gradient_mask
        else:
            targeted, mask = "A", activation_mask
        vectors = mask.transpose(1, 0, 2, 3).reshape(mask.shape[1], -1)
    else:
        raise ValueError(f"unknown operation {operation!r}; expected one of {OPERATIONS}")

    num, length = vectors.shape
    rows = -(-length // lanes)
    total = -(-num // tile_rows)
    padded = np.zeros((total * tile_rows, rows * lanes), dtype=bool)
    padded[:num, :length] = vectors
    groups = padded.reshape(total, tile_rows, rows, lanes)
    if max_groups is not None and total > max_groups:
        groups = groups[np.linspace(0, total - 1, max_groups).astype(np.int64)]
    return OperandStreams(groups=groups, total_groups=total, targeted_operand=targeted)
