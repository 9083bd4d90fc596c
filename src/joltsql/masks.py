"""Attention mask construction: joint training mask and vanilla causal mask.

The joint mask, built in blocks from a layout's two cut points, gives schema
tokens local bidirectional attention, hides markers from all non-marker
tokens, and restricts query rows to the causal query prefix and
`query_view(seg, attended)`: the prefix and the `attended` schema tokens.
A training step passes the gold and noisy columns' tokens, the prompt
encoding none; decode rows take the same view of the predicted columns.
"""
from __future__ import annotations

import numpy as np

from .autodiff import additive_bias
from .tokenizer import SegmentMap


class AttentionMask:
    """Boolean visibility of rows over positions: n × n for a sequence,
    B × positions for B decode rows; visible[i, j] means row i may attend
    to position j.

    Attention reads the mask as an additive bias over its scores, 0 where
    visible and -inf where hidden (`bias`). The bias is built once per mask
    and dtype, and that is where a row with nothing visible is rejected.
    """

    def __init__(self, visible: np.ndarray):
        self.visible = visible
        self.n = visible.shape[0]
        self._bias: np.ndarray | None = None

    def bias(self, dtype) -> np.ndarray:
        """The additive bias in `dtype`, of the mask's shape, built on the
        first call. Raises EmptyRow when a row sees no column."""
        if self._bias is None or self._bias.dtype != dtype:
            self._bias = additive_bias(self.visible, dtype)
        return self._bias


def build_causal_mask(n: int) -> AttentionMask:
    if n < 1:
        raise ValueError("n must be >= 1")
    return AttentionMask(np.tril(np.ones((n, n), dtype=bool)))


def query_view(seg: SegmentMap, attended: set[int]) -> np.ndarray:
    """A query row's boolean view of prompt columns 0..query_start-1: the
    prefix and the `attended` schema tokens, markers hidden. Training and
    decoding rows alike take it."""
    view = np.zeros(seg.query_start, dtype=bool)
    view[list(attended)] = True
    view[:seg.schema_start] = True
    view[list(seg.markers)] = False
    return view


def build_joint_mask(seg: SegmentMap, attended: set[int]) -> AttentionMask:
    """The joint mask over `seg`, query rows seeing the `attended` schema
    tokens."""
    n, s, q = seg.n, seg.schema_start, seg.query_start
    markers = list(seg.markers)
    visible = np.zeros((n, n), dtype=bool)
    visible[:s, :s] = np.tri(s, dtype=bool)  # the prefix is causal
    visible[s:q, :q] = True  # schema rows see the prompt...
    visible[s:q, markers] = False  # ...without markers
    visible[markers, :q] = True  # marker rows see all of it
    visible[q:, :q] = query_view(seg, attended)
    visible[q:, q:] = np.tri(n - q, dtype=bool)  # the query is causal
    return AttentionMask(visible)


def render_ascii(mask: AttentionMask, seg: SegmentMap | None = None) -> str:
    """Monochrome grid: '#' visible, '.' hidden; optional region ruler."""
    lines = []
    if seg is not None:
        ruler = []
        for j in range(mask.n):
            if j in seg.markers:
                ruler.append("M")
            elif j in seg.prefix:
                ruler.append("P")
            elif j in seg.schema:
                ruler.append("S")
            else:
                ruler.append("Q")
        lines.append("".join(ruler))
    for i in range(mask.n):
        lines.append("".join("#" if v else "." for v in mask.visible[i]))
    return "\n".join(lines)


def render_ppm(mask: AttentionMask, scale: int = 4) -> bytes:
    """Plain binary PPM, black = visible, white = hidden."""
    n = mask.n
    header = f"P6\n{n * scale} {n * scale}\n255\n".encode()
    img = np.where(mask.visible[:, :, None], 0, 255).astype(np.uint8)
    img = np.repeat(np.repeat(img, scale, axis=0), scale, axis=1)
    img = np.repeat(img, 3, axis=2)
    return header + img.tobytes()


def render_svg(mask: AttentionMask, cell: int = 8) -> str:
    n = mask.n
    size = n * cell
    rects = [
        f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" fill="black"/>'
        for i in range(n)
        for j in range(n)
        if mask.visible[i, j]
    ]
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">'
        f'<rect width="{size}" height="{size}" fill="white"/>' + "".join(rects) + "</svg>"
    )
