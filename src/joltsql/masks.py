"""Attention mask construction: joint training mask and vanilla causal mask.

The joint mask, built in blocks from a layout's two cut points, gives schema
tokens local bidirectional attention, hides markers from all non-marker
tokens, and restricts query rows to the causal query prefix and
`query_view(seg, attended)`: the prefix and the `attended` schema tokens.
A training step passes the gold and noisy columns' tokens, the prompt
encoding none; decode rows take the same view of the predicted columns.

A mask is its boolean array: visible[i, j] means row i may attend to
position j. Attention reads it as an additive bias over its scores
(`autodiff.additive_bias`), which each forward, prompt pass and decode
builds once.
"""
from __future__ import annotations

import numpy as np

from .tokenizer import SegmentMap


def build_causal_mask(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.tril(np.ones((n, n), dtype=bool))


def query_view(seg: SegmentMap, attended: set[int]) -> np.ndarray:
    """A query row's boolean view of prompt columns 0..query_start-1: the
    prefix and the `attended` schema tokens, markers hidden. Training and
    decoding rows alike take it."""
    view = np.zeros(seg.query_start, dtype=bool)
    view[list(attended)] = True
    view[:seg.schema_start] = True
    view[list(seg.markers)] = False
    return view


def build_joint_mask(seg: SegmentMap, attended: set[int]) -> np.ndarray:
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
    return visible


def render_ascii(visible: np.ndarray, seg: SegmentMap | None = None) -> str:
    """Monochrome grid: '#' visible, '.' hidden; optional region ruler."""
    lines = []
    if seg is not None:
        ruler = []
        for j in range(len(visible)):
            if j in seg.markers:
                ruler.append("M")
            elif j in seg.prefix:
                ruler.append("P")
            elif j in seg.schema:
                ruler.append("S")
            else:
                ruler.append("Q")
        lines.append("".join(ruler))
    for row in visible:
        lines.append("".join("#" if v else "." for v in row))
    return "\n".join(lines)


def render_ppm(visible: np.ndarray, scale: int = 4) -> bytes:
    """Plain binary PPM, black = visible, white = hidden."""
    n = len(visible)
    header = f"P6\n{n * scale} {n * scale}\n255\n".encode()
    img = np.where(visible[:, :, None], 0, 255).astype(np.uint8)
    img = np.repeat(np.repeat(img, scale, axis=0), scale, axis=1)
    img = np.repeat(img, 3, axis=2)
    return header + img.tobytes()


def render_svg(visible: np.ndarray, cell: int = 8) -> str:
    n = len(visible)
    size = n * cell
    rects = [
        f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" fill="black"/>'
        for i in range(n)
        for j in range(n)
        if visible[i, j]
    ]
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">'
        f'<rect width="{size}" height="{size}" fill="white"/>' + "".join(rects) + "</svg>"
    )
