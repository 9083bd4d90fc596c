"""Attention mask construction: joint training mask and vanilla causal mask.

The joint mask gives schema tokens local bidirectional attention, hides
markers from all non-marker tokens, and restricts query rows to the
prefix, the ground-truth schema subset, sampled noisy schema, and the
causal query prefix.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidSegmentation
from .tokenizer import SegmentMap


class AttentionMask:
    """n × (p+n) boolean visibility: n new rows over p cached rows and
    themselves (p = 0 without a cache); visible[i, j] means row i may
    attend to column j."""

    def __init__(self, visible: np.ndarray):
        self.visible = visible
        self.n = visible.shape[0]


def build_causal_mask(n: int) -> AttentionMask:
    if n < 1:
        raise ValueError("n must be >= 1")
    return AttentionMask(np.tril(np.ones((n, n), dtype=bool)))


def build_joint_mask(seg: SegmentMap) -> AttentionMask:
    if not seg.validate_partition():
        raise InvalidSegmentation("prefix/schema/query do not partition the sequence")
    n = seg.n

    def region(positions) -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        out[list(positions)] = True
        return out

    prefix, schema, query = region(seg.prefix), region(seg.schema), region(seg.query)
    marker = region(seg.markers)
    attended = region(seg.gt_schema | seg.noisy_schema)
    context = prefix | schema
    tri = np.tri(n, dtype=bool)  # tri[i, j]: j <= i

    # each row takes the view of its region; the regions partition the rows
    visible = prefix[:, None] & tri & prefix  # causal within the prefix
    visible |= (schema & ~marker)[:, None] & (context & ~marker)
    visible |= marker[:, None] & context
    visible |= query[:, None] & (((prefix | attended) | (tri & query)) & ~marker)
    np.fill_diagonal(visible, True)  # every token sees itself
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
