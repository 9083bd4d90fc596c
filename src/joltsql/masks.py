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
    """n x n boolean visibility; visible[i, j] means row i may attend to j."""

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
    visible = np.zeros((n, n), dtype=bool)

    prefix = np.zeros(n, dtype=bool)
    prefix[list(seg.prefix)] = True
    schema = np.zeros(n, dtype=bool)
    schema[list(seg.schema)] = True
    marker = np.zeros(n, dtype=bool)
    marker[list(seg.markers)] = True
    attended_schema = np.zeros(n, dtype=bool)
    attended_schema[list(seg.gt_schema | seg.noisy_schema)] = True

    for i in range(n):
        row = visible[i]
        if prefix[i]:
            # plain causal within the prefix
            row[: i + 1] = prefix[: i + 1]
        elif schema[i] and not marker[i]:
            row[:] = (prefix | schema) & ~marker
        elif marker[i]:
            row[:] = prefix | schema
        else:  # query
            causal_query = np.zeros(n, dtype=bool)
            for j in seg.query:
                if j <= i:
                    causal_query[j] = True
            row[:] = (prefix | attended_schema | causal_query) & ~marker
        row[i] = True  # every token sees itself
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
