import numpy as np
import pytest

from joltsql.errors import InvalidSegmentation
from joltsql.masks import (build_causal_mask, build_joint_mask, render_ascii,
                           render_ppm, render_svg)
from joltsql.tokenizer import SegmentMap


def random_segment(rng: np.random.Generator, n_max: int = 64) -> SegmentMap:
    """Random contiguous prefix/schema/query split with random markers and
    random GT/noisy subsets of the schema region."""
    n = int(rng.integers(3, n_max + 1))
    cut1 = int(rng.integers(1, n - 1))
    cut2 = int(rng.integers(cut1 + 1, n))
    prefix = set(range(cut1))
    schema = set(range(cut1, cut2))
    query = set(range(cut2, n))
    k_markers = int(rng.integers(0, len(schema) + 1))
    markers = set(int(i) for i in rng.choice(sorted(schema), size=k_markers, replace=False))
    non_marker = sorted(schema - markers)
    gt = set(int(i) for i in rng.choice(non_marker, size=int(rng.integers(0, len(non_marker) + 1)), replace=False)) if non_marker else set()
    rest = sorted(set(non_marker) - gt)
    noisy = set(int(i) for i in rng.choice(rest, size=int(rng.integers(0, len(rest) + 1)), replace=False)) if rest else set()
    return SegmentMap(n=n, prefix=prefix, schema=schema, query=query,
                      markers=markers, table_elements={}, marker_columns=[],
                      gt_schema=gt, noisy_schema=noisy)


def oracle_visible(seg: SegmentMap) -> np.ndarray:
    """Row-by-row set expressions, written independently of the vectorized
    builder: prefix rows are causal over the prefix; non-marker schema rows
    see (prefix ∪ schema) minus markers; marker rows see prefix ∪ schema;
    query rows see prefix, the attended schema subset, and the causal query
    prefix, all minus markers. Every row sees itself."""
    n = seg.n
    out = np.zeros((n, n), dtype=bool)
    attended = seg.gt_schema | seg.noisy_schema
    for i in range(n):
        if i in seg.prefix:
            allowed = {j for j in seg.prefix if j <= i}
        elif i in seg.markers:
            allowed = seg.prefix | seg.schema
        elif i in seg.schema:
            allowed = (seg.prefix | seg.schema) - seg.markers
        else:
            causal_q = {j for j in seg.query if j <= i}
            allowed = (seg.prefix | attended | causal_q) - seg.markers
        allowed.add(i)
        out[i, sorted(allowed)] = True
    return out


class TestJointMaskOracle:
    def test_matches_oracle_on_100_random_segmentations(self):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            seg = random_segment(rng)
            got = build_joint_mask(seg).visible
            want = oracle_visible(seg)
            assert np.array_equal(got, want)


class TestMarkerRules:
    def test_invariants_on_1000_random_cases(self):
        rng = np.random.default_rng(999)
        for _ in range(1000):
            seg = random_segment(rng, n_max=32)
            vis = build_joint_mask(seg).visible
            for m in seg.markers:
                # markers are invisible to every other row
                for i in range(seg.n):
                    if i != m and i not in seg.markers:
                        assert not vis[i, m]
                # markers see each other and all of prefix + schema
                for m2 in seg.markers:
                    assert vis[m, m2]
                for j in seg.prefix | seg.schema:
                    assert vis[m, j]
            # schema bidirectionality between non-marker schema rows
            sch = sorted(seg.schema - seg.markers)
            for a in sch:
                for b in sch:
                    assert vis[a, b] == vis[b, a] == True  # noqa: E712
            # query causality: no query row sees a later query token
            for i in seg.query:
                for j in seg.query:
                    if j > i:
                        assert not vis[i, j]

    def test_self_visibility(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            seg = random_segment(rng, n_max=24)
            vis = build_joint_mask(seg).visible
            assert vis.diagonal().all()

    def test_query_sees_only_attended_schema(self):
        seg = SegmentMap(n=8, prefix={0, 1}, schema={2, 3, 4, 5}, query={6, 7},
                         markers={3, 5}, table_elements={}, marker_columns=[],
                         gt_schema={2}, noisy_schema=set())
        vis = build_joint_mask(seg).visible
        assert vis[6, 2] and not vis[6, 4]
        assert not vis[6, 3] and not vis[6, 5]
        assert vis[6, 0] and vis[6, 1]
        assert vis[7, 6] and not vis[6, 7]

    def test_bad_partition_rejected(self):
        seg = SegmentMap(n=4, prefix={0, 1}, schema={1, 2}, query={3},
                         markers=set(), table_elements={}, marker_columns=[])
        with pytest.raises(InvalidSegmentation):
            build_joint_mask(seg)


class TestCausalMask:
    def test_lower_triangular(self):
        vis = build_causal_mask(5).visible
        assert np.array_equal(vis, np.tril(np.ones((5, 5), dtype=bool)))

    def test_size_one(self):
        assert build_causal_mask(1).visible.tolist() == [[True]]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            build_causal_mask(0)


class TestRenderers:
    def _tiny(self):
        seg = SegmentMap(n=4, prefix={0}, schema={1, 2}, query={3},
                         markers={2}, table_elements={}, marker_columns=[],
                         gt_schema={1})
        return seg, build_joint_mask(seg)

    def test_ascii_shape_and_ruler(self):
        seg, mask = self._tiny()
        out = render_ascii(mask, seg).splitlines()
        assert out[0] == "PSMQ"
        assert len(out) == 5
        assert all(len(line) == 4 for line in out)
        assert set("".join(out[1:])) <= {"#", "."}

    def test_ppm_header_and_size(self):
        _, mask = self._tiny()
        data = render_ppm(mask, scale=2)
        assert data.startswith(b"P6\n8 8\n255\n")
        assert len(data) == len(b"P6\n8 8\n255\n") + 8 * 8 * 3

    def test_svg_well_formed(self):
        _, mask = self._tiny()
        svg = render_svg(mask)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") == 1 + int(mask.visible.sum())

    def test_renderers_deterministic(self):
        seg, mask = self._tiny()
        assert render_ascii(mask, seg) == render_ascii(mask, seg)
        assert render_svg(mask) == render_svg(mask)
