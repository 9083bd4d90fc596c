from dataclasses import replace

import numpy as np
import pytest

from joltsql import pipeline
from joltsql.errors import InvalidSegmentation
from joltsql.masks import (build_causal_mask, build_joint_mask, render_ascii,
                           render_ppm, render_svg)
from joltsql.model import ModelConfig, ModelParams
from joltsql.sampling import draw_noise_count, example_rng, sample_noisy
from joltsql.tokenizer import SegmentMap

# criterion 1's random segmentations and its row-by-row oracle
from test_acceptance import oracle_visible, random_segment


def prechange_joint_mask(seg: SegmentMap, attended: set[int]) -> np.ndarray:
    """The joint mask as it was built from one boolean vector per region
    before the block builder: the slow reference the block builder must
    equal byte for byte."""
    n = seg.n

    def region(positions) -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        out[list(positions)] = True
        return out

    prefix, schema, query = region(seg.prefix), region(seg.schema), region(seg.query)
    marker = region(seg.markers)
    attended = region(attended)
    context = prefix | schema
    tri = np.tri(n, dtype=bool)  # tri[i, j]: j <= i

    # each row takes the view of its region; the regions partition the rows
    visible = prefix[:, None] & tri & prefix  # causal within the prefix
    visible |= (schema & ~marker)[:, None] & (context & ~marker)
    visible |= marker[:, None] & context
    visible |= query[:, None] & (((prefix | attended) | (tri & query)) & ~marker)
    np.fill_diagonal(visible, True)  # every token sees itself
    return visible


def prechange_attended(ex, noisy_columns) -> tuple[set[int], set[int]]:
    """The attended schema tokens as a training step split them when the
    layout carried them: the gold columns' tokens, and the noisy columns'
    tokens outside those. The reference `assemble_segments` must equal."""
    gold = ex.seg.schema_tokens(ex.link)
    return gold, ex.seg.schema_tokens(noisy_columns) - gold


def assert_equals_prechange(seg: SegmentMap, attended: set[int]):
    got, want = build_joint_mask(seg, attended), prechange_joint_mask(seg, attended)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def desk_examples(desk_corpus):
    _, vocab, train_set, _ = desk_corpus()
    return train_set[:40], vocab


class TestJointMaskOracle:
    def test_matches_oracle_on_100_random_segmentations(self):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            seg, attended = random_segment(rng)
            got = build_joint_mask(seg, attended)
            want = oracle_visible(seg, attended)
            assert np.array_equal(got, want)

    def test_matches_oracle_on_prompt_only_segmentations(self):
        """Prefix and schema with an empty query, as the prompt encoding
        builds them."""
        rng = np.random.default_rng(2024)
        for _ in range(100):
            seg, _ = random_segment(rng)
            seg = replace(seg, n=min(seg.query))
            assert np.array_equal(build_joint_mask(seg, set()),
                                  oracle_visible(seg, set()))

    def test_matches_oracle_on_desk_training_segments(self, desk_examples):
        """Desk-corpus layouts with `assemble_segments` attended sets, noisy
        columns sampled as a training step samples them."""
        examples, _ = desk_examples
        with_noise = 0
        for epoch in (1, 2, 3):
            for ex in examples:
                rng = example_rng(0, ex.example_id, epoch)
                pool = ex.non_gt_columns()
                k = draw_noise_count(len(ex.seg.marker_columns), 0.2, rng)
                drawn = sample_noisy(list(range(len(pool))), [1.0] * len(pool), k, rng)
                noisy = {pool[i] for i in drawn}
                attended = pipeline.assemble_segments(ex, noisy)
                assert np.array_equal(build_joint_mask(ex.seg, attended),
                                      oracle_visible(ex.seg, attended))
                with_noise += bool(prechange_attended(ex, noisy)[1])
        assert with_noise > 20

    def test_matches_oracle_on_desk_prompt_encodings(self, desk_examples, monkeypatch):
        examples, vocab = desk_examples
        params = ModelParams(ModelConfig(vocab_size=len(vocab), dim=8, heads=2, layers=1),
                             seed=0)
        built = []

        def spy(seg, attended):
            built.append((seg, attended))
            return build_joint_mask(seg, attended)

        monkeypatch.setattr(pipeline, "build_joint_mask", spy)
        for ex in examples[:10]:
            pipeline.encode_prompt(params, ex)
        assert len(built) == 10
        for seg, attended in built:
            assert not seg.query
            assert np.array_equal(build_joint_mask(seg, attended),
                                  oracle_visible(seg, attended))


class TestBlockBuilderEqualsPrechange:
    def test_on_criterion_1_random_segments(self):
        """Criterion 1's segments (its seed draws them in this order) and
        1,900 more, each also cut to its prompt-only layout."""
        rng = np.random.default_rng(1001)
        for _ in range(2000):
            seg, attended = random_segment(rng)
            assert_equals_prechange(seg, attended)
            assert_equals_prechange(replace(seg, n=seg.query_start), set())

    @pytest.mark.parametrize("corpus_seed", [3, 7])
    def test_on_every_desk_example(self, desk_corpus, corpus_seed):
        """Every train and dev example: the `assemble_segments` attended set
        with sampled noise, which must equal the gold-plus-noisy split
        steps used to store on the layout, and the prompt-only layout
        `encode_prompt` builds."""
        corpus = desk_corpus(corpus_seed)
        with_noise = 0
        for ex in corpus.train + corpus.dev:
            rng = example_rng(corpus_seed, ex.example_id, 1)
            pool = ex.non_gt_columns()
            k = draw_noise_count(len(ex.seg.marker_columns), 0.2, rng)
            drawn = sample_noisy(list(range(len(pool))), [1.0] * len(pool), k, rng)
            noisy = {pool[i] for i in drawn}
            gold, noisy_only = prechange_attended(ex, noisy)
            attended = pipeline.assemble_segments(ex, noisy)
            assert attended == gold | noisy_only
            assert_equals_prechange(ex.seg, attended)
            assert_equals_prechange(replace(ex.seg, n=ex.seg.query_start), set())
            with_noise += bool(noisy_only)
        assert with_noise > 100


class TestMarkerRules:
    def test_invariants_on_1000_random_cases(self):
        rng = np.random.default_rng(999)
        for _ in range(1000):
            seg, attended = random_segment(rng, n_max=32)
            vis = build_joint_mask(seg, attended)
            for m in seg.markers:
                # markers are invisible to every other row
                for i in range(seg.n):
                    if i != m and i not in seg.markers:
                        assert not vis[i, m]
                # markers see each other and all of prefix + schema
                for m2 in seg.markers:
                    assert vis[m, m2]
                for j in set(seg.prefix) | set(seg.schema):
                    assert vis[m, j]
            # schema bidirectionality between non-marker schema rows
            sch = sorted(set(seg.schema) - seg.markers)
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
            seg, attended = random_segment(rng, n_max=24)
            vis = build_joint_mask(seg, attended)
            assert vis.diagonal().all()

    def test_query_sees_only_attended_schema(self):
        seg = SegmentMap(n=8, schema_start=2, query_start=6,
                         markers={3, 5}, table_elements={}, marker_columns=[])
        vis = build_joint_mask(seg, {2})
        assert vis[6, 2] and not vis[6, 4]
        assert not vis[6, 3] and not vis[6, 5]
        assert vis[6, 0] and vis[6, 1]
        assert vis[7, 6] and not vis[6, 7]

    def test_bad_partition_rejected(self):
        """A layout is checked when it is made: cut points out of order, or
        a marker in the prefix or the query."""
        def layout(schema_start, query_start, markers):
            return SegmentMap(n=4, schema_start=schema_start, query_start=query_start,
                              markers=set(markers), table_elements={}, marker_columns=[])

        for (schema_start, query_start), markers in [
                ((3, 2), ()), ((0, 5), ()), ((-1, 2), ()), ((1, 3), {0}), ((1, 3), {3})]:
            with pytest.raises(InvalidSegmentation):
                layout(schema_start, query_start, markers)
        assert layout(1, 3, {1, 2}).markers == {1, 2}


class TestCausalMask:
    def test_lower_triangular(self):
        vis = build_causal_mask(5)
        assert np.array_equal(vis, np.tril(np.ones((5, 5), dtype=bool)))

    def test_size_one(self):
        assert build_causal_mask(1).tolist() == [[True]]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            build_causal_mask(0)


class TestRenderers:
    def _tiny(self):
        seg = SegmentMap(n=4, schema_start=1, query_start=3,
                         markers={2}, table_elements={}, marker_columns=[])
        return seg, build_joint_mask(seg, {1})

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
        assert svg.count("<rect") == 1 + int(mask.sum())

    def test_renderers_deterministic(self):
        seg, mask = self._tiny()
        assert render_ascii(mask, seg) == render_ascii(mask, seg)
        assert render_svg(mask) == render_svg(mask)
