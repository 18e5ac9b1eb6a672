"""Tests for the synthetic generators and instance-file I/O."""

import hashlib
import itertools

import numpy as np
import pytest

from topkcert.core import ambiguous_set, coverage_event_holds, kth_largest, near_tie_mass, true_top_k
from topkcert.instances import (
    GapInstanceSpec,
    PackingSpec,
    generate_gap_instance,
    generate_packing_instance,
    load_instance,
    save_instance,
)


class TestGapGenerator:
    def test_structural_invariants_over_seeds(self):
        for seed in range(100):
            spec = GapInstanceSpec(n=300, k=30, gap=0.05, seed=seed)
            inst = generate_gap_instance(spec)
            values = inst.values
            assert values.min() >= 0.0 and values.max() <= 1.0
            assert int(np.sum(values > 0.5)) == 30
            assert kth_largest(values, 30) == pytest.approx(0.525)
            assert kth_largest(values, 31) == pytest.approx(0.475)
            assert inst.gap >= 0.05 - 1e-12

    def test_near_tie_items_crowd_the_boundary(self):
        spec = GapInstanceSpec(n=500, k=50, gap=0.05, seed=3)
        inst = generate_gap_instance(spec)
        # threshold is 0.525; the 2k near-ties plus both anchors sit within eta + gap
        assert near_tie_mass(inst, 0.0501) >= 100

    def test_near_ties_are_exact_ties(self):
        # the tie draws span zero width: every top near-tie equals the k-th
        # value and every bottom one the (k+1)-th
        values = generate_gap_instance(GapInstanceSpec(n=300, k=30, seed=0)).values
        assert np.count_nonzero(values == 0.525) == 30
        assert np.count_nonzero(values == 0.475) == 32
        assert np.unique(values).size == 240

    def test_no_near_ties_mode(self):
        spec = GapInstanceSpec(n=200, k=10, gap=0.05, near_ties=0, seed=1)
        inst = generate_gap_instance(spec)
        # only the two anchor items touch the boundary band
        assert near_tie_mass(inst, 0.0501) == 2

    def test_deterministic_in_seed(self):
        spec = GapInstanceSpec(n=150, k=15, seed=9)
        a = generate_gap_instance(spec)
        b = generate_gap_instance(spec)
        assert a.values.tobytes() == b.values.tobytes()
        c = generate_gap_instance(GapInstanceSpec(n=150, k=15, seed=10))
        assert a.values.tobytes() != c.values.tobytes()

    def test_infeasible_specs_rejected(self):
        with pytest.raises(ValueError):
            generate_gap_instance(GapInstanceSpec(n=100, k=100, seed=0))
        # the largest gap whose slope still clears the bulk band
        generate_gap_instance(GapInstanceSpec(n=100, k=10, gap=0.36, seed=0))
        for gap in (0.3601, 0.9):
            with pytest.raises(ValueError, match=rf"gap must be at most 0.36, got {gap}"):
                generate_gap_instance(GapInstanceSpec(n=100, k=10, gap=gap, seed=0))

    @pytest.mark.parametrize("near_ties", [2.7, 2.0, True, "3"])
    def test_near_ties_must_be_an_integer(self, near_ties):
        with pytest.raises(TypeError, match="near_ties must be an integer"):
            generate_gap_instance(GapInstanceSpec(n=100, k=10, near_ties=near_ties, seed=0))


    @pytest.mark.parametrize("k", [0, 50, 51])
    def test_k_bound_message_states_the_rule(self, k):
        with pytest.raises(ValueError, match=rf"1 <= k <= n - 1 = 49, got k={k}"):
            generate_gap_instance(GapInstanceSpec(n=50, k=k, seed=0))


class TestPackingGenerator:
    def test_prescribed_intervals_cover_and_screen(self):
        spec = PackingSpec(n=200, k=10, m=60)
        inst, state = generate_packing_instance(spec, seed=2)
        assert coverage_event_holds(inst, state)
        # everything outside the packed set is certified out
        l_k = kth_largest(state.lower, 10)
        assert (state.upper[60:] < l_k).all()
        assert list(ambiguous_set(state, 10)) == list(range(60))

    def test_values_and_near_tie_mass(self):
        spec = PackingSpec(n=200, k=10, m=60)
        inst, state = generate_packing_instance(spec, seed=2)
        assert inst.threshold == pytest.approx(0.525)
        # all packed items sit within the interval radius of the threshold
        assert near_tie_mass(inst, 0.0500001) >= 60
        assert sorted(set(np.round(inst.values, 6))) == [0.3, 0.475, 0.525]

    def test_seed_draws_the_true_top_k_from_the_packed_set(self):
        inst, _ = generate_packing_instance(PackingSpec(n=100, k=5, m=30), seed=4)
        top = list(true_top_k(inst))
        assert len(top) == 5 and top[-1] < 30 and top != [0, 1, 2, 3, 4]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PackingSpec(n=100, k=31, m=30)

    @pytest.mark.parametrize("seed", [None, 1.5, "4", True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            generate_packing_instance(PackingSpec(n=100, k=5, m=30), seed=seed)


# Digests of the generators' output bytes, each taken before that generator's
# fixed shape parameters became module constants.  Each case's parameters
# enter the hash, then its values, or "rejected" where the spec raises
# ValueError (k > n - 1 at n = 2).
GAP_GRID = dict(
    n=(2, 50, 1000), k=(1, 10, 49), gap=(0.01, 0.05, 0.2, 0.35),
    near_ties=(None, 0, 7, 5000), tail_fraction=(0.0, 0.35, 1.0), seed=(0, 3),
)
GAP_DIGEST = "8bb67fe170da8a2b1e48c750b378a343690d92652a353e86e0892bbebc3ac7d8"
PACKING_CASES = [
    (dict(n=300, k=5, m=40), 0), (dict(n=300, k=5, m=40), 7), (dict(n=50, k=5, m=20), 3),
    (dict(n=1, k=1, m=1), 0),
]
PACKING_DIGEST = "179d70105cadb207ab93b218f95410de8ca18c2b6ca48a5885feefbfb0bdee6c"


class TestGeneratorBytes:
    def test_gap_instances_match_digest(self):
        digest, rejected = hashlib.sha256(), 0
        for values in itertools.product(*GAP_GRID.values()):
            params = dict(zip(GAP_GRID, values))
            digest.update(repr(sorted(params.items())).encode())
            try:
                digest.update(generate_gap_instance(GapInstanceSpec(**params)).values.tobytes())
            except ValueError:
                digest.update(b"rejected")
                rejected += 1
        assert rejected == 192
        assert digest.hexdigest() == GAP_DIGEST

    def test_packing_instances_match_digest(self):
        digest = hashlib.sha256()
        for params, seed in PACKING_CASES:
            digest.update(repr((sorted(params.items()), seed)).encode())
            inst, state = generate_packing_instance(PackingSpec(**params), seed=seed)
            for array in (inst.values, state.lower, state.upper, state.pulls):
                digest.update(array.tobytes())
        assert digest.hexdigest() == PACKING_DIGEST


class TestInstanceFiles:
    def test_roundtrip(self, tmp_path):
        inst = generate_gap_instance(GapInstanceSpec(n=40, k=4, seed=0))
        path = tmp_path / "inst.csv"
        save_instance(inst, path)
        loaded = load_instance(path, k=4)
        np.testing.assert_array_equal(loaded.values, inst.values)
        assert loaded.k == 4

    def test_well_formed_three_rows(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("item_id,value\n0,0.5\n1,0.25\n2,1.0\n")
        inst = load_instance(path, k=1)
        assert inst.n == 3 and inst.values[2] == 1.0

    def test_value_out_of_range_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("item_id,value\n0,0.5\n1,1.2\n")
        with pytest.raises(ValueError, match=":3:"):
            load_instance(path, k=1)

    def test_duplicate_and_gapped_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("item_id,value\n0,0.5\n0,0.6\n")
        with pytest.raises(ValueError, match="out of order"):
            load_instance(path, k=1)
        path.write_text("item_id,value\n0,0.5\n2,0.6\n")
        with pytest.raises(ValueError, match="out of order"):
            load_instance(path, k=1)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("0,0.5\n1,0.6\n")
        with pytest.raises(ValueError, match="header"):
            load_instance(path, k=1)

    def test_unparsable_row_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("item_id,value\n0,abc\n")
        with pytest.raises(ValueError, match=":2:"):
            load_instance(path, k=1)
