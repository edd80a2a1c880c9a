"""Tests for expert baseline topologies and reconstruction machinery."""

import hashlib
import json

import pytest

from repro.topology import (
    LAYOUT_4X5,
    LAYOUT_8X6,
    RADIX,
    Signature,
    Topology,
    average_hops,
    bisection_bandwidth,
    butter_donut,
    diameter,
    double_butterfly,
    expert_topology,
    experts_for_class,
    folded_torus,
    kite,
    mesh,
    reconstruct,
    standard_layout,
)
from repro.topology import expert_data
from repro.topology.expert import EXPERT_FAMILIES


KITE_GOLDEN = {
    (20, "small"):
        "56d8e9114e189a7f71e6b68eeaacd04851f30ac772dfcdf55bc2cf509d541fbd",
    (20, "medium"):
        "267bdd05732d370ac6369e1574555ad436b71514322b1445e18fe177dd58dafe",
    (20, "large"):
        "b1cf865947374ba758e24609fd1911ff1b3523ed44d4d220fc2fb63b339cd90f",
    (30, "small"):
        "9650bb5bbfb5802b37c22201251ac90234e88f1c1fb809beefd236aa8533dbaf",
    (30, "medium"):
        "22ca6edda3f686c060eb10df22fea4939f51596017c9fb9e11fdaf06e7b92b6d",
    (30, "large"):
        "b13b636bf4e24d4e26ea82ceb3ccd24486c8ec23ad6c748efa220ae15b2d69d1",
    (48, "small"):
        "203d8d2ec938c6ea437ea3edf07bb9e5bc75659263950011d3aa3ed8f5d1fd85",
    (48, "medium"):
        "5ad2341bd32ca8e5a7b79e787ae68ff8d2f6f2cf661075ccb9a0bab28d15afff",
    (48, "large"):
        "8b9a2e772825bf8193948812eae8c03229b718ba97119aa17d2b32e55cdb0527",
}


class TestMesh:
    def test_structure(self):
        m = mesh(LAYOUT_4X5)
        assert m.num_links == 31
        assert m.is_symmetric
        assert m.max_radix() <= RADIX

    def test_valid_small_class(self):
        mesh(LAYOUT_4X5).check(radix=RADIX, link_class="small")


class TestFoldedTorus:
    def test_degree_exactly_four(self):
        ft = folded_torus(LAYOUT_4X5)
        assert all(d == 4 for d in ft.out_degree())
        assert all(d == 4 for d in ft.in_degree())

    def test_medium_class_valid(self):
        folded_torus(LAYOUT_4X5).check(radix=RADIX, link_class="medium")

    def test_scales_to_8x6(self):
        ft = folded_torus(LAYOUT_8X6)
        assert ft.n == 48
        ft.check(radix=RADIX, link_class="medium")
        assert ft.num_links == 96  # degree-4 torus on 48 nodes


class TestPatternGenerators:
    @pytest.mark.parametrize("gen", [butter_donut, double_butterfly])
    def test_valid_and_connected(self, gen):
        t = gen(LAYOUT_4X5)
        t.check(radix=RADIX, link_class="large")

    @pytest.mark.parametrize("gen", [butter_donut, double_butterfly])
    def test_scales_to_48(self, gen):
        t = gen(LAYOUT_8X6)
        t.check(radix=RADIX, link_class="large")

    def test_kite_small_valid(self):
        t = kite(LAYOUT_4X5, "small")
        t.check(radix=RADIX, link_class="small")

    def test_kite_rejects_bad_size(self):
        with pytest.raises(ValueError):
            kite(LAYOUT_4X5, "gigantic")

    @pytest.mark.parametrize("n,size", sorted(KITE_GOLDEN))
    def test_kite_links_match_golden(self, n, size):
        """The greedy's link sets, recorded when every candidate's hop
        matrix was recomputed from scratch."""
        links = sorted(
            [list(l) for l in kite(standard_layout(n), size).directed_links]
        )
        digest = hashlib.sha256(json.dumps(links).encode()).hexdigest()
        assert digest == KITE_GOLDEN[(n, size)]


class TestExpertRegistry:
    def test_families_cover_all_classes(self):
        assert set(EXPERT_FAMILIES.values()) == {"small", "medium", "large"}

    def test_expert_topology_mesh(self):
        assert expert_topology("Mesh", 20).num_links == 31

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            expert_topology("Hypercube", 20)

    def test_experts_for_class(self):
        larges = experts_for_class("large", 20)
        names = {t.name for t in larges}
        assert "ButterDonut" in names and "Kite-Large" in names

    def test_frozen_lookup_preferred(self):
        key = ("UnitTestTopo", 20)
        try:
            expert_data.register("UnitTestTopo", 20, [(0, 1), (1, 2)])
            assert expert_data.lookup("UnitTestTopo", 20) == [(0, 1), (1, 2)]
        finally:
            expert_data.FROZEN.pop(key, None)

    def test_frozen_expert_matches_signature_when_registered(self):
        """If the generation pass registered Kite-Small, it must be close
        to the published Table II row."""
        frozen = expert_data.lookup("Kite-Small", 20)
        if frozen is None:
            pytest.skip("Kite-Small reconstruction not registered")
        t = Topology.from_undirected(LAYOUT_4X5, frozen, link_class="small")
        t.check(radix=RADIX, link_class="small")
        assert t.num_links == 38
        assert abs(average_hops(t) - 2.38) < 0.05
        assert abs(bisection_bandwidth(t) - 8) <= 1


class TestReconstruction:
    def test_reconstruct_tiny_signature(self):
        """Match a signature we know is achievable: the folded torus's."""
        ft = folded_torus(LAYOUT_4X5)
        sig = Signature(
            num_links=40,
            diameter=4,
            avg_hops=round(average_hops(ft), 2),
            bisection_bw=10,
        )
        edges, cost = reconstruct(
            LAYOUT_4X5, "medium", sig, steps=1500, restarts=1, seed=2,
            initial=[tuple(sorted(e)) for e in ft.directed_links],
        )
        assert cost < 2.0  # starts at the answer; must stay there
        t = Topology.from_undirected(LAYOUT_4X5, edges)
        assert t.is_connected()
        assert t.max_radix() <= RADIX
