"""Tests for exact NVDs, quadtrees, and ρ-approximate NVDs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    RoadNetwork,
    dijkstra_all,
    dijkstra_distance,
    perturbed_grid_network,
    with_one_way_streets,
)
from repro.nvd import (
    ApproximateNVD,
    MortonQuadtree,
    NetworkVoronoiDiagram,
    exact_nvd_region_quadtree_bytes,
)


@pytest.fixture(scope="module")
def grid():
    return perturbed_grid_network(8, 8, seed=7)


@pytest.fixture(scope="module")
def objects(grid):
    rng = random.Random(5)
    return sorted(rng.sample(range(grid.num_vertices), 10))


class TestExactNVD:
    def test_requires_objects(self, grid):
        with pytest.raises(ValueError):
            NetworkVoronoiDiagram(grid, [])

    def test_rejects_bad_vertex(self, grid):
        with pytest.raises(ValueError):
            NetworkVoronoiDiagram(grid, [grid.num_vertices + 5])

    def test_owner_is_true_1nn(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        per_object = {o: dijkstra_all(grid, o) for o in objects}
        for v in grid.vertices():
            best = min(per_object[o][v] for o in objects)
            assert per_object[nvd.owner(v)][v] == pytest.approx(best)
            assert nvd.distance_to_owner(v) == pytest.approx(best)

    def test_cells_partition_vertices(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        covered = []
        for o in objects:
            covered.extend(nvd.cell(o))
        assert sorted(covered) == list(grid.vertices())

    def test_object_owns_itself(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        for o in objects:
            assert nvd.owner(o) == o

    def test_cell_unknown_object(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        with pytest.raises(KeyError):
            nvd.cell(-42)

    def test_adjacency_symmetric(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        for o, adjacent in nvd.adjacency.items():
            for a in adjacent:
                assert o in nvd.adjacency[a]
            assert o not in adjacent

    def test_adjacency_degree_small_constant(self, grid, objects):
        """Observation 2a: NVD adjacency graphs have small average degree."""
        nvd = NetworkVoronoiDiagram(grid, objects)
        assert 0 < nvd.average_degree() <= 8.0

    def test_max_radius_covers_cell(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        for o in objects:
            radius = nvd.max_radius[o]
            for v in nvd.cell(o):
                assert nvd.distance_to_owner(v) <= radius + 1e-9

    def test_adjacency_memory_much_smaller_than_full(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        assert nvd.adjacency_memory_bytes() < nvd.memory_bytes()

    def test_knn_adjacency_property(self, grid, objects):
        """Property 2: the k-th NN is adjacent to one of the first k-1 NNs."""
        nvd = NetworkVoronoiDiagram(grid, objects)
        rng = random.Random(2)
        for _ in range(5):
            q = rng.randrange(grid.num_vertices)
            ranking = sorted(objects, key=lambda o: dijkstra_distance(grid, q, o))
            for k in range(1, len(ranking)):
                previous = set(ranking[:k])
                assert any(
                    ranking[k] in nvd.adjacent_objects(p) for p in previous
                ) or ranking[k] in previous


class TestMortonQuadtree:
    def test_validation(self):
        with pytest.raises(ValueError):
            MortonQuadtree({}, {}, rho=1)
        with pytest.raises(ValueError):
            MortonQuadtree({0: (0, 0)}, {0: 1}, rho=0)
        with pytest.raises(ValueError):
            MortonQuadtree({0: (0, 0)}, {}, rho=1)

    def test_single_color_single_leaf(self):
        points = {i: (i * 1.0, 0.0) for i in range(10)}
        colors = {i: 7 for i in range(10)}
        tree = MortonQuadtree(points, colors, rho=1)
        assert tree.num_leaves == 1
        assert tree.candidates(3.0, 0.0) == (7,)

    def test_leaf_color_cap(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        points = {v: grid.coordinates(v) for v in grid.vertices()}
        colors = {v: nvd.owner(v) for v in grid.vertices()}
        for rho in (1, 2, 4):
            tree = MortonQuadtree(points, colors, rho=rho)
            for candidates in tree.leaves.values():
                assert len(candidates) <= rho

    def test_candidates_contain_true_owner(self, grid, objects):
        """Definition 1: each vertex's candidate set includes its 1NN."""
        nvd = NetworkVoronoiDiagram(grid, objects)
        points = {v: grid.coordinates(v) for v in grid.vertices()}
        colors = {v: nvd.owner(v) for v in grid.vertices()}
        for rho in (1, 3, 5):
            tree = MortonQuadtree(points, colors, rho=rho)
            for v in grid.vertices():
                assert nvd.owner(v) in tree.candidates(*points[v])

    def test_larger_rho_shallower_and_smaller(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        points = {v: grid.coordinates(v) for v in grid.vertices()}
        colors = {v: nvd.owner(v) for v in grid.vertices()}
        exact = MortonQuadtree(points, colors, rho=1)
        approximate = MortonQuadtree(points, colors, rho=5)
        assert approximate.num_leaves <= exact.num_leaves
        assert approximate.memory_bytes() <= exact.memory_bytes()
        assert approximate.depth <= exact.depth

    def test_out_of_bounds_point_clamped(self):
        tree = MortonQuadtree({0: (0, 0), 1: (1, 1)}, {0: 5, 1: 6}, rho=1)
        assert tree.candidates(-100.0, -100.0) == (5,)
        assert tree.candidates(100.0, 100.0) == (6,)

    def test_coincident_points_stop_at_max_depth(self):
        points = {0: (0.5, 0.5), 1: (0.5, 0.5), 2: (2.0, 2.0)}
        colors = {0: 1, 1: 2, 2: 3}
        tree = MortonQuadtree(points, colors, rho=1, max_depth=6)
        candidates = tree.candidates(0.5, 0.5)
        assert set(candidates) >= {1, 2}  # guarantee kept despite overflow

    @pytest.mark.parametrize("one_way", [False, True], ids=["two-way", "one-way"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_insert_all_then_query_all(self, grid, one_way, seed):
        """Colour every vertex by its owner, then look every vertex up:
        its candidates hold its owner and at most rho colours."""
        graph = with_one_way_streets(grid, 0.4, seed=3) if one_way else grid
        rng = random.Random(seed)
        objects = rng.sample(range(graph.num_vertices), rng.randint(2, 12))
        nvd = NetworkVoronoiDiagram(graph, objects)
        points = {v: graph.coordinates(v) for v in graph.vertices()}
        colors = {v: nvd.owner(v) for v in graph.vertices()}
        for rho in (1, 3, 5):
            tree = MortonQuadtree(points, colors, rho=rho)
            for v in graph.vertices():
                found = tree.candidates(*points[v])
                assert colors[v] in found and len(found) <= rho

    def test_more_than_rho_colours_at_one_coordinate(self):
        """No split separates coincident points: the leaf bottoms out at
        max_depth and lists every colour, more than rho of them."""
        points = {i: (0.25, 0.75) for i in range(7)}
        points[7] = (3.0, 3.0)
        colors = {i: 10 + i for i in points}
        tree = MortonQuadtree(points, colors, rho=3, max_depth=5)
        assert tree.candidates(0.25, 0.75) == tuple(range(10, 17))
        assert tree.depth == 5
        assert [k for k, c in tree.leaves.items() if len(c) > 3] == [
            k for k, c in tree.leaves.items() if c == tuple(range(10, 17))
        ]
        assert tree.candidates(3.0, 3.0) == (17,)

    def test_midline_points_land_where_lookup_descends(self):
        """A point exactly on a cell's midline goes to the high side in
        the build and in the lookup alike."""
        corners = {0: (0.0, 0.0), 1: (4.0, 4.0)}
        minx, miny, maxx, maxy = MortonQuadtree(corners, {0: 0, 1: 1}, rho=1).bounds
        midx, midy = (minx + maxx) / 2.0, (miny + maxy) / 2.0
        lowx, lowy = (minx + midx) / 2.0, (miny + midy) / 2.0
        points = dict(corners)
        for on_line in [(midx, midy), (midx, 0.5), (0.5, midy), (lowx, lowy),
                        (lowx, 0.5), (midx, lowy), (lowx, midy)]:
            points[len(points)] = on_line
        tree = MortonQuadtree(points, {p: 100 + p for p in points}, rho=1)
        assert tree.bounds == (minx, miny, maxx, maxy)
        for p, (x, y) in points.items():
            assert tree.candidates(x, y) == (100 + p,)


class TestApproximateNVD:
    def test_small_keyword_skips_nvd(self, grid):
        nvd = ApproximateNVD.build(grid, [1, 2, 3], rho=5)
        assert nvd.is_small
        assert nvd.quadtree is None
        assert nvd.seed_objects(grid.coordinates(0)) == [1, 2, 3]

    def test_large_keyword_builds_quadtree(self, grid, objects):
        nvd = ApproximateNVD.build(grid, objects, rho=4)
        assert not nvd.is_small
        assert nvd.quadtree is not None

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            ApproximateNVD.build(grid, [], rho=5)
        with pytest.raises(ValueError):
            ApproximateNVD.build(grid, [1], rho=0)

    def test_seed_contains_true_1nn(self, grid, objects):
        nvd = ApproximateNVD.build(grid, objects, rho=3)
        per_object = {o: dijkstra_all(grid, o) for o in objects}
        for v in grid.vertices():
            true_1nn = min(objects, key=lambda o: per_object[o][v])
            seeds = nvd.seed_objects(grid.coordinates(v))
            assert true_1nn in seeds
            # Seeds from the quadtree respect the rho cap.
            assert len(seeds) <= 3

    def test_neighbors_match_adjacency(self, grid, objects):
        nvd = ApproximateNVD.build(grid, objects, rho=3)
        for o in objects:
            assert set(nvd.neighbors(o)) == nvd.adjacency[o]

    def test_memory_far_below_exact_region_quadtree(self, grid, objects):
        """Figure 6(a): the APX-NVD is much smaller than the exact NVD."""
        approximate = ApproximateNVD.build(grid, objects, rho=5)
        exact_bytes = exact_nvd_region_quadtree_bytes(grid, objects)
        assert approximate.memory_bytes() < exact_bytes

    def test_deletion_tombstones(self, grid, objects):
        nvd = ApproximateNVD.build(grid, objects, rho=3)
        target = objects[0]
        nvd.delete_object(target)
        assert nvd.is_deleted(target)
        assert target not in nvd.live_objects()
        assert nvd.pending_updates == 1
        nvd.delete_object(target)  # idempotent
        assert nvd.pending_updates == 1
        with pytest.raises(KeyError):
            nvd.delete_object(-1)

    def test_insert_colocates_on_affected_set(self, grid, objects):
        nvd = ApproximateNVD.build(grid, objects, rho=3)
        new_object = next(
            v for v in grid.vertices() if v not in set(objects)
        )
        distance = lambda a, b: dijkstra_distance(grid, a, b)
        affected = nvd.insert_object(new_object, grid.coordinates(new_object), distance)
        assert affected  # at least the 1NN is affected
        for a in affected:
            assert new_object in nvd.colocated[a]
        assert new_object in nvd.objects
        assert nvd.pending_updates == 1

    def test_affected_set_contains_all_truly_affected(self, grid, objects):
        """Theorem 2 only ever prunes objects whose cells cannot change."""
        nvd_before = NetworkVoronoiDiagram(grid, objects)
        new_object = next(v for v in grid.vertices() if v not in set(objects))
        nvd_after = NetworkVoronoiDiagram(grid, objects + [new_object])
        truly_affected = {
            nvd_before.owner(v)
            for v in grid.vertices()
            if nvd_after.owner(v) == new_object
        } - {new_object}
        approximate = ApproximateNVD.build(grid, objects, rho=3)
        distance = lambda a, b: dijkstra_distance(grid, a, b)
        affected = approximate.insert_object(
            new_object, grid.coordinates(new_object), distance
        )
        assert truly_affected <= affected

    def test_insert_into_small_list(self, grid):
        nvd = ApproximateNVD.build(grid, [1, 2], rho=5)
        nvd.insert_object(9, grid.coordinates(9), lambda a, b: 0.0)
        assert 9 in nvd.live_objects()
        assert 9 in nvd.seed_objects(grid.coordinates(0))

    def test_reinsert_deleted_revives(self, grid, objects):
        nvd = ApproximateNVD.build(grid, objects, rho=3)
        nvd.delete_object(objects[0])
        nvd.insert_object(objects[0], grid.coordinates(objects[0]), lambda a, b: 0.0)
        assert objects[0] in nvd.live_objects()

    def test_double_insert_rejected(self, grid, objects):
        nvd = ApproximateNVD.build(grid, objects, rho=3)
        with pytest.raises(KeyError):
            nvd.insert_object(objects[0], grid.coordinates(objects[0]), lambda a, b: 0.0)

    def test_rebuild_folds_updates(self, grid, objects):
        nvd = ApproximateNVD.build(grid, objects, rho=3)
        nvd.delete_object(objects[0])
        new_object = next(v for v in grid.vertices() if v not in set(objects))
        distance = lambda a, b: dijkstra_distance(grid, a, b)
        nvd.insert_object(new_object, grid.coordinates(new_object), distance)
        rebuilt = nvd.rebuild(grid)
        assert rebuilt.live_objects() == (set(objects) - {objects[0]}) | {new_object}
        assert rebuilt.pending_updates == 0
        assert not rebuilt.colocated

    def test_rebuild_requires_live_objects(self, grid):
        nvd = ApproximateNVD.build(grid, [4], rho=5)
        nvd.delete_object(4)
        with pytest.raises(ValueError):
            nvd.rebuild(grid)


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=8))
@settings(max_examples=20, deadline=None)
def test_apx_nvd_1nn_guarantee_property(seed, rho):
    """Property: seeds always contain the true 1NN, for random settings."""
    g = perturbed_grid_network(6, 6, seed=seed % 17)
    rng = random.Random(seed)
    count = rng.randint(2, 12)
    objects = sorted(rng.sample(range(g.num_vertices), count))
    nvd = ApproximateNVD.build(g, objects, rho=rho)
    per_object = {o: dijkstra_all(g, o) for o in objects}
    q = rng.randrange(g.num_vertices)
    true_1nn = min(objects, key=lambda o: (per_object[o][q], o))
    seeds = nvd.seed_objects(g.coordinates(q))
    best = min(per_object[o][q] for o in objects)
    assert any(per_object[s][q] == pytest.approx(best) for s in seeds)
    assert true_1nn in seeds or per_object[seeds[0]][q] == pytest.approx(best)
