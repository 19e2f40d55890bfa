"""ρ-Approximate NVDs with lazy update support (paper §6.1-§6.2, "APX-NVD").

One :class:`ApproximateNVD` indexes the inverted list of a single
keyword.  It embodies the paper's three pre-processing observations:

* **Observation 1:** if the keyword has at most ρ objects, no Voronoi
  diagram is built at all — the heap is seeded with the whole list.
* **Observation 2a:** only the O(|inv(t)|) adjacency graph (plus
  MaxRadius values) is retained, never the O(|V|) owner map.
* **Observation 2b / Definition 1:** point location in a Morton-list
  quadtree returns up to ρ candidates guaranteed to include the true
  network 1NN, which is all Theorem 1 needs to seed a correct heap.

Updates (§6.2) are *lazy*: deletions tombstone the object; insertions
compute the Theorem-2 affected set with MaxRadius pruning and co-locate
the new object on the affected adjacency-graph nodes.  Queries stay
exact throughout; :meth:`rebuild` folds pending updates into a fresh
diagram.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.graph.road_network import RoadNetwork
from repro.nvd.quadtree import MortonQuadtree
from repro.nvd.voronoi import NetworkVoronoiDiagram

#: Signature of the exact-distance callback used during insertion
#: (the K-SPIN framework hands in its Network Distance Module).
DistanceFn = Callable[[int, int], float]


class ApproximateNVD:
    """Keyword-separated ρ-approximate network Voronoi diagram.

    Build with :meth:`build`; query via :meth:`seed_objects` (heap
    initialisation) and :meth:`neighbors` (Algorithm 4 expansion).
    """

    def __init__(
        self,
        rho: int,
        objects: Iterable[int],
        adjacency: dict[int, set[int]],
        max_radius: dict[int, float],
        quadtree: MortonQuadtree | None,
        keyword: str | None = None,
        build_seconds: float = 0.0,
    ) -> None:
        self.rho = rho
        self.objects: set[int] = set(objects)
        self.adjacency = adjacency
        self.max_radius = max_radius
        self.quadtree = quadtree
        self.keyword = keyword
        self.build_seconds = build_seconds
        #: lazily inserted objects co-located on affected diagram nodes.
        self.colocated: dict[int, set[int]] = {}
        self.deleted: set[int] = set()
        self.pending_updates = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: RoadNetwork,
        objects: Iterable[int],
        rho: int = 5,
        keyword: str | None = None,
    ) -> "ApproximateNVD":
        """Build the APX-NVD for one keyword's object set.

        With ``len(objects) <= rho`` this is O(1): no exact NVD is ever
        computed (Observation 1).  Otherwise an exact NVD is computed,
        its adjacency graph and MaxRadius values kept, the owner map
        compressed into a ρ-quadtree, and the exact NVD discarded.
        """
        if rho < 1:
            raise ValueError("rho must be at least 1")
        start = time.perf_counter()
        object_list = sorted(set(objects))
        if not object_list:
            raise ValueError("an APX-NVD needs at least one object")
        if len(object_list) <= rho:
            return cls(
                rho=rho,
                objects=object_list,
                adjacency={o: set() for o in object_list},
                max_radius={},
                quadtree=None,
                keyword=keyword,
                build_seconds=time.perf_counter() - start,
            )
        nvd = NetworkVoronoiDiagram(graph, object_list)
        points = {v: graph.coordinates(v) for v in graph.vertices()}
        colors = {
            v: nvd.owner(v) for v in graph.vertices() if nvd.owner(v) >= 0
        }
        reachable_points = {v: points[v] for v in colors}
        quadtree = MortonQuadtree(reachable_points, colors, rho)
        return cls(
            rho=rho,
            objects=object_list,
            adjacency={o: set(a) for o, a in nvd.adjacency.items()},
            max_radius=dict(nvd.max_radius),
            quadtree=quadtree,
            keyword=keyword,
            build_seconds=time.perf_counter() - start,
        )

    @property
    def is_small(self) -> bool:
        """True when the keyword was cheap enough to skip the NVD."""
        return self.quadtree is None

    def structural_fingerprint(self) -> str:
        """A digest of everything that affects query answers.

        Excludes ``build_seconds`` (wall-clock noise) so a diagram built
        serially and one built by a worker process hash identically —
        the parallel-construction test asserts exactly that.
        """
        import hashlib
        import pickle

        payload = (
            self.rho,
            sorted(self.objects),
            sorted((o, tuple(sorted(a))) for o, a in self.adjacency.items()),
            sorted(self.max_radius.items()),
            pickle.dumps(self.quadtree, protocol=4) if self.quadtree else b"",
            self.keyword,
            sorted((v, tuple(sorted(objs))) for v, objs in self.colocated.items()),
            sorted(self.deleted),
        )
        return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()

    def live_objects(self) -> set[int]:
        """Objects currently answering queries (inserted minus deleted)."""
        return self.objects - self.deleted

    def live_count(self) -> int:
        """``|inv(t)|`` in O(1): ``deleted`` is a subset of ``objects``."""
        return len(self.objects) - len(self.deleted)

    # ------------------------------------------------------------------
    # Query-side interface (used by the Heap Generator)
    # ------------------------------------------------------------------
    def seed_objects(self, coordinates: tuple[float, float]) -> list[int]:
        """Candidate objects to seed an inverted heap for this location.

        Guaranteed to contain the querying vertex's true 1NN among the
        diagram's generator objects (Definition 1), plus any lazily
        co-located inserts on those candidates.  May include tombstoned
        objects — the heap generator skips them at report time but still
        expands through them (paper §6.2, Object Deletion).
        """
        if self.quadtree is None:
            seeds = set(self.objects)
        else:
            seeds = set(self.quadtree.candidates(*coordinates))
        extra: set[int] = set()
        for o in seeds:
            extra.update(self.colocated.get(o, ()))
        return sorted(seeds | extra)

    def neighbors(self, obj: int) -> list[int]:
        """Adjacent diagram objects plus co-located lazy inserts.

        This is what Algorithm 4 (LazyReheap) expands when ``obj`` is
        extracted from an inverted heap.
        """
        adjacent = self.adjacency.get(obj, set())
        extra = self.colocated.get(obj, set())
        return sorted(adjacent | extra)

    def is_deleted(self, obj: int) -> bool:
        """Whether ``obj`` has been tombstoned."""
        return obj in self.deleted

    # ------------------------------------------------------------------
    # Updates (paper §6.2)
    # ------------------------------------------------------------------
    def delete_object(self, obj: int) -> None:
        """Tombstone ``obj``; its cell keeps routing heap expansion."""
        if obj not in self.objects:
            raise KeyError(f"object {obj} is not in this NVD")
        if obj in self.deleted:
            return
        self.deleted.add(obj)
        self.pending_updates += 1

    def insert_object(
        self,
        obj: int,
        coordinates: tuple[float, float],
        distance_fn: DistanceFn,
    ) -> set[int]:
        """Lazily insert ``obj``, returning its Theorem-2 affected set.

        Finds the 1NN ``p`` of ``obj`` (via the quadtree candidates),
        BFSes the adjacency graph from ``p``, prunes any expanded object
        ``o_e`` with ``d(obj, o_e) >= 2 * MaxRadius(o_e)``, and
        co-locates ``obj`` on every affected node and its adjacent
        nodes.  The over-approximate affected set never hurts
        correctness (paper: "A(o) may contain some objects that are not
        affected").
        """
        if obj in self.deleted:
            # Re-inserting a tombstoned object just revives it.
            self.deleted.discard(obj)
            self.pending_updates += 1
            return set()
        if obj in self.objects:
            raise KeyError(f"object {obj} is already in this NVD")
        if self.quadtree is None:
            # Small keyword: the plain list absorbs the insert.
            self.objects.add(obj)
            self.adjacency.setdefault(obj, set())
            self.pending_updates += 1
            return set()
        # A tombstoned generator still owns its cell and routes
        # expansion, so it locates the new object's cell like any other;
        # an unreachable vertex can sit in a leaf with no candidates.
        candidates = self.seed_objects(coordinates) or sorted(self.objects)
        nearest = min(candidates, key=lambda c: distance_fn(obj, c))
        affected: set[int] = set()
        frontier = [nearest]
        seen = {nearest}
        while frontier:
            current = frontier.pop()
            affected.add(current)
            for neighbor in self.adjacency.get(current, ()):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                radius = self.max_radius.get(neighbor)
                if radius is not None and distance_fn(obj, neighbor) >= 2 * radius:
                    continue  # Theorem 2: cell cannot change
                frontier.append(neighbor)
        # A generator whose cell is unchanged but borders the new cell is
        # an old neighbour of an affected one, and must surface ``obj``
        # too or Property 1 breaks for queries inside that cell.
        surfacing = set(affected)
        for a in affected:
            surfacing.update(self.adjacency.get(a, ()))
        for a in surfacing:
            self.colocated.setdefault(a, set()).add(obj)
        self.objects.add(obj)
        # The new object's own expansion reaches the same region.
        self.adjacency[obj] = surfacing
        self.pending_updates += 1
        return affected

    def rebuild(self, graph: RoadNetwork) -> "ApproximateNVD":
        """Fold pending lazy updates into a freshly built diagram."""
        live = self.live_objects()
        if not live:
            raise ValueError("cannot rebuild an NVD with no live objects")
        return ApproximateNVD.build(graph, live, rho=self.rho, keyword=self.keyword)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Index footprint: adjacency + MaxRadius + quadtree Morton list."""
        edges = sum(len(a) for a in self.adjacency.values())
        colocated = sum(len(c) for c in self.colocated.values())
        base = edges * 16 + colocated * 16 + len(self.max_radius) * 16
        base += len(self.objects) * 8
        if self.quadtree is not None:
            base += self.quadtree.memory_bytes()
        return base


def exact_nvd_region_quadtree_bytes(graph: RoadNetwork, objects: list[int]) -> int:
    """Size of the exact-NVD baseline: a region quadtree (rho = 1).

    This is what Figure 6(a)'s leftmost bar measures; kept as a helper
    so benchmarks do not rebuild the machinery inline.
    """
    nvd = NetworkVoronoiDiagram(graph, objects)
    colors = {v: nvd.owner(v) for v in graph.vertices() if nvd.owner(v) >= 0}
    points = {v: graph.coordinates(v) for v in colors}
    quadtree = MortonQuadtree(points, colors, rho=1)
    return quadtree.memory_bytes() + nvd.adjacency_memory_bytes()
