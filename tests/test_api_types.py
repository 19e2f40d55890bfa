"""The unified ``repro.api`` surface: types, validation, interchangeability.

Every engine — KSpin, the serving Engine, and all four baselines —
accepts the same frozen :class:`Query` and returns the same
:class:`QueryResult`, and ``execute`` is the only way in.  These tests
pin the whole contract.
"""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.api import (
    Hit,
    Query,
    QueryEngine,
    QueryResult,
    UnsupportedQueryError,
    UpdatableEngine,
    UpdateOp,
    hits_from_pairs,
    merge_results,
)
from repro.baselines import FsFbs, GTreeSpatialKeyword, NetworkExpansion, Road
from repro.core import KSpin, results_equivalent
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.serve import Engine

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture(scope="module")
def grid():
    return perturbed_grid_network(8, 8, seed=47)


@pytest.fixture(scope="module")
def dataset(grid):
    return make_dataset(grid, seed=47, object_fraction=0.3, vocabulary=15)


@pytest.fixture(scope="module")
def kspin(grid, dataset):
    return KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=4),
        rho=3,
    )


# ----------------------------------------------------------------------
# Query
# ----------------------------------------------------------------------
class TestQuery:
    def test_normalises_keywords_to_tuple(self):
        q = Query(vertex=3, keywords=["b", "a"], k=2)
        assert q.keywords == ("b", "a")
        assert isinstance(q.keywords, tuple)

    def test_single_string_keyword_becomes_tuple(self):
        assert Query(vertex=0, keywords="thai").keywords == ("thai",)

    def test_is_frozen_and_hashable(self):
        q = Query(vertex=0, keywords=("a",))
        with pytest.raises(AttributeError):
            q.k = 5
        assert hash(q) == hash(Query(vertex=0, keywords=("a",)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vertex": 0, "keywords": ()},
            {"vertex": 0, "keywords": ("a",), "k": 0},
            {"vertex": 0, "keywords": ("a",), "kind": "range"},
            {"vertex": 0, "keywords": ("a",), "mode": "xor"},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            Query(**kwargs)

    def test_round_trip_via_dict(self):
        q = Query(vertex=7, keywords=("a", "b"), k=4, kind="topk", mode="or")
        assert Query.from_dict(q.to_dict()) == q

    def test_from_dict_accepts_comma_string_and_conjunctive(self):
        q = Query.from_dict(
            {"vertex": "3", "keywords": "a,b", "k": "2", "conjunctive": "true"}
        )
        assert q == Query(vertex=3, keywords=("a", "b"), k=2, mode="and")

    def test_pickles(self):
        q = Query(vertex=1, keywords=("x",), kind="topk")
        assert pickle.loads(pickle.dumps(q)) == q


# ----------------------------------------------------------------------
# UpdateOp
# ----------------------------------------------------------------------
class TestUpdateOp:
    def test_document_normalised_sorted(self):
        op = UpdateOp(op="insert", object=1, document=["b", "a", "b"])
        assert op.document == (("a", 1), ("b", 2))
        assert op.document_counts() == {"a": 1, "b": 2}

    def test_round_trip_via_dict(self):
        op = UpdateOp(op="insert", object=2, document={"a": 3})
        assert UpdateOp.from_dict(op.to_dict()) == op
        op2 = UpdateOp(op="add_keyword", object=1, keyword="z", frequency=2)
        assert UpdateOp.from_dict(op2.to_dict()) == op2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"op": "defragment"},
            {"op": "insert", "object": 1},  # empty document
            {"op": "delete"},  # no object
            {"op": "add_keyword", "object": 1},  # no keyword
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            UpdateOp(**kwargs)

    def test_touched_keywords(self):
        assert UpdateOp(
            op="insert", object=1, document=["a", "b"]
        ).touched_keywords() == ("a", "b")
        assert UpdateOp(
            op="add_keyword", object=1, keyword="z"
        ).touched_keywords() == ("z",)
        assert UpdateOp(op="rebuild").touched_keywords() == ()

    def test_apply_inserts_and_deletes(self, grid, dataset):
        kspin = KSpin(
            grid, dataset, oracle=DijkstraOracle(grid),
            lower_bounder=AltLowerBounder(grid, num_landmarks=4), rho=3,
        )
        occupied = set(dataset.objects())
        free = next(v for v in grid.vertices() if v not in occupied)
        summary = kspin.apply(
            UpdateOp(op="insert", object=free, document=["kw0"])
        )
        assert summary["applied"] == "insert"
        assert kspin.index.has_keyword(free, "kw0")
        assert kspin.apply(UpdateOp(op="delete", object=free))["applied"] == "delete"
        assert not kspin.index.has_keyword(free, "kw0")


# ----------------------------------------------------------------------
# QueryResult and merging
# ----------------------------------------------------------------------
class TestQueryResult:
    def test_pairs_and_dict_round_trip(self):
        result = QueryResult(
            hits=hits_from_pairs("bknn", [(3, 1.5), (7, 2.0)]),
            stats={"iterations": 4},
            cached=True,
            worker="worker-1",
        )
        assert result.pairs() == [(3, 1.5), (7, 2.0)]
        payload = result.to_dict()
        assert payload["results"] == [[3, 1.5], [7, 2.0]]
        assert QueryResult.from_dict(payload) == result

    def test_merge_dedups_keeping_min_score(self):
        left = QueryResult(hits=(Hit(1, 2.0, 2.0), Hit(2, 3.0, 3.0)))
        right = QueryResult(hits=(Hit(1, 1.0, 1.0), Hit(3, 2.5, 2.5)))
        merged = merge_results([left, right], k=2)
        assert merged.pairs() == [(1, 1.0), (3, 2.5)]

    def test_merge_sums_stats_and_joins_workers(self):
        left = QueryResult(hits=(), stats={"iterations": 2}, worker="w0")
        right = QueryResult(hits=(), stats={"iterations": 3}, worker="w1")
        merged = merge_results([left, right], k=5)
        assert merged.stats["iterations"] == 5
        assert merged.worker == "w0,w1"


# ----------------------------------------------------------------------
# Engine interchangeability: one Query, every engine
# ----------------------------------------------------------------------
class TestEveryEngineSpeaksTheApi:
    def test_all_engines_agree_on_bknn(self, grid, dataset, kspin):
        keywords = popular_keywords(dataset, 2)
        engines = [
            kspin,
            Engine(kspin, cache_size=0),
            GTreeSpatialKeyword(grid, dataset, leaf_size=8),
            Road(grid, dataset, leaf_size=16),
            FsFbs(grid, dataset, frequency_threshold=4),
            NetworkExpansion(grid, dataset),
        ]
        for mode in ("or", "and"):
            query = Query(vertex=5, keywords=tuple(keywords), k=4, mode=mode)
            answers = [engine.execute(query) for engine in engines]
            for engine, answer in zip(engines, answers):
                assert isinstance(answer, QueryResult), engine
                assert results_equivalent(
                    answer.pairs(), answers[0].pairs()
                ), (engine, mode)

    def test_topk_engines_agree(self, grid, dataset, kspin):
        keywords = popular_keywords(dataset, 2)
        query = Query(vertex=5, keywords=tuple(keywords), k=4, kind="topk")
        engines = [
            kspin,
            Engine(kspin, cache_size=0),
            GTreeSpatialKeyword(grid, dataset, leaf_size=8),
            Road(grid, dataset, leaf_size=16),
            NetworkExpansion(grid, dataset),
        ]
        answers = [engine.execute(query) for engine in engines]
        for engine, answer in zip(engines, answers):
            assert results_equivalent(answer.pairs(), answers[0].pairs()), engine

    def test_fsfbs_rejects_topk(self, grid, dataset):
        fsfbs = FsFbs(grid, dataset, frequency_threshold=4)
        with pytest.raises(UnsupportedQueryError):
            fsfbs.execute(Query(vertex=0, keywords=("kw0",), kind="topk"))

    def test_every_engine_rejects_conjunctive_topk(self, grid, dataset, kspin):
        query_kwargs = {"vertex": 0, "keywords": ("kw0",), "kind": "topk",
                        "mode": "and"}
        for engine in (kspin, Engine(kspin, cache_size=0),
                       NetworkExpansion(grid, dataset)):
            with pytest.raises(UnsupportedQueryError):
                engine.execute(Query(**query_kwargs))


# ----------------------------------------------------------------------
# One way in: every engine answers the protocol, and nothing else
# ----------------------------------------------------------------------
def engine_classes():
    """Every class in ``repro`` defining both ``execute`` and
    ``execute_many`` — found by walking the package, not from a list."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and not getattr(cls, "_is_protocol", False)
                and {"execute", "execute_many"} <= set(vars(cls))
            ):
                found[cls.__qualname__] = cls
    return sorted(found.values(), key=lambda cls: cls.__name__)


ENGINES = engine_classes()


def test_engine_walk_finds_every_engine():
    assert {cls.__name__ for cls in ENGINES} >= {
        "KSpin", "Engine", "ClusterCoordinator",
        "NetworkExpansion", "FsFbs", "GTreeSpatialKeyword", "Road",
    }


@pytest.mark.parametrize("engine_class", ENGINES, ids=lambda c: c.__name__)
def test_engine_matches_the_protocol(engine_class):
    """``execute(query)``, ``execute_many(queries)`` and, where present,
    ``apply(op)`` take the protocol's parameters under the protocol's
    names; anything an engine adds has a default."""
    protocol = UpdatableEngine if hasattr(engine_class, "apply") else QueryEngine
    for name in ("execute", "execute_many", "apply"):
        if not hasattr(engine_class, name):
            continue
        expected = list(inspect.signature(getattr(protocol, name)).parameters)
        method = getattr(engine_class, name)
        params = list(inspect.signature(method).parameters.values())
        assert [p.name for p in params[: len(expected)]] == expected, method
        extras = params[len(expected):]
        assert all(
            p.default is not inspect.Parameter.empty
            or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
            for p in extras
        ), (method, extras)


@pytest.mark.parametrize("engine_class", ENGINES, ids=lambda c: c.__name__)
def test_engine_has_no_positional_query_method(engine_class):
    for name in ("bknn", "top_k", "knn"):
        assert not hasattr(engine_class, name), (engine_class, name)
