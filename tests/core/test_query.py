"""Unit tests for query validation and helpers."""

import pickle

import pytest

from repro.core.errors import QueryValidationError
from repro.core.query import DKTGQuery, KTGQuery

from tests.conftest import make_random_attributed_graph


class TestKTGQueryValidation:
    def test_minimal_valid(self):
        query = KTGQuery(keywords=("a",))
        assert query.group_size == 3
        assert query.tenuity == 2
        assert query.top_n == 3

    def test_keywords_coerced_to_tuple(self):
        query = KTGQuery(keywords=["a", "b"])
        assert query.keywords == ("a", "b")

    def test_empty_keywords_rejected(self):
        with pytest.raises(QueryValidationError, match="must not be empty"):
            KTGQuery(keywords=())

    def test_blank_keyword_rejected(self):
        with pytest.raises(QueryValidationError):
            KTGQuery(keywords=("a", ""))

    def test_non_string_keyword_rejected(self):
        with pytest.raises(QueryValidationError):
            KTGQuery(keywords=("a", 3))

    @pytest.mark.parametrize("p", [0, -1])
    def test_bad_group_size_rejected(self, p):
        with pytest.raises(QueryValidationError, match="group size"):
            KTGQuery(keywords=("a",), group_size=p)

    def test_negative_tenuity_rejected(self):
        with pytest.raises(QueryValidationError, match="tenuity"):
            KTGQuery(keywords=("a",), tenuity=-1)

    def test_zero_tenuity_allowed(self):
        assert KTGQuery(keywords=("a",), tenuity=0).tenuity == 0

    def test_bad_top_n_rejected(self):
        with pytest.raises(QueryValidationError, match="top_n"):
            KTGQuery(keywords=("a",), top_n=0)

    def test_queries_are_hashable_values(self):
        a = KTGQuery(keywords=("a", "b"), group_size=3, tenuity=1, top_n=2)
        b = KTGQuery(keywords=("a", "b"), group_size=3, tenuity=1, top_n=2)
        assert a == b
        assert hash(a) == hash(b)


class TestKTGQueryHelpers:
    def test_keyword_set(self):
        query = KTGQuery(keywords=("a", "b", "a"))
        assert query.keyword_set == frozenset({"a", "b"})

    def test_with_replaces_fields(self):
        query = KTGQuery(keywords=("a",), group_size=3)
        changed = query.with_(group_size=5)
        assert changed.group_size == 5
        assert query.group_size == 3

    def test_with_validates(self):
        query = KTGQuery(keywords=("a",))
        with pytest.raises(QueryValidationError):
            query.with_(group_size=0)

    def test_describe(self):
        query = KTGQuery(keywords=("a", "b"), group_size=4, tenuity=1, top_n=2)
        text = query.describe()
        assert "p=4" in text and "k=1" in text and "N=2" in text

    def test_describe_with_anchors(self):
        query = KTGQuery(keywords=("a",), excluded_anchors=(3, 7))
        assert "anchors=[3, 7]" in query.describe()


class TestDKTGQuery:
    def test_defaults(self):
        query = DKTGQuery(keywords=("a",))
        assert query.gamma == 0.5

    @pytest.mark.parametrize("gamma", [-0.1, 1.1])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(QueryValidationError, match="gamma"):
            DKTGQuery(keywords=("a",), gamma=gamma)

    def test_base_query_strips_diversification(self):
        query = DKTGQuery(keywords=("a",), group_size=4, gamma=0.3)
        base = query.base_query()
        assert type(base) is KTGQuery
        assert base.group_size == 4

    def test_with_preserves_type(self):
        query = DKTGQuery(keywords=("a",), gamma=0.25)
        changed = query.with_(top_n=1)
        assert isinstance(changed, DKTGQuery)
        assert changed.gamma == 0.25

    def test_describe_mentions_gamma(self):
        assert "gamma=0.5" in DKTGQuery(keywords=("a",)).describe()
        assert DKTGQuery(keywords=("a",)).describe().startswith("DKTG<")

    def test_inherits_ktg_validation(self):
        with pytest.raises(QueryValidationError):
            DKTGQuery(keywords=(), gamma=0.5)


class TestCachedContext:
    """``KTGQuery.cached_context`` memoises per (graph, version, keywords)."""

    KEYWORDS = ("kw000", "kw001")

    @pytest.fixture()
    def graph(self):
        return make_random_attributed_graph(num_vertices=40, seed=11)

    def test_memo_hit_same_graph_version(self, graph):
        query = KTGQuery(keywords=self.KEYWORDS)
        first = query.cached_context(graph)
        assert query.cached_context(graph) is first

    def test_memo_miss_on_version_bump(self, graph):
        query = KTGQuery(keywords=self.KEYWORDS)
        first = query.cached_context(graph)
        other = next(
            v for v in range(1, graph.num_vertices) if v not in graph.neighbors(0)
        )
        graph.add_edge(0, other)
        assert query.cached_context(graph) is not first

    def test_memo_not_pickled(self, graph):
        query = KTGQuery(keywords=self.KEYWORDS)
        keep = query.cached_context(graph)
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query
        assert not hasattr(clone, "__dict__")
        assert keep is not None


class TestSlottedQueries:
    """Queries are frozen, slotted values: no per-instance ``__dict__``,
    and pickling, ``with_``/``replace``, hashing and equality behave as
    they did for plain frozen dataclasses."""

    KTG = KTGQuery(
        keywords=("a", "b"), group_size=4, tenuity=1, top_n=2, excluded_anchors=(3, 5)
    )
    DKTG = DKTGQuery(keywords=("a", "b"), group_size=4, tenuity=1, top_n=2, gamma=0.25)

    @pytest.mark.parametrize("query", [KTG, DKTG], ids=["ktg", "dktg"])
    def test_no_instance_dict(self, query):
        assert not hasattr(query, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(query, "extra", 1)

    @pytest.mark.parametrize("query", [KTG, DKTG], ids=["ktg", "dktg"])
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, query, protocol):
        clone = pickle.loads(pickle.dumps(query, protocol=protocol))
        assert type(clone) is type(query)
        assert clone == query
        assert hash(clone) == hash(query)
        assert clone.describe() == query.describe()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            self.KTG.top_n = 5  # type: ignore[misc]
        with pytest.raises(AttributeError):
            self.DKTG.gamma = 0.1  # type: ignore[misc]

    def test_with_and_replace(self):
        from dataclasses import replace

        assert self.KTG.with_(top_n=7) == replace(self.KTG, top_n=7)
        changed = self.DKTG.with_(gamma=0.75, tenuity=3)
        assert isinstance(changed, DKTGQuery)
        assert (changed.gamma, changed.tenuity) == (0.75, 3)
        assert changed.keywords == self.DKTG.keywords
        with pytest.raises(QueryValidationError):
            self.DKTG.with_(gamma=2.0)

    def test_base_query(self):
        base = self.DKTG.base_query()
        assert type(base) is KTGQuery
        assert base == KTGQuery(keywords=("a", "b"), group_size=4, tenuity=1, top_n=2)

    def test_hash_and_equality_by_value(self):
        twin = KTGQuery(
            keywords=["a", "b"], group_size=4, tenuity=1, top_n=2, excluded_anchors=[3, 5]
        )
        assert twin == self.KTG and hash(twin) == hash(self.KTG)
        assert len({self.KTG, twin, self.KTG.with_(top_n=3)}) == 2
        # A DKTG query never equals its KTG base (dataclass eq compares
        # classes), so both can share one cache without colliding.
        assert self.DKTG != self.DKTG.base_query()
