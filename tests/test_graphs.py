import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxeterkit.cyclotomic import real_cos_pi_over
from coxeterkit.errors import ValidationError
from coxeterkit.graphs import (
    INFINITY,
    CoxeterGraph,
    CoxeterMatrix,
    connected_components,
    graph_from_matrix,
    graph_to_json,
    gram_matrix,
    matrix_from_graph,
    parse_graph_json,
    subgraph,
)


def test_graph_from_matrix_rank_two():
    g = graph_from_matrix(CoxeterMatrix([[1, 3], [3, 1]]))
    assert g.edges() == [(0, 1, 3)]
    g2 = graph_from_matrix(CoxeterMatrix([[1, 2], [2, 1]]))
    assert g2.edges() == []


def test_graph_from_symmetric_group_matrix():
    n = 5
    entries = [
        [1 if i == j else (3 if abs(i - j) == 1 else 2) for j in range(n)]
        for i in range(n)
    ]
    g = graph_from_matrix(CoxeterMatrix(entries))
    assert g.edges() == [(i, i + 1, 3) for i in range(n - 1)]


def test_matrix_validation():
    with pytest.raises(ValidationError):
        CoxeterMatrix([[1, 3], [4, 1]])  # asymmetric
    with pytest.raises(ValidationError):
        CoxeterMatrix([[2, 3], [3, 1]])  # bad diagonal
    with pytest.raises(ValidationError):
        CoxeterMatrix([[1, 1], [1, 1]])  # off-diagonal < 2


def test_graph_validation():
    with pytest.raises(ValidationError):
        CoxeterGraph(2, [(0, 0, 3)])
    with pytest.raises(ValidationError):
        CoxeterGraph(2, [(0, 5, 3)])
    with pytest.raises(ValidationError):
        CoxeterGraph(2, [(0, 1, 1)])
    with pytest.raises(ValidationError):
        CoxeterGraph(3, [(0, 1, 3), (1, 0, 3)])  # duplicate


random_graph = st.builds(
    lambda n, picks: CoxeterGraph(
        n,
        {
            (i, j): m
            for (i, j), m in zip(
                [(i, j) for i in range(n) for j in range(i + 1, n)], picks
            )
            if m != 2
        },
    ),
    st.integers(min_value=1, max_value=6),
    st.lists(st.sampled_from([2, 2, 2, 3, 3, 4, 5, 6, INFINITY]), min_size=15, max_size=15),
)


@settings(max_examples=60, deadline=None)
@given(random_graph)
def test_matrix_graph_roundtrip(g):
    assert graph_from_matrix(matrix_from_graph(g)) == g


@settings(max_examples=40, deadline=None)
@given(random_graph)
def test_gram_symmetric_unit_diagonal(g):
    gm = gram_matrix(g)
    for i in range(g.n):
        assert gm.entries[i][i] == Fraction(1)
        for j in range(g.n):
            assert gm.entries[i][j] == gm.entries[j][i]


def test_gram_examples():
    a2 = gram_matrix(CoxeterGraph(2, [(0, 1, 3)]))
    assert a2.entries[0][1] == Fraction(-1, 2)
    b2 = gram_matrix(CoxeterGraph(2, [(0, 1, 4)]))
    assert b2.entries[0][1] == -real_cos_pi_over(4)
    aff = gram_matrix(CoxeterGraph(2, [(0, 1, INFINITY)]))
    assert aff.entries[0][1] == Fraction(-1)
    assert aff.determinant() == 0


def test_connected_components():
    g = CoxeterGraph(4, [(0, 1, 3), (2, 3, 4)])
    comps = connected_components(g)
    assert len(comps) == 2
    (c1, v1), (c2, v2) = comps
    assert v1 == (0, 1) and c1.edges() == [(0, 1, 3)]
    assert v2 == (2, 3) and c2.edges() == [(0, 1, 4)]
    d4 = CoxeterGraph(4, [(0, 2, 3), (1, 2, 3), (2, 3, 3)])
    assert len(connected_components(d4)) == 1
    edgeless = CoxeterGraph(3)
    assert len(connected_components(edgeless)) == 3


def test_neighbors_and_degree_from_the_adjacency():
    g = CoxeterGraph(5, [(3, 1, 3), (1, 0, 4), (1, 4, 5)])
    assert [g.neighbors(v) for v in range(5)] == [[1], [0, 3, 4], [], [1], [1]]
    assert [g.degree(v) for v in range(5)] == [1, 3, 0, 1, 1]
    g.neighbors(1).append(2)  # a fresh list each call
    assert g.neighbors(1) == [0, 3, 4]
    # built adjacency is not part of equality
    assert g == CoxeterGraph(5, [(0, 1, 4), (1, 3, 3), (1, 4, 5)])
    comp, vertices = connected_components(g)[0]
    assert vertices == (0, 1, 3, 4) and comp.neighbors(1) == [0, 2, 3]
    assert comp == CoxeterGraph(4, [(0, 1, 4), (1, 2, 3), (1, 3, 5)])


@pytest.mark.parametrize("seed", range(30))
def test_adjacency_rows_are_increasing_for_any_edge_order(seed):
    """Edges given in a shuffled order, each pair either way round, as
    triples and as a dict: every row lists its neighbours increasing."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(1, n * (n - 1) // 2))
    edges = [(j, i, m) if rng.random() < 0.5 else (i, j, m)
             for i, j in pairs for m in [rng.choice([3, 4, 5, 7, INFINITY])]]
    for g in (CoxeterGraph(n, edges), CoxeterGraph(n, {(i, j): m for i, j, m in reversed(edges)})):
        adj = g._adjacency()
        assert [list(row) for row in adj] == [[u for u in range(n) if g.label(v, u) not in (1, 2)] for v in range(n)]
        assert all(row[u] == g.label(v, u) for v, row in enumerate(adj) for u in row)


def test_subgraph_operations():
    b3 = CoxeterGraph(3, [(0, 1, 4), (1, 2, 3)])
    a2 = subgraph(b3, remove_vertices=[0])
    assert a2.n == 2 and a2.edges() == [(0, 1, 3)]
    lowered = subgraph(b3, lower_labels={(0, 1): 3})
    assert lowered.label(0, 1) == 3
    removed_edge = subgraph(b3, lower_labels={(0, 1): 2})
    assert removed_edge.label(0, 1) == 2
    with pytest.raises(ValidationError):
        subgraph(b3, lower_labels={(1, 2): 5})  # label increase
    with pytest.raises(ValidationError):
        subgraph(b3, remove_vertices=[7])
    inf_edge = CoxeterGraph(2, [(0, 1, INFINITY)])
    assert subgraph(inf_edge, lower_labels={(0, 1): 17}).label(0, 1) == 17


@pytest.mark.parametrize("v", [True, False, 1.0])
def test_subgraph_vertices_are_exact_ints(v):
    """A bool or float is not a vertex, as in ``CoxeterGraph``: True used to
    remove vertex 1, and (True, 2) to lower the edge (1, 2)."""
    b3 = CoxeterGraph(3, [(0, 1, 4), (1, 2, 3)])
    with pytest.raises(ValidationError, match=f"unknown vertex {v!r}"):
        subgraph(b3, remove_vertices=[v])
    with pytest.raises(ValidationError, match=re.escape(f"unknown edge ({v!r}, 2)")):
        subgraph(b3, lower_labels={(v, 2): 2})
    with pytest.raises(ValidationError, match=re.escape(f"unknown edge (2, {v!r})")):
        subgraph(b3, lower_labels={(2, v): 2})


def test_graph_json_roundtrip():
    g = parse_graph_json('{"n": 4, "edges": [[0,1,3],[1,2,3],[2,3,4]]}')
    assert g.n == 4 and g.label(2, 3) == 4
    assert parse_graph_json(graph_to_json(g)) == g
    inf = parse_graph_json('{"n": 2, "edges": [[0,1,0]]}')
    assert inf.label(0, 1) is INFINITY
    assert parse_graph_json(graph_to_json(inf)) == inf


def test_graph_json_errors():
    with pytest.raises(ValidationError) as err:
        parse_graph_json('{"n": 2, "edges": [[0,1,')
    assert "line" in str(err.value)
    with pytest.raises(ValidationError):
        parse_graph_json('{"n": 2, "edges": [[0,1,1]]}')
    with pytest.raises(ValidationError):
        parse_graph_json('{"n": 2, "edges": [[0,1,3],[1,0,3]]}')
    with pytest.raises(ValidationError):
        parse_graph_json('{"edges": []}')


@pytest.mark.parametrize("text, message", [
    ('{"n": 2, "edges": [[0, 1, false]]}', "got False"),
    ('{"n": 2, "edges": [[0, 1, true]]}', "got True"),
    ('{"n": 2, "edges": [[0, 1, 0.0]]}', "got 0.0"),
    ('{"n": 2, "edges": [[0, 1, 3.0]]}', "got 3.0"),
    ('{"n": true}', "got True"),
    ('{"n": 2.0}', "got 2.0"),
    ('{"n": 2, "edges": [[true, 1, 3]]}', r"got \(True, 1\)"),
    ('{"n": 2, "edges": [[0, 1.0, 3]]}', r"got \(0, 1.0\)"),
])
def test_graph_json_takes_only_ints_where_ints_are_required(text, message):
    """JSON false and 0.0 equal 0, the encoding of INFINITY, and true equals
    1; none of them is an int, so each is bad input."""
    with pytest.raises(ValidationError, match=message):
        parse_graph_json(text)


@pytest.mark.parametrize("text, message", [
    ('{"n": 2, "edges": [[0, 1, ' + "9" * 5000 + "]]}", "a number has too many digits"),
    ('{"n": 1' + "0" * 5000 + "}", "a number has too many digits"),
    ("[" * 100_000, "arrays or objects nested too deeply"),
    ('{"n": 2, "edges": ' + "[" * 100_000, "arrays or objects nested too deeply"),
], ids=["long-label", "long-n", "deep-array", "deep-edges"])
def test_graph_json_past_the_decoder_limits_is_bad_input(text, message):
    """An integer of more digits than int() converts and brackets nested
    past the recursion limit stop the decoder with ValueError and
    RecursionError, which are not JSONDecodeError: each is bad input."""
    with pytest.raises(ValidationError, match=f"^invalid JSON: {message}$"):
        parse_graph_json(text)


@pytest.mark.parametrize("edges", ["null", "5", '{"a": 1}', '"abc"', "true", "{}"])
def test_graph_json_edges_must_be_a_list(edges):
    """A null or numeric "edges" is not iterable, and a dict or string
    iterates its keys or characters: each is bad input, never a TypeError."""
    with pytest.raises(ValidationError, match='"edges" must be a list'):
        parse_graph_json(f'{{"n": 2, "edges": {edges}}}')


def test_graph_json_edges_may_be_absent_or_empty():
    for text in ('{"n": 3}', '{"n": 3, "edges": []}'):
        assert parse_graph_json(text) == CoxeterGraph(3)


@pytest.mark.parametrize("edges, message", [
    ([(1, 1, 3)], "self-loop at vertex 1"),
    ([(0, 3, 3)], "vertex out of range in edge (0, 3)"),
    ([(3, 0, 3)], "vertex out of range in edge (3, 0)"),
    ([(-1, 2, 3)], "vertex out of range in edge (-1, 2)"),
    ([(0, 1, 3), (1, 0, 3)], "duplicate edge (0, 1)"),
    ([(0, 2, 2), (2, 0, 2)], "duplicate edge (0, 2)"),
    ([(1, 2, 2), (2, 1, 4)], "duplicate edge (1, 2)"),
    ([(0, "1", 3)], "vertex indices must be integers, got (0, '1')"),
    ([(0, 1, 1)], "bond label must be an integer >= 2 or INFINITY, got 1"),
    ([(0, 1, float("inf"))], "bond label must be an integer >= 2 or INFINITY, got inf"),
    # the checks in order: integers, self-loop, range, duplicate, label
    ([(5, 5, 1)], "self-loop at vertex 5"),
    ([(0, 5, 1)], "vertex out of range in edge (0, 5)"),
    ([(0, 1, 3), (1, 0, 1)], "duplicate edge (0, 1)"),
    ([(1.0, 1, 1)], "vertex indices must be integers, got (1.0, 1)"),
])
def test_graph_edges_are_checked_in_order_with_one_message_each(edges, message):
    """Every check of the constructor, on an edge list and on the same edges
    as a dict: the first failing check names the edge."""
    for given in (edges, {(i, j): m for i, j, m in edges}):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            CoxeterGraph(3, given)


@pytest.mark.parametrize("edge", [(0, 1), (5,), 5, None, (0, 1, 3, 9), [0, 1, 3, 4]], ids=repr)
def test_graph_edges_must_be_triples(edge):
    """A pair, a bare int or a quadruple is bad input, never an IndexError or
    TypeError, and a quadruple is not cut to its first three entries."""
    with pytest.raises(ValidationError, match=re.escape(f"each edge must be an (i, j, m) triple, got {edge!r}")):
        CoxeterGraph(3, [(1, 2, 3), edge])


@pytest.mark.parametrize("key", [5, (0, 1, 2), (0,)], ids=repr)
def test_graph_dict_keys_must_be_pairs(key):
    """A dict key that is not a pair is bad input, named with its bond, never
    a TypeError or ValueError from unpacking it."""
    with pytest.raises(ValidationError, match=re.escape(f"each edge must be an (i, j, m) triple, got {(key, 3)!r}")):
        CoxeterGraph(3, {(1, 2): 3, key: 3})


@pytest.mark.parametrize("v", [-1, 3, 7, True, 1.0, "0"], ids=repr)
def test_graph_vertex_queries_take_only_its_vertices(v):
    """neighbors, degree and label answer only for a vertex 0..n-1: -1 does
    not wrap to the last vertex, and (0, 7) on 3 vertices is no bond 2."""
    g = CoxeterGraph(3, [(0, 1, 3), (1, 2, 4)])
    for query in (lambda: g.neighbors(v), lambda: g.degree(v), lambda: g.label(0, v),
                  lambda: g.label(v, 0), lambda: g.label(v, v)):
        with pytest.raises(ValidationError, match=re.escape(f"unknown vertex {v!r}")):
            query()
    assert [g.neighbors(u) for u in range(3)] == [[1], [0, 2], [1]]
    assert [g.degree(u) for u in range(3)] == [1, 2, 1]
    assert [[g.label(a, b) for b in range(3)] for a in range(3)] == [[1, 3, 2], [3, 1, 4], [2, 4, 1]]


def test_graph_takes_only_ints_where_ints_are_required():
    for n, edges in [(True, ()), (2, [(False, 1, 3)]), (2, [(0, 1, True)]), (2, [(0, 1, 3.0)])]:
        with pytest.raises(ValidationError):
            CoxeterGraph(n, edges)


@pytest.mark.parametrize("edges", [None, 5, 2.5], ids=repr)
def test_graph_edges_must_be_a_collection(edges):
    """An edge argument that cannot be iterated is bad input, not a TypeError."""
    message = f"edges must hold (i, j, m) triples, got {edges!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        CoxeterGraph(3, edges)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"lower_labels": [(0, 1)]}, "lower_labels must map edges (i, j) to labels, got [(0, 1)]"),
        ({"lower_labels": ((0, 1), 2)}, "lower_labels must map edges (i, j) to labels, got ((0, 1), 2)"),
        ({"lower_labels": {5: 2}}, "unknown edge 5"),
        ({"lower_labels": {(0, 1, 2): 2}}, "unknown edge (0, 1, 2)"),
        ({"remove_vertices": 5}, "remove_vertices must hold vertices, got 5"),
        ({"remove_vertices": None}, "remove_vertices must hold vertices, got None"),
    ],
    ids=["edge-list", "edge-tuple", "int-key", "triple-key", "int-vertices", "none-vertices"],
)
def test_subgraph_arguments_of_the_wrong_shape_are_bad_input(kwargs, message):
    """Neither an AttributeError from a list of edges nor a TypeError from a
    bare vertex or an edge key that is no pair."""
    b3 = CoxeterGraph(3, [(0, 1, 4), (1, 2, 3)])
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        subgraph(b3, **kwargs)


@pytest.mark.parametrize("one", [1.0, True, Fraction(1)], ids=repr)
def test_matrix_diagonal_is_an_exact_int(one):
    """The diagonal takes only the int 1, as a graph's labels take only ints."""
    with pytest.raises(ValidationError, match="^diagonal entry at 1 must be 1$"):
        CoxeterMatrix([[1, 3], [3, one]])
    with pytest.raises(ValidationError):
        CoxeterGraph(2, [(0, 1, one)])


@pytest.mark.parametrize("entries", [5, None, [5], [[1, 3], 7]], ids=repr)
def test_matrix_of_rows_that_are_not_iterable_is_bad_input(entries):
    """A ValidationError, not the TypeError of iterating a number or None."""
    with pytest.raises(ValidationError, match="^Coxeter matrix must be an iterable of rows$"):
        CoxeterMatrix(entries)
