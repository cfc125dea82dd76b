import hashlib
import importlib.util
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coxeterkit.certify as certify_module
from coxeterkit.catalog import (
    VERTEX_GUARD,
    Witness,
    _match_connected,
    affine_catalog,
    catalog_graph,
    classification_catalog,
    is_positive_definite,
)
from coxeterkit.classify import (
    TypeLabel,
    canonical_label,
    classify,
    coxeter_group_order,
    parse_type_label,
)
from coxeterkit.cyclotomic import real_cos_pi_over
from coxeterkit.errors import GuardError, InternalInconsistencyError, UnsupportedTypeError, ValidationError
from coxeterkit.graphs import (
    INFINITY,
    CoxeterGraph,
    connected_components,
    gram_entry,
    gram_matrix,
    induced_parts,
    parse_graph_json,
    subgraph,
)
from coxeterkit.linalg import Matrix, is_zero_scalar, sign
from test_oracles import connected_parts, dense_leading_minors


def test_type_label_validation():
    TypeLabel("A", 1)
    TypeLabel("D", 4)
    TypeLabel("I2", 2, 5)
    with pytest.raises(ValidationError):
        TypeLabel("D", 3)
    with pytest.raises(ValidationError):
        TypeLabel("E", 5)
    with pytest.raises(ValidationError):
        TypeLabel("A", 2, 5)
    with pytest.raises(ValidationError):
        TypeLabel("I2", 2, 2)


@pytest.mark.parametrize("family, rank", [
    ("A", 0), ("B", 0), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("H", 2), ("H", 5), ("I2", 1), ("I2", 3),
])
def test_type_label_rejects_the_ranks_next_to_its_family(family, rank):
    """Each family tests only its own rank; the ranks on both sides of the
    valid ones are rejected, with one message."""
    with pytest.raises(ValidationError, match=f"^invalid rank {rank} for family {family}$"):
        TypeLabel(family, rank, 5 if family == "I2" else None)


@pytest.mark.parametrize("rank", [2.5, 2.0, True, False, "2"], ids=repr)
def test_type_label_rank_is_an_exact_int(rank):
    """A float or bool rank would print as ``A2.5`` or ``ATrue`` and break
    the order formulas; it is bad input, like an out-of-range rank."""
    with pytest.raises(ValidationError, match=f"^invalid rank {rank} for family A$"):
        TypeLabel("A", rank)


def test_type_label_accepts_every_rank_of_its_family():
    for family, ranks in {"A": [1, 60], "B": [1, 60], "D": [4, 60], "E": [6, 7, 8], "F": [4], "H": [3, 4]}.items():
        for rank in ranks:
            assert tuple(TypeLabel(family, rank)) == (family, rank, None)
    assert tuple(TypeLabel("I2", 2, 3)) == ("I2", 2, 3)
    with pytest.raises(ValidationError, match="^unknown family 'G'$"):
        TypeLabel("G", 2)


def test_parse_type_label():
    assert parse_type_label("A4") == TypeLabel("A", 4)
    assert parse_type_label("I2(7)") == TypeLabel("I2", 2, 7)
    with pytest.raises(ValidationError):
        parse_type_label("Q3")
    with pytest.raises(ValidationError):
        parse_type_label("I2(x)")
    assert parse_type_label(" B03 ") == TypeLabel("B", 3)
    assert parse_type_label("I2(07)") == TypeLabel("I2", 2, 7)


@pytest.mark.parametrize("text", [
    "I2(1_0)", "I2(+7)", "I2( 7)", "A\u0663", "B\u00b2", "I2(\u0667)", "A+3", "A-1", "A 3",
    "A1_0", "I", "I2()", "", "A", "I2(2)", "A" + "1" * 5000, "I2(" + "9" * 5000 + ")",
], ids=lambda text: text if len(text) < 20 else f"{len(text)}-chars")
def test_type_strings_are_a_family_and_ascii_digits(text):
    """int() would take underscores, signs and non-ASCII digits; the parser
    takes ASCII digits only, and a number past int()'s digit limit is a bad
    type string too, never a bare ValueError."""
    with pytest.raises(ValidationError, match="bad type string"):
        parse_type_label(text)


def test_positive_definite_examples():
    a3 = catalog_graph(TypeLabel("A", 3))
    assert is_positive_definite(a3) == (True, None)
    triangle = CoxeterGraph(3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
    assert is_positive_definite(triangle) == (False, Witness("affine", 3, (0, 1, 2)))
    inf_edge = CoxeterGraph(2, [(0, 1, INFINITY)])
    assert is_positive_definite(inf_edge) == (False, Witness("affine", 2, (0, 1)))


@pytest.mark.parametrize("bonds", [(17, 19, 23), (37, 39, 40)], ids=str)
def test_positive_definite_on_a_triangle_of_large_bonds_answers_at_once(bonds):
    """The Gram matrix of these triangles lives at conductor 2 lcm(p, q, r)
    (up to 115440), where an exact minor takes seconds to minutes; the
    classifier settles them by 1/p + 1/q + 1/r <= 1."""
    p, q, r = bonds
    g = CoxeterGraph(3, [(0, 1, p), (1, 2, q), (0, 2, r)])
    start = time.perf_counter()
    result = is_positive_definite(g)
    assert time.perf_counter() - start < 1.0
    assert result == (False, Witness("hyperbolic", 3, (0, 1, 2)))


def test_classify_examples():
    path4 = CoxeterGraph(4, [(i, i + 1, 3) for i in range(3)])
    assert classify(path4).labels() == [TypeLabel("A", 4)]
    b3 = CoxeterGraph(3, [(0, 1, 4), (1, 2, 3)])
    assert classify(b3).labels() == [TypeLabel("B", 3)]
    fork = CoxeterGraph(6, [(0, 2, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)])
    assert classify(fork).labels() == [TypeLabel("D", 6)]


def test_classify_roundtrip_catalog():
    for t in classification_catalog(9, range(5, 13)):
        res = classify(catalog_graph(t))
        assert res.is_finite and res.labels() == [t], str(t)


def test_low_rank_coincidences():
    assert str(classify(CoxeterGraph(2, [(0, 1, 3)]))) == "A2"
    assert str(classify(CoxeterGraph(2, [(0, 1, 4)]))) == "B2"
    assert str(classify(CoxeterGraph(2, [(0, 1, 6)]))) == "I2(6)"
    assert str(classify(CoxeterGraph(2))) == "A1 + A1"


def test_canonical_label_collapses():
    assert canonical_label(TypeLabel("B", 1)) == TypeLabel("A", 1)
    assert canonical_label(TypeLabel("I2", 2, 3)) == TypeLabel("A", 2)
    assert canonical_label(TypeLabel("I2", 2, 4)) == TypeLabel("B", 2)
    assert canonical_label(TypeLabel("I2", 2, 6)) == TypeLabel("I2", 2, 6)
    assert canonical_label(TypeLabel("D", 4)) == TypeLabel("D", 4)
    for t in (TypeLabel("B", 1), TypeLabel("I2", 2, 3), TypeLabel("I2", 2, 4)):
        assert classify(catalog_graph(t)).labels() == [canonical_label(t)]


def test_classify_disconnected():
    g = CoxeterGraph(5, [(0, 1, 3), (2, 3, 4), (3, 4, 3)])
    res = classify(g)
    assert res.labels() == [TypeLabel("A", 2), TypeLabel("B", 3)]
    assert [c.vertices for c in res.components] == [(0, 1), (2, 3, 4)]


def test_affine_catalog_rejection():
    cat = affine_catalog(8)
    names = [name for name, _ in cat]
    assert "A~1" in names and "B~2=C~2" in names and "G~2" in names and "E~8" in names
    for name, g in cat:
        *proper, det = dense_leading_minors(gram_matrix(g))
        assert all(sign(x) > 0 for x in proper) and is_zero_scalar(det), name
        assert not classify(g).is_finite, name


EXCEPTIONAL_AFFINE = ["E~6", "E~7", "E~8", "F~4", "G~2"]


@pytest.mark.parametrize("max_rank, finite, affine", [
    (0, [], []),
    (1, ["A1"], ["A~1"]),
    (2, ["A1", "A2", "B2"] + [f"I2({m})" for m in range(5, 13)], ["A~1", "A~2", "B~2=C~2"]),
])
def test_catalogs_list_nothing_past_a_small_max_rank(max_rank, finite, affine):
    """No I2(m) below rank 2, no A~1 at subscript bound 0 and no B~2=C~2
    below 2; the exceptional affine graphs are listed whatever the bound."""
    assert [str(t) for t in classification_catalog(max_rank)] == finite
    assert [name for name, _ in affine_catalog(max_rank)] == affine + EXCEPTIONAL_AFFINE


def test_affine_examples():
    cat = dict(affine_catalog(8))
    g2 = cat["G~2"]
    assert sorted(m for _, _, m in g2.edges()) == [3, 6]
    b2 = cat["B~2=C~2"]
    assert sorted(m for _, _, m in b2.edges()) == [4, 4]
    d4 = cat["D~4"]
    degrees = sorted(d4.degree(v) for v in range(d4.n))
    assert degrees == [1, 1, 1, 1, 4]


def test_not_finite_witness_prefers_zero_determinant():
    """The witness is a minimal non-finite subgraph: affine (det = 0) where
    one is reached first, even inside a graph whose own determinant is not 0."""
    triangle = CoxeterGraph(3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
    w = classify(triangle).components[0].witness
    assert w == Witness("affine", 3, (0, 1, 2))
    assert str(w) == "affine subgraph on vertices 0,1,2"
    # the indefinite triangle of unbounded bonds shrinks to one affine bond
    res2 = classify(CoxeterGraph(3, [(0, 1, INFINITY), (1, 2, INFINITY), (0, 2, INFINITY)]))
    assert res2.components[0].witness == Witness("affine", 2, (1, 2))
    # the A~2 triangle with a pendant vertex: det != 0, the triangle is affine
    g = CoxeterGraph(4, [(0, 1, 3), (1, 2, 3), (0, 2, 3), (2, 3, 3)])
    assert str(classify(g)) == "NotFinite (affine subgraph on vertices 0,1,2)"
    assert gram_matrix(g).determinant() != 0
    # a Lannér path, and vertices named in the numbering of the whole graph
    g = CoxeterGraph(7, [(0, 1, 3), (2, 3, 5), (3, 4, 3), (4, 5, 4), (5, 6, 3)])
    assert str(classify(g)) == "A2 + NotFinite (hyperbolic subgraph on vertices 2,3,4,5)"
    minors = dense_leading_minors(gram_matrix(subgraph(g, remove_vertices=[0, 1, 6])))
    assert [sign(x) for x in minors] == [1, 1, 1, -1]


def test_group_orders():
    assert coxeter_group_order(TypeLabel("A", 3)) == 24
    assert coxeter_group_order(TypeLabel("B", 3)) == 48
    assert coxeter_group_order(TypeLabel("D", 4)) == 192
    assert coxeter_group_order(TypeLabel("I2", 2, 7)) == 14
    with pytest.raises(UnsupportedTypeError):
        coxeter_group_order(TypeLabel("E", 6))


def test_catalog_subgraph_closure_sample():
    for t in (TypeLabel("E", 8), TypeLabel("F", 4), TypeLabel("H", 4), TypeLabel("B", 5)):
        g = catalog_graph(t)
        for v in range(g.n):
            assert classify(subgraph(g, remove_vertices=[v])).is_finite, (t, v)
        for (i, j), m in g.labels.items():
            for new in range(2, m):
                assert classify(subgraph(g, lower_labels={(i, j): new})).is_finite


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(classification_catalog(7, [5, 7, 9])),
    st.randoms(use_true_random=False),
)
def test_classify_invariant_under_relabeling(t, rng):
    g = catalog_graph(t)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = CoxeterGraph(g.n, [(perm[i], perm[j], m) for i, j, m in g.edges()])
    assert classify(relabeled).labels() == [t]


# the label palette keeps every Gram conductor a divisor of 24, so the
# exact minors stay cheap even on dense graphs
random_graph = st.builds(
    lambda n, picks: CoxeterGraph(
        n,
        {
            pair: m
            for pair, m in zip(
                [(i, j) for i in range(n) for j in range(i + 1, n)], picks
            )
            if m != 2
        },
    ),
    st.integers(min_value=1, max_value=6),
    st.lists(
        st.sampled_from([2, 2, 2, 2, 3, 3, 3, 4, 6, INFINITY]),
        min_size=15,
        max_size=15,
    ),
)


@settings(max_examples=100, deadline=None)
@given(random_graph)
def test_structural_match_agrees_with_positivity_everywhere(g):
    """classify() raises if the two oracles ever disagree; they never should."""
    result = classify(g)
    for comp in result.components:
        assert (comp.label is None) == (comp.witness is not None)


def test_exotic_label_paths():
    """Paths that look almost like catalog members but are not."""
    cases = {
        ((0, 1, 3), (1, 2, 5), (2, 3, 3)): False,  # 5 in the middle
        ((0, 1, 5), (1, 2, 5)): False,             # two 5s
        ((0, 1, 4), (1, 2, 5)): False,             # 4 next to 5
        ((0, 1, 5), (1, 2, 3), (2, 3, 3), (3, 4, 3)): False,  # would-be H5
        ((0, 1, 7),): True,                        # I2(7)
        ((0, 1, 5), (1, 2, 3), (2, 3, 3)): True,   # H4
        ((0, 1, 3), (1, 2, 4), (2, 3, 3)): True,   # F4
        ((0, 1, 4), (1, 2, 3), (2, 3, 4)): False,  # two heavy ends
    }
    for edges, finite in cases.items():
        g = CoxeterGraph(max(max(i, j) for i, j, _ in edges) + 1, list(edges))
        assert classify(g).is_finite == finite, edges


def test_catalog_graph_examples():
    i27 = catalog_graph(TypeLabel("I2", 2, 7))
    assert i27.edges() == [(0, 1, 7)]
    f4 = catalog_graph(TypeLabel("F", 4))
    labels = [m for _, _, m in f4.edges()]
    assert sorted(labels) == [3, 3, 4]
    assert f4.label(1, 2) == 4  # the 4 sits on the middle edge
    e6 = catalog_graph(TypeLabel("E", 6))
    assert sorted(e6.degree(v) for v in range(6)) == [1, 1, 1, 2, 2, 3]


def test_classify_computes_the_minors_once_per_component(monkeypatch):
    """No dense minors: at most one sparse pivot pass per component, none for
    ranks 1, 2 and 3, whose checks are closed forms."""
    minors, passes = [], []
    original = certify_module._pivot_signs

    def counted(adj, vertices):
        passes.append(len(vertices))
        return original(adj, vertices)

    monkeypatch.setattr(Matrix, "determinant", lambda self: minors.append(self))
    monkeypatch.setattr(certify_module, "_pivot_signs", counted)
    # components: A2, the affine triangle, an indefinite path, A1, B3, the
    # Lannér path (5,3,4) on 4 vertices
    g = CoxeterGraph(
        16,
        [(0, 1, 3), (2, 3, 3), (3, 4, 3), (2, 4, 3), (5, 6, INFINITY), (6, 7, 5),
         (9, 10, 4), (10, 11, 3), (12, 13, 5), (13, 14, 3), (14, 15, 4)],
    )
    res = classify(g)
    assert str(res) == (
        "A2 + NotFinite (affine subgraph on vertices 2,3,4) + NotFinite (affine subgraph "
        "on vertices 5,6) + A1 + B3 + NotFinite (hyperbolic subgraph on vertices 12,13,14,15)"
    )
    assert minors == [] and passes == [3, 4]


@pytest.mark.parametrize("m", range(3, 61))
def test_rank_two_pivot_is_sin_squared(m):
    """classify checks an edge m by the closed form det = sin^2(pi/m) > 0; the
    cyclotomic pivot that the closed form replaces is that value, and
    positive, for every m here."""
    g = CoxeterGraph(2, [(0, 1, m)])
    one, det = dense_leading_minors(gram_matrix(g))
    assert one == 1 and det == 1 - real_cos_pi_over(m) ** 2 and sign(det) == 1
    assert certify_module.pivot_signs(g) == [1, 1]
    assert classify(g).is_finite


def test_classify_vertex_guard():
    path = CoxeterGraph(VERTEX_GUARD, [(i, i + 1, 3) for i in range(VERTEX_GUARD - 1)])
    assert classify(path).labels() == [TypeLabel("A", VERTEX_GUARD)]
    with pytest.raises(GuardError, match=f"{VERTEX_GUARD} vertices, got {VERTEX_GUARD + 1}"):
        classify(CoxeterGraph(VERTEX_GUARD + 1))


# -- the exact checks against references that share no code with them --------


def reference_row_signs(g):
    """The elimination of sparse Gram rows over the field, run on every
    graph: the reference for the division-free pivots of forests and of
    graphs with a cycle."""
    entry, rows = {}, {v: {v: 1} for v in range(g.n)}
    for (i, j), m in g.labels.items():
        if m not in entry:
            entry[m] = gram_entry(m)
        rows[i][j] = rows[j][i] = entry[m]
    signs = []
    while rows:
        v = min(rows, key=lambda u: (len(rows[u]), u))
        row = rows.pop(v)
        p = row.pop(v)
        signs.append(sign(p))
        if signs[-1] <= 0:
            break
        for u, c in row.items():
            f = c / p
            del rows[u][v]
            for w, d in row.items():
                rows[u][w] = rows[u].get(w, 0) - f * d
    return signs


def dense_minor_signs(g):
    """The pivot signs from the dense leading minors of g's Gram matrix with
    its vertices in elimination order.  The order is symbolic: fewest
    neighbours first, the least on ties, and each eliminated vertex joins
    its neighbours pairwise.  The k-th pivot is the ratio of the k-th and
    (k-1)-th minors, so up to the first non-positive one their signs agree."""
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    order = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        order.append(v)
        neighbours = adj.pop(v)
        for u in neighbours:
            adj[u] |= neighbours
            adj[u] -= {u, v}
    position = {v: k for k, v in enumerate(order)}
    renamed = CoxeterGraph(g.n, [(position[i], position[j], m) for i, j, m in g.edges()])
    signs = []
    for minor in dense_leading_minors(gram_matrix(renamed)):
        signs.append(sign(minor))
        if signs[-1] <= 0:
            break
    return signs


def neighbour_masks(g):
    """Entry v has bit u set for each neighbour u of v, read from the public API."""
    return [sum(1 << u for u in g.neighbors(v)) for v in range(g.n)]


def vertex_mask(vertices):
    return sum(1 << v for v in vertices)


def match_on(g, vertices):
    """``_match_connected`` of the part of g on ``vertices``."""
    return _match_connected(g._adjacency(), neighbour_masks(g), vertex_mask(vertices))


def match_graph(h):
    """``_match_connected`` of a whole graph h: the reference sweep's predicate."""
    return match_on(h, range(h.n))


def reference_minimal_rejected(g, match):
    """The sweep that builds a validated subgraph for each part of each
    deleted vertex, the parts found by the test's own ``connected_parts``:
    the reference for ``certify.minimal_rejected``, with ``match`` taking
    a renumbered graph."""
    part, sub = list(range(g.n)), g
    for v in range(g.n):
        if v in part:
            for comp in connected_parts(g, [u for u in part if u != v]):
                candidate = subgraph(g, remove_vertices=set(range(g.n)).difference(comp))
                if match(candidate) is None:
                    part, sub = comp, candidate
                    break
    return part, sub


def reference_classify(g) -> str:
    """str(classify(g)) from renumbered copies: each component and each
    candidate is built by ``subgraph()``, the sweep is
    ``reference_minimal_rejected`` and the certificate is the public
    ``certify`` of the renumbered witness."""
    out = []
    for vertices in connected_parts(g, range(g.n)):
        comp = subgraph(g, remove_vertices=set(range(g.n)).difference(vertices))
        fields = match_graph(comp)
        if fields is not None:
            out.append(str(TypeLabel(*fields)))
            continue
        part, sub = reference_minimal_rejected(comp, match_graph)
        kind = certify_module.certify(sub)
        out.append(f"NotFinite ({kind} subgraph on vertices {','.join(str(vertices[k]) for k in part)})")
    return " + ".join(out)


def spread_out(adj, vertices):
    """``adj`` restricted to ``vertices``, named by vertex: what the sweep
    hands on for a part of a renumbered graph, each entry in its order."""
    return {v: {vertices[j]: m for j, m in adj[k].items()} for k, v in enumerate(vertices)}


def relabelings(g):
    """g under every permutation of its vertices."""
    for perm in itertools.permutations(range(g.n)):
        yield CoxeterGraph(g.n, [(perm[i], perm[j], m) for i, j, m in g.edges()])


def spaced(g):
    """g on the vertices 1, 4, 7, ... of a graph with isolated vertices
    between them, and that vertex list: a component that is not 0..n-1."""
    vertices = [3 * k + 1 for k in range(g.n)]
    return CoxeterGraph(3 * g.n + 2, [(vertices[i], vertices[j], m) for i, j, m in g.edges()]), vertices


@pytest.mark.parametrize("t", classification_catalog(5), ids=str)
def test_match_connected_names_every_relabeling_of_a_catalog_graph(t):
    """The walks start from whichever end or neighbour the numbering gives."""
    for g in relabelings(catalog_graph(t)):
        assert match_on(g, range(g.n)) == t, g
        big, vertices = spaced(g)
        assert match_on(big, vertices) == t, g


SMALL_AFFINE_TREES = [(name, g) for name, g in affine_catalog(4) if len(g.labels) == g.n - 1 and g.n <= 7]


@pytest.mark.parametrize("g", [g for _, g in SMALL_AFFINE_TREES], ids=[name for name, _ in SMALL_AFFINE_TREES])
def test_match_connected_rejects_every_relabeling_of_an_affine_tree(g):
    for h in relabelings(g):
        assert match_on(h, range(h.n)) is None, h
        big, vertices = spaced(h)
        assert match_on(big, vertices) is None, h


@pytest.mark.parametrize("t", classification_catalog(8), ids=str)
def test_pivot_signs_of_catalog_graphs(t):
    g = catalog_graph(t)
    assert certify_module.pivot_signs(g) == dense_minor_signs(g) == reference_row_signs(g) == [1] * g.n


@pytest.mark.parametrize(
    "g", [g for _, g in affine_catalog(8) if len(g.labels) == g.n - 1],
    ids=[name for name, g in affine_catalog(8) if len(g.labels) == g.n - 1],
)
def test_pivot_signs_of_affine_trees(g):
    """Every proper leading minor positive, the determinant 0."""
    signs = certify_module.pivot_signs(g)
    assert signs == dense_minor_signs(g) == reference_row_signs(g) == [1] * (g.n - 1) + [0]


def random_forest(rng):
    """A forest on 1-12 vertices, numbered at random: each vertex after the
    first joins an earlier one with probability 0.8, by a bond drawn from
    3, 4, 5, 6, 7, 8 and INFINITY."""
    n = rng.randint(1, 12)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[k], perm[rng.randrange(k)], rng.choice([3, 4, 5, 6, 7, 8, INFINITY]))
             for k in range(1, n) if rng.random() < 0.8]
    return CoxeterGraph(n, edges)


@pytest.mark.parametrize("seed", range(150))
def test_forest_pivot_signs_match_the_field_elimination(seed):
    g = random_forest(random.Random(seed))
    signs = certify_module.pivot_signs(g)
    assert signs == reference_row_signs(g) == dense_minor_signs(g), g


@pytest.mark.parametrize("triangle", [(3, 3, 3), (5, 3, 3), (4, 4, 4), (INFINITY, 3, 3)])
def test_a_cycle_with_n_minus_1_edges_takes_the_row_elimination(triangle):
    """A triangle and an isolated vertex have n - 1 edges and no leaf to
    take after the isolated vertex: the forest recurrence hands over."""
    g = CoxeterGraph(4, [(0, 1, triangle[0]), (1, 2, triangle[1]), (0, 2, triangle[2])])
    assert certify_module._forest_signs(g._adjacency(), range(g.n)) is None
    assert certify_module.pivot_signs(g) == dense_minor_signs(g) == reference_row_signs(g)


def random_cyclic(rng):
    """A connected graph on 3-8 vertices, numbered at random, with at least
    one cycle: a random spanning tree and 1-3 more edges, each bond drawn
    from 3, 4, 5, 6, 7 and INFINITY (3 the likeliest)."""
    n = rng.randint(3, 8)
    perm = rng.sample(range(n), n)
    pairs = {tuple(sorted((perm[k], perm[rng.randrange(k)]))) for k in range(1, n)}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    pairs |= set(rng.sample(others, rng.randint(1, min(3, len(others)))))
    return CoxeterGraph(n, [(i, j, rng.choice([3, 3, 3, 4, 5, 6, 7, INFINITY])) for i, j in sorted(pairs)])


@pytest.mark.parametrize("seed", range(200))
def test_cycle_pivot_signs_match_the_field_elimination(seed):
    """The division-free rows of 2G against the field elimination of G's
    rows and the dense leading minors, on graphs that take ``_row_signs``."""
    g = random_cyclic(random.Random(seed))
    assert len(g.labels) >= g.n and len(connected_components(g)) == 1, g
    signs = certify_module.pivot_signs(g)
    assert signs == certify_module._row_signs(g._adjacency(), range(g.n)), g
    assert signs == reference_row_signs(g) == dense_minor_signs(g), g


@pytest.mark.parametrize("m", [*range(3, 41), INFINITY])
def test_match_connected_rejects_a_single_edge_exactly_at_infinity(m):
    """What ``minimal_rejected`` decides for a part of two vertices without
    the matcher: the bond m alone, on any two vertices of a larger graph."""
    g = CoxeterGraph(2, [(0, 1, m)])
    big, vertices = spaced(g)
    for h, vs in [(g, range(2)), (big, vertices)]:
        assert (match_on(h, vs) is None) == (m == INFINITY), m


FINITE_PIECES = [catalog_graph(t) for t in classification_catalog(8, [5, 8, 12])]
AFFINE_PIECES = [g for _, g in affine_catalog(7)]


def scan_shaped(seed):
    """A disjoint union of 2-3 pieces, 8-24 vertices in all, under a random
    permutation of the vertices.  Each piece is a catalog graph of rank
    1-8 or an affine graph of rank 2-8 with one extra vertex joined to it
    by a bond 3, 4 or 5: the shape of the graphs a classify scan reads."""
    rng = random.Random(seed)
    pieces = []
    while not 8 <= sum(p.n for p in pieces) <= 24:
        pieces = []
        for _ in range(rng.choice((2, 3))):
            affine = rng.random() < 0.5
            g = rng.choice(AFFINE_PIECES if affine else FINITE_PIECES)
            if affine:
                g = CoxeterGraph(g.n + 1, g.edges() + [(rng.randrange(g.n), g.n, rng.choice((3, 4, 5)))])
            pieces.append(g)
    n = sum(p.n for p in pieces)
    perm, offset, edges = rng.sample(range(n), n), 0, []
    for p in pieces:
        edges += [(perm[offset + i], perm[offset + j], m) for i, j, m in p.edges()]
        offset += p.n
    return CoxeterGraph(n, edges)


def with_scan_shaped_examples(test):
    """``test`` with the scan-shaped graphs of seeds 0-39 as explicit examples."""
    for seed in range(40):
        test = example(scan_shaped(seed))(test)
    return test


def test_scan_shaped_graphs_are_unions_of_8_to_24_vertices():
    sizes = []
    for seed in range(40):
        g = scan_shaped(seed)
        components = connected_components(g)
        assert 8 <= g.n <= 24 and 2 <= len(components) <= 3, g
        sizes.append(g.n)
    assert min(sizes) < 12 and max(sizes) > 18
    assert not all(classify(scan_shaped(seed)).is_finite for seed in range(40))


@settings(max_examples=200, deadline=None)
@given(random_graph)
@with_scan_shaped_examples
def test_minimal_rejected_matches_the_subgraph_sweep(g):
    adj, nbr = g._adjacency(), neighbour_masks(g)
    for comp, vertices in connected_components(g):
        if _match_connected(adj, nbr, vertex_mask(vertices)) is None:
            part, sub = certify_module.minimal_rejected(adj, nbr, vertex_mask(vertices), _match_connected)
            want_part, want_sub = reference_minimal_rejected(comp, match_graph)
            want_part = [vertices[k] for k in want_part]
            assert part == want_part and sub == spread_out(want_sub._adjacency(), want_part)
            assert list(sub) == part and all(list(sub[v]) == sorted(sub[v]) for v in part)


def test_minimal_rejected_takes_the_part_of_the_least_vertex():
    """Deleting vertex 0 leaves two rejected parts, the bonds {1,2} and {3,4}:
    the sweep moves into the one whose least vertex is least."""
    g = CoxeterGraph(5, [(0, 1, 3), (0, 3, 3), (1, 2, INFINITY), (3, 4, INFINITY)])
    part, sub = certify_module.minimal_rejected(g._adjacency(), neighbour_masks(g), vertex_mask(range(g.n)),
                                                _match_connected)
    want_part, want_sub = reference_minimal_rejected(g, match_graph)
    assert (part, sub) == (want_part, spread_out(want_sub._adjacency(), want_part))
    assert part == [1, 2] and want_sub == CoxeterGraph(2, [(0, 1, INFINITY)])
    assert sub == {1: {2: INFINITY}, 2: {1: INFINITY}}
    assert str(classify(g)) == "NotFinite (affine subgraph on vertices 1,2)"


@st.composite
def graph_and_vertices(draw):
    """A graph on up to 48 vertices, so that vertex masks pass the 30 bits of
    an int's first digit, with random edges, and an increasing vertex subset."""
    n = draw(st.integers(1, VERTEX_GUARD))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    keep = sorted(draw(st.sets(st.integers(0, n - 1))))
    return CoxeterGraph(n, {(i, j): 3 for i, j in pairs if i < j}), keep


def spread_48(edges, keep=range(VERTEX_GUARD)):
    return CoxeterGraph(VERTEX_GUARD, {(i, j): 3 for i, j in edges}), list(keep)


@settings(max_examples=300, deadline=None)
@given(graph_and_vertices())
@example(spread_48([(29, 30), (30, 47), (1, 45), (31, 32), (0, 29)]))
@example(spread_48([(k, k + 16) for k in range(32)], keep=range(1, VERTEX_GUARD, 2)))
@example(spread_48([]))
def test_mask_parts_are_the_induced_parts_in_order(case):
    """The flood fill over vertex masks gives the parts of ``induced_parts``,
    each as the mask of its sorted vertex list, in the order of their least vertex."""
    g, keep = case
    parts = certify_module._parts(neighbour_masks(g), vertex_mask(keep))
    want = induced_parts(g._adjacency(), keep)
    assert [certify_module._vertices(p) for p in parts] == want
    assert parts == [vertex_mask(vs) for vs in want]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << VERTEX_GUARD) - 1))
@example(0)
@example(1)
@example(1 << VERTEX_GUARD - 1)
@example((1 << VERTEX_GUARD) - 1)
def test_vertices_of_a_mask_are_its_set_bits_increasing(mask):
    assert certify_module._vertices(mask) == [v for v, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def test_classify_of_48_vertices_with_two_rejected_parts_equals_the_reference():
    """Two rejected parts, E~8 with a pendant bond 4 and the cycle A~6, among
    finite ones, on the 48 vertices of the guard in a random order."""
    e8_tilde = dict(affine_catalog(8))["E~8"]
    pieces = [
        CoxeterGraph(10, e8_tilde.edges() + [(8, 9, 4)]), dict(affine_catalog(6))["A~6"],
        *(catalog_graph(t) for t in [TypeLabel("E", 8), TypeLabel("D", 9), TypeLabel("B", 7),
                                     TypeLabel("H", 4), TypeLabel("I2", 2, 7), TypeLabel("A", 1)]),
    ]
    perm, offset, edges = random.Random(48).sample(range(VERTEX_GUARD), VERTEX_GUARD), 0, []
    for p in pieces:
        edges += [(perm[offset + i], perm[offset + j], m) for i, j, m in p.edges()]
        offset += p.n
    g = CoxeterGraph(offset, edges)
    result = classify(g)
    assert g.n == VERTEX_GUARD and len(result.components) == 8
    witnesses = [c.witness for c in result.components if c.witness is not None]
    assert len(witnesses) == 2 and max(max(w.vertices) for w in witnesses) > 30
    assert str(result) == reference_classify(g)


# bonds from every range the classifier treats apart: 3-6, the Lannér 4-5,
# the large dihedral bonds up to 100, and INFINITY
wide_graph = st.builds(
    lambda n, picks: CoxeterGraph(
        n, {pair: m for pair, m in zip(itertools.combinations(range(n), 2), picks) if m != 2}
    ),
    st.integers(min_value=2, max_value=7),
    st.lists(
        st.one_of(st.sampled_from([2, 2, 2, 2, 3, 3, 3, 4, 5, 6, INFINITY]), st.integers(7, 100)),
        min_size=21,
        max_size=21,
    ),
)


@settings(max_examples=300, deadline=None)
@given(wide_graph)
@with_scan_shaped_examples
def test_classify_equals_the_renumbered_reference(g):
    assert str(classify(g)) == reference_classify(g)


def test_rank_three_certificate_is_the_rational_criterion():
    """The cleared denominators of ``certify`` against 1/p + 1/q > 1/2 for
    a path and 1/p + 1/q + 1/r > 1 for a triangle, in Fractions; a finite
    graph has no certificate."""
    half, one = Fraction(1, 2), Fraction(1)
    cases = [([(0, 1, p), (1, 2, q)], Fraction(1, p) + Fraction(1, q), half)
             for p in range(3, 26) for q in range(3, 26)]
    cases += [([(0, 1, p), (1, 2, q), (0, 2, r)], Fraction(1, p) + Fraction(1, q) + Fraction(1, r), one)
              for p, q, r in itertools.product(range(3, 13), repeat=3)]
    for edges, total, bound in cases:
        g = CoxeterGraph(3, edges)
        if total > bound:
            with pytest.raises(InternalInconsistencyError, match=r"no exact certificate .* on \[0, 1, 2\]"):
                certify_module.certify(g)
        else:
            assert certify_module.certify(g) == ("affine" if total == bound else "hyperbolic"), edges


@pytest.mark.parametrize("g", [
    CoxeterGraph(4), CoxeterGraph(5, [(i, i + 1, 3) for i in range(4)]), CoxeterGraph(4, [(0, 1, 7), (1, 2, 3), (2, 3, 3)]),
], ids=["edgeless", "A5", "bond-7"])
def test_certify_raises_the_inconsistency_on_a_graph_it_cannot_certify(g):
    """No bond, a finite graph, or a bond past 5 from rank 4 on: no certificate."""
    with pytest.raises(InternalInconsistencyError, match="no exact certificate for the rejected subgraph on"):
        certify_module.certify(g)


SCAN_CORPUS_SHA256 = "4faf7440fbe7dbc159b69a1dab064c312e273df067e715217863b4c84afe9893"


def test_scan_corpora_classify_byte_identically():
    """``str(classify(g))`` of every graph of the classify-scan corpora of
    seeds 1-20 (7000 graphs), one line each in corpus order, hashes to the
    recorded digest: it pins each verdict and every witness's vertices,
    where the benchmark's oracle checks the labels only."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("scan_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digest, count = hashlib.sha256(), 0
    for seed in range(1, 21):
        for item in workloads.scan_corpus(seed):
            g = parse_graph_json(json.dumps(item["graph"]))
            digest.update((str(classify(g)) + "\n").encode())
            count += 1
    assert count == 7000 and digest.hexdigest() == SCAN_CORPUS_SHA256
