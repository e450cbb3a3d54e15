import hashlib
import itertools

import numpy as np
import pytest

from sbmdp.errors import (
    AlphabetViolation,
    DuplicateEdge,
    ParseError,
)
from sbmdp.graph import (
    CENSORED,
    SIMPLE,
    Graph,
    ball_size,
    neighbors_at_distance,
    off_diagonal,
    pair_count,
    pair_rank,
    read_edge_list,
    upper_triangle,
    write_edge_list,
)
from sbmdp.models import BasbmParams, CbsbmParams, GssbmParams, generate

from oracles import (
    GraphDelta,
    empty_graph,
    entry,
    graph_from_dense,
    neighbors_within,
    random_delta,
)


def random_graph(n, alphabet, seed):
    rng = np.random.default_rng(seed)
    vals = rng.choice([0, 1] if alphabet == SIMPLE else [-1, 0, 1],
                      size=pair_count(n))
    return Graph(n, alphabet, vals.astype(np.int8))


def dense_forms_digest(n: int) -> str:
    """sha256 of the dense forms, degrees and dense round trip of empty
    graphs of both alphabets and, from n = 2, of one generated graph per
    variant (with its planted assignment)."""
    h = hashlib.sha256()
    graphs = [Graph(n, alphabet, np.zeros(pair_count(n), np.int8))
              for alphabet in (SIMPLE, CENSORED)]
    if n >= 2:
        for params in (BasbmParams(n=n, a=0.5, b=0.1, rho=0.5),
                       CbsbmParams(n=n, a=0.5, xi=0.1),
                       GssbmParams(n=n, a=0.5, b=0.1, rhos=(0.5,))):
            g, gt = generate(params, 5)
            h.update(gt.assignment.tobytes())
            graphs.append(g)
    for g in graphs:
        for x in (g.values, g.to_dense(), g.to_dense(np.int8), g.degrees(),
                  graph_from_dense(g.to_dense(), g.alphabet).values):
            h.update(x.tobytes())
    return h.hexdigest()


# recorded from the np.triu_indices forms of to_dense, from_dense, degrees
# and generate, before they read the cached upper-triangle mask
@pytest.mark.parametrize("n, digest", [
    (1, "eb142b0cae0baa72a767ebc0823d1be94e14c5bfc52d8e417fc4302fceb6240c"),
    (2, "432af86cf2db92e57770cd247fabde6f246b38dab4fd4add8c66b0c692156004"),
    (6, "62382530988d57883a2dd5b56bae1a64544f694f4a7646955020e6f878800330"),
    (300, "ef2516003291662b56e2abc3c44558341a8150ee5fe3ccf1385369f1a9804a8c"),
])
def test_dense_forms_and_generation_keep_their_bits(n, digest):
    assert dense_forms_digest(n) == digest


@pytest.mark.parametrize("n", [1, 2, 6, 300])
def test_dense_forms_match_the_pair_indices(n):
    rows, cols = np.triu_indices(n, 1)
    for alphabet in (SIMPLE, CENSORED):
        g = random_graph(n, alphabet, n)
        ref = np.zeros((n, n))
        ref[rows, cols] = g.values
        ref[cols, rows] = g.values
        assert g.to_dense().tobytes() == ref.tobytes()
        assert g.degrees().tobytes() == ref.sum(axis=1).astype(np.int64).tobytes()
        assert graph_from_dense(ref, alphabet) == g
    mask = upper_triangle(n)
    assert mask.dtype == bool and mask.nbytes == n * n and not mask.flags.writeable
    assert upper_triangle(n) is mask
    off = off_diagonal(n)
    assert off.tolist() == [i * n + j for i in range(n) for j in range(n) if i != j]
    assert not off.flags.writeable and off_diagonal(n) is off


def test_pair_rank_roundtrip():
    n = 7
    ranks = [pair_rank(i, j, n) for i in range(n) for j in range(i + 1, n)]
    assert ranks == list(range(pair_count(n)))
    assert pair_rank(3, 1, n) == pair_rank(1, 3, n)


def hamming(g, h):
    """Number of unordered pairs whose entries differ."""
    return int(np.count_nonzero(g.values != h.values))


def test_set_entry_from_empty():
    g = GraphDelta(((0, 1, 1),)).apply(empty_graph(3, SIMPLE))
    assert entry(g, 0, 1) == 1
    assert entry(g, 1, 0) == 1
    assert entry(g, 0, 2) == 0
    assert entry(g, 1, 1) == 0


def test_set_entry_idempotent_write():
    g = random_graph(5, SIMPLE, 0)
    assert GraphDelta(((0, 1, entry(g, 0, 1)),)).apply(g) == g


def test_set_entry_censored_neighbor():
    g = GraphDelta(((0, 1, 1),)).apply(empty_graph(3, CENSORED))
    g2 = GraphDelta(((0, 1, -1),)).apply(g)
    assert hamming(g, g2) == 1


def test_set_entry_errors():
    g = empty_graph(3, SIMPLE)
    with pytest.raises(ValueError):
        GraphDelta(((0, 3, 1),)).apply(g)
    with pytest.raises(ValueError):
        GraphDelta(((1, 1, 1),)).apply(g)
    with pytest.raises(AlphabetViolation):
        GraphDelta(((0, 1, -1),)).apply(g)


def test_set_entry_restores_bit_exact():
    g = random_graph(6, CENSORED, 1)
    old = entry(g, 2, 4)
    changed = GraphDelta(((2, 4, -1 if old != -1 else 0),)).apply(g)
    restored = GraphDelta(((2, 4, old),)).apply(changed)
    assert restored == g
    assert hash(restored) == hash(g)


def test_neighbors_radius_zero():
    assert list(neighbors_within(empty_graph(3, SIMPLE), 0)) == []


def test_neighbors_counts_radius_one():
    assert len(list(neighbors_within(empty_graph(3, SIMPLE), 1))) == 3
    # censored: 3 positions x 2 alternative values, verified by enumeration
    censored = list(neighbors_within(empty_graph(3, CENSORED), 1))
    assert len(censored) == 6
    assert len(set(censored)) == 6


@pytest.mark.parametrize("alphabet,n", [(SIMPLE, 5), (CENSORED, 4)])
def test_neighbor_count_formula(alphabet, n):
    g = random_graph(n, alphabet, 3)
    k = 2 if alphabet == CENSORED else 1
    assert len(list(neighbors_within(g, 1))) == pair_count(n) * k


@pytest.mark.parametrize("alphabet, n", [(SIMPLE, 4), (CENSORED, 4), (SIMPLE, 2)])
def test_ball_size_counts_the_enumeration(alphabet, n):
    g = random_graph(n, alphabet, 5)
    for radius in range(0, pair_count(n) + 2):
        assert ball_size(n, alphabet, radius) == len(list(neighbors_within(g, radius)))


def test_neighbors_nondecreasing_and_unique():
    g = random_graph(4, CENSORED, 4)
    seen = set()
    last_dist = 0
    for h in neighbors_within(g, 2):
        d = hamming(g, h)
        assert d >= last_dist
        last_dist = d
        assert h not in seen
        seen.add(h)
    exact2 = [h for h in seen if hamming(g, h) == 2]
    assert len(exact2) == len(list(neighbors_at_distance(g, 2)))


def test_edge_list_empty_graph():
    assert write_edge_list(empty_graph(2, SIMPLE)) == "n 2 simple\n"


def test_edge_list_read_then_write():
    g = read_edge_list("n 3 simple\n0 1")
    assert entry(g, 0, 1) == 1
    assert write_edge_list(g) == "n 3 simple\n0 1\n"


def test_edge_list_censored_label():
    g = read_edge_list("n 3 censored\n0 2 -1")
    assert entry(g, 0, 2) == -1
    assert entry(g, 2, 0) == -1


def test_edge_list_text_of_labelled_censored_graphs():
    # pairs of n = 5 in row-major order: 01 02 03 04 12 13 14 23 24 34
    g = Graph(5, CENSORED, np.array([1, 0, -1, 0, 0, 1, -1, 0, 0, 1], np.int8))
    assert write_edge_list(g) == "n 5 censored\n0 1 1\n0 3 -1\n1 3 1\n1 4 -1\n3 4 1\n"
    # recorded from the writer that unranked one pair per edge
    text = write_edge_list(generate(CbsbmParams(n=300, a=8, xi=0.1), 3)[0])
    assert text.count("\n") == 6870
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "c37ce4925bc8a23164270415e03e685a9e64d2fd726116088812768e65e874b3"


@pytest.mark.parametrize("alphabet", [SIMPLE, CENSORED])
def test_edge_list_roundtrip_random(alphabet):
    for seed in range(5):
        g = random_graph(6, alphabet, seed)
        assert read_edge_list(write_edge_list(g)) == g


def test_edge_list_errors():
    with pytest.raises(ParseError) as exc:
        read_edge_list("m 3 simple\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        read_edge_list("n 3 simple\n0 x")
    assert exc.value.line == 2
    with pytest.raises(DuplicateEdge):
        read_edge_list("n 3 simple\n0 1\n1 0")
    with pytest.raises(ParseError) as exc:
        read_edge_list("n 3 simple\n0 1\n0 5")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        read_edge_list("n 3 simple\n2 2")
    with pytest.raises(ParseError):
        read_edge_list("n 3 simple\n0 1 -1")  # label outside simple alphabet
    with pytest.raises(ParseError):
        read_edge_list("n 3 censored\n0 1 0")


def test_graph_delta():
    g = empty_graph(4, SIMPLE)
    delta = GraphDelta(((0, 1, 1), (2, 3, 1)))
    g2 = delta.apply(g)
    assert hamming(g, g2) == 2
    with pytest.raises(DuplicateEdge):
        GraphDelta(((0, 1, 1), (0, 1, 0)))
    with pytest.raises(ValueError):
        GraphDelta(((1, 0, 1),))


def test_random_delta_exact_flip_count():
    g = random_graph(8, SIMPLE, 5)
    rng = np.random.default_rng(0)
    for flips in (1, 3, 7):
        delta = random_delta(g, flips, rng)
        assert hamming(g, delta.apply(g)) == flips


def test_dense_symmetry():
    g = random_graph(6, CENSORED, 6)
    dense = g.to_dense()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0)
    assert g.degrees().tolist() == dense.sum(axis=1).astype(int).tolist()


def test_neighbor_enumeration_matches_bruteforce():
    g = random_graph(3, CENSORED, 7)
    expected = set()
    values = [-1, 0, 1]
    for combo in itertools.product(values, repeat=3):
        cand = Graph(3, CENSORED, np.array(combo, dtype=np.int8))
        if 1 <= hamming(g, cand) <= 2:
            expected.add(cand)
    assert set(neighbors_within(g, 2)) == expected
