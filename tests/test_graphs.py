import itertools
import json

import numpy as np
import pytest

from vibronic import (
    DomainError,
    ExplicitCouplings,
    Geometry,
    PowerLaw,
    UnsupportedVariantError,
    build_resonant_manifold,
    config_from_string,
    config_to_string,
    diagonal_energy,
    dumbbell,
    export_edge_list,
    export_node_table,
    graph_classify,
    tetrahedron,
    triangle,
)

POT = PowerLaw(1.0, 6)  # V(1) = 1


def test_diagonal_energy_examples():
    # 2 Delta + V(d) for the doubly excited pair of the tetrahedron
    assert diagonal_energy((1, 1, 0, 0), tetrahedron(), -1.0, POT) == pytest.approx(-1.0)
    # no excitations, no energy
    assert diagonal_energy((0, 0, 0, 0), tetrahedron(), -1.0, POT) == 0.0
    # dumbbell pair energy equals the single-excitation energy: degeneracy
    assert diagonal_energy((1, 1), dumbbell(), -1.0, POT) == pytest.approx(-1.0)
    assert diagonal_energy((0, 1), dumbbell(), -1.0, POT) == pytest.approx(-1.0)


def test_diagonal_energy_size_mismatch():
    with pytest.raises(DomainError):
        diagonal_energy((1, 0), triangle(), -1.0, POT)


def test_dumbbell_manifold_is_a_path():
    g = build_resonant_manifold(dumbbell(), -1.0, POT, (0, 1))
    assert g.bitstrings == ["01", "10", "11"]
    label, degrees = graph_classify(g)
    assert label == "path"
    assert sorted(degrees) == [1, 1, 2]
    # the middle of the chain is the doubly excited configuration
    assert degrees[g.bitstrings.index("11")] == 2


def test_triangle_manifold_is_a_ring():
    g = build_resonant_manifold(triangle(), -1.0, POT, (0, 0, 1))
    assert g.n_nodes == 6
    label, degrees = graph_classify(g)
    assert label == "ring"
    assert degrees == [2] * 6


def test_tetrahedron_facilitated_manifold():
    g = build_resonant_manifold(tetrahedron(), -1.0, POT, (1, 0, 0, 0))
    assert g.n_nodes == 10
    label, degrees = graph_classify(g)
    assert label == "other"
    assert sorted(degrees, reverse=True) == [3, 3, 3, 3, 2, 2, 2, 2, 2, 2]
    # every single-excitation node has degree 3, every pair node degree 2
    for config, deg in zip(g.configs, degrees):
        assert deg == (3 if sum(config) == 1 else 2)


def test_tetrahedron_star_manifold():
    g = build_resonant_manifold(tetrahedron(), -3.0, POT, (1, 1, 1, 0))
    assert g.n_nodes == 5
    label, degrees = graph_classify(g)
    assert label == "star"
    assert degrees[g.bitstrings.index("1111")] == 4
    assert sorted(degrees) == [1, 1, 1, 1, 4]


def test_adjacency_is_symmetric_with_zero_diagonal():
    g = build_resonant_manifold(tetrahedron(), -1.0, POT, (1, 0, 0, 0))
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert np.all(np.diag(g.adjacency) == 0)


def test_manifold_respects_geometry_symmetry():
    # relabeling the triangle's atoms by a rotation permutes nodes onto nodes
    g = build_resonant_manifold(triangle(), -1.0, POT, (0, 0, 1))
    nodes = set(g.bitstrings)
    edges = {
        frozenset((g.bitstrings[i], g.bitstrings[j]))
        for i in range(g.n_nodes)
        for j in range(i + 1, g.n_nodes)
        if g.adjacency[i, j]
    }
    perm = (1, 2, 0)
    mapped_nodes = {config_to_string(tuple(int(s[p]) for p in perm)) for s in nodes}
    mapped_edges = {
        frozenset(config_to_string(tuple(int(s[p]) for p in perm)) for s in pair)
        for pair in edges
    }
    assert mapped_nodes == nodes
    assert mapped_edges == edges


def test_manifold_membership_by_diagonal_energy():
    # brute-force oracle: every configuration degenerate with the seed is in,
    # everything else is out
    geom = tetrahedron()
    delta = -1.0
    g = build_resonant_manifold(geom, delta, POT, (1, 0, 0, 0))
    seed_energy = diagonal_energy((1, 0, 0, 0), geom, delta, POT)
    members = set(g.bitstrings)
    for bits in itertools.product((0, 1), repeat=4):
        e = diagonal_energy(bits, geom, delta, POT)
        inside = abs(e - seed_energy) <= 1e-9 * max(abs(seed_energy), 1.0)
        assert (config_to_string(bits) in members) == inside


def test_rel_tol_splits_near_degeneracies():
    # stretch one triangle edge by 1e-6: the six-node manifold splits unless
    # the tolerance absorbs the detuning mismatch
    pos = triangle().positions.copy()
    pos[2, 0] += 1e-6
    geom = Geometry(pos, n_axes=2)
    tight = build_resonant_manifold(geom, -1.0, POT, (0, 0, 1), rel_tol=1e-9)
    loose = build_resonant_manifold(geom, -1.0, POT, (0, 0, 1), rel_tol=1e-4)
    assert tight.n_nodes < 6
    assert loose.n_nodes == 6


def test_far_detuning_warning():
    with pytest.warns(UserWarning, match="far-detuned"):
        build_resonant_manifold(dumbbell(), -1.0, POT, (0, 1), Omega=0.5)


def test_explicit_couplings_pin_the_pair_energy():
    model = ExplicitCouplings(kappa=-1.0, xi=0.0, nu=0.1, v_d=1.0)
    g = build_resonant_manifold(dumbbell(), -1.0, model, (0, 1))
    assert g.n_nodes == 3


def test_edge_list_export_format():
    g = build_resonant_manifold(tetrahedron(), -3.0, POT, (1, 1, 1, 0))
    text = export_edge_list(g)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    center = g.bitstrings.index("1111")
    for line in lines:
        i, j = map(int, line.split())
        assert i < j
        assert center in (i, j)


def test_node_table_export_roundtrip():
    g = build_resonant_manifold(dumbbell(), -1.0, POT, (0, 1))
    table = json.loads(export_node_table(g))
    assert table == {"0": "01", "1": "10", "2": "11"}


def test_config_string_helpers():
    assert config_from_string("0110") == (0, 1, 1, 0)
    assert config_to_string((1, 0)) == "10"
    with pytest.raises(DomainError):
        config_from_string("01x")
    with pytest.raises(DomainError):
        config_from_string("")


def test_geometry_validation():
    with pytest.raises(DomainError):
        Geometry(np.zeros((2, 3)))  # coincident atoms
    geom = tetrahedron(d=2.0)
    for k, l in geom.pairs():
        assert geom.distance(k, l) == pytest.approx(2.0, rel=1e-12)


def test_pinned_couplings_reject_off_nominal_pairs():
    # the square's diagonal pairs sit at sqrt(2) d, where pinned couplings are undefined
    square = Geometry(np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]))
    pot = ExplicitCouplings(kappa=0.1, xi=0.0, nu=0.1, v_d=0.5)
    assert diagonal_energy((1, 1, 0, 0), square, -1.0, pot) == -1.5
    with pytest.raises(UnsupportedVariantError, match="nominal distance"):
        diagonal_energy((1, 0, 1, 0), square, -1.0, pot)
    with pytest.raises(UnsupportedVariantError, match="nominal distance"):
        build_resonant_manifold(square, -1.0, pot, (1, 1, 0, 0))
