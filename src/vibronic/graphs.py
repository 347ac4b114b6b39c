"""Electronic configurations, resonant manifolds, and the laser-coupling graph.

A configuration is a tuple of N binary occupations (1 = excited, 0 = ground),
ordered by tweezer index.  With the detuning tuned against the interaction
shift, subsets of configurations become degenerate and the laser connects
them like hopping on a graph; this module enumerates those manifolds and
builds the 0/1 adjacency matrix of single-occupation flips inside them.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .params import pair_potential

Config = tuple  # tuple[int, ...], one entry per atom

# Diagonal energies within this fraction of max(|E_seed|, omega) of the
# seed's count as degenerate with it.
DEGENERACY_REL_TOL = 1e-9
MAX_ATOMS = 16  # largest array whose 2^N configurations are enumerated


def config_from_string(bits: str) -> Config:
    """Parse a bitstring like ``"0110"`` into a configuration tuple."""
    if not bits or any(ch not in "01" for ch in bits):
        raise DomainError(f"configuration string must be nonempty over {{0,1}}, got {bits!r}")
    return tuple(int(ch) for ch in bits)


def config_to_string(config: Config) -> str:
    return "".join(str(b) for b in config)


@dataclass(frozen=True, eq=False)
class Geometry:
    """Equilibrium positions of the tweezer array.

    ``n_axes`` is the number of active motion directions per atom used by the
    vibronic assembly: 1 for the dumbbell (axial), 2 for the triangle
    (in-plane), 3 for the tetrahedron and custom geometries.  Presets are laid
    out so the active axes are the leading Cartesian components.
    """

    positions: np.ndarray
    n_axes: int = 3
    d: float = None
    name: str = "custom"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise DomainError(f"positions must be (N, 3), got shape {pos.shape}")
        object.__setattr__(self, "positions", pos)
        n = pos.shape[0]
        for k in range(n):
            for l in range(k):
                if np.linalg.norm(pos[k] - pos[l]) <= 0:
                    raise DomainError(f"atoms {l} and {k} coincide")
        if self.d is None:
            dists = [np.linalg.norm(pos[k] - pos[l]) for k in range(n) for l in range(k)]
            object.__setattr__(self, "d", min(dists) if dists else 1.0)
        if self.n_axes not in (1, 2, 3):
            raise DomainError(f"n_axes must be 1, 2, or 3, got {self.n_axes}")

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def distance(self, k: int, l: int) -> float:
        return float(np.linalg.norm(self.positions[k] - self.positions[l]))

    def pairs(self):
        n = self.n_atoms
        return [(k, l) for k in range(n) for l in range(k + 1, n)]


def dumbbell(d: float = 1.0, full_3d: bool = False) -> Geometry:
    """Two atoms at distance d along the x-axis; axial motion by default."""
    pos = np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]])
    return Geometry(pos, n_axes=3 if full_3d else 1, d=d, name="dumbbell")


def triangle(d: float = 1.0, full_3d: bool = False) -> Geometry:
    """Equilateral triangle with side d in the xy-plane; planar motion by default."""
    pos = np.array(
        [
            [0.0, 0.0, 0.0],
            [d, 0.0, 0.0],
            [d / 2.0, d * math.sqrt(3.0) / 2.0, 0.0],
        ]
    )
    return Geometry(pos, n_axes=3 if full_3d else 2, d=d, name="triangle")


def tetrahedron(d: float = 1.0) -> Geometry:
    """Regular tetrahedron with edge d; full 3D motion."""
    pos = np.array(
        [
            [0.0, 0.0, 0.0],
            [d, 0.0, 0.0],
            [d / 2.0, d * math.sqrt(3.0) / 2.0, 0.0],
            [d / 2.0, d * math.sqrt(3.0) / 6.0, d * math.sqrt(2.0 / 3.0)],
        ]
    )
    return Geometry(pos, n_axes=3, d=d, name="tetrahedron")


GEOMETRY_PRESETS = {"dumbbell": dumbbell, "triangle": triangle, "tetrahedron": tetrahedron}


@dataclass(frozen=True, eq=False)
class ResonantGraph:
    """Degenerate configurations plus the 0/1 adjacency of single flips.

    Nodes are ordered lexicographically by bitstring.  ``manifold_energy`` is
    the shared diagonal energy of the member configurations.
    """

    configs: tuple
    adjacency: np.ndarray
    manifold_energy: float
    geometry: Geometry = field(compare=False, default=None)

    @property
    def n_nodes(self) -> int:
        return len(self.configs)

    @property
    def bitstrings(self):
        return [config_to_string(c) for c in self.configs]

    def degree_sequence(self):
        return [int(x) for x in self.adjacency.sum(axis=1)]


def diagonal_energy(config: Config, geometry: Geometry, Delta: float, model) -> float:
    """Diagonal configuration energy at the equilibrium positions.

    Delta per excitation plus the pairwise interaction between excited atoms.
    """
    config = tuple(config)
    if len(config) != geometry.n_atoms:
        raise DomainError(
            f"configuration length {len(config)} does not match atom count {geometry.n_atoms}"
        )
    energy = Delta * sum(config)
    for k, l in geometry.pairs():
        if config[k] and config[l]:
            energy += pair_potential(model, geometry.distance(k, l), geometry.d)[0]
    return energy


def build_resonant_manifold(
    geometry: Geometry,
    Delta: float,
    model,
    seed: Config,
    omega: float = 1.0,
    Omega: float = None,
) -> ResonantGraph:
    """Collect every configuration degenerate with ``seed`` and link single flips.

    All 2^N configurations are enumerated; those whose diagonal energy matches
    the seed's within ``DEGENERACY_REL_TOL * max(|E_seed|, omega)`` form the
    node set.  Edges connect members differing in exactly one occupation.  If
    ``Omega`` is supplied, a warning is emitted when ``|Omega/Delta| > 0.1``
    since the manifold picture assumes far-detuned driving.
    """
    n = geometry.n_atoms
    if not 1 <= n <= MAX_ATOMS:
        raise DomainError(f"exhaustive enumeration supports 1 to {MAX_ATOMS} atoms, got {n}")
    seed = tuple(seed)
    if Omega is not None and Delta != 0.0 and abs(Omega / Delta) > 0.1:
        warnings.warn(
            f"|Omega/Delta| = {abs(Omega / Delta):.3g} > 0.1; the resonant-manifold "
            "model assumes far-detuned driving",
            stacklevel=2,
        )
    e_seed = diagonal_energy(seed, geometry, Delta, model)
    scale = max(abs(e_seed), omega)

    members = []
    for code in range(2**n):
        config = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
        e = diagonal_energy(config, geometry, Delta, model)
        if abs(e - e_seed) <= DEGENERACY_REL_TOL * scale:
            members.append(config)
    members.sort(key=config_to_string)

    m = len(members)
    adjacency = np.zeros((m, m), dtype=np.int8)
    for i in range(m):
        for j in range(i + 1, m):
            if sum(a != b for a, b in zip(members[i], members[j])) == 1:
                adjacency[i, j] = adjacency[j, i] = 1
    return ResonantGraph(
        configs=tuple(members),
        adjacency=adjacency,
        manifold_energy=e_seed,
        geometry=geometry,
    )


def _is_connected(adjacency: np.ndarray) -> bool:
    m = adjacency.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(adjacency[i])[0]:
            if int(j) not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == m


def graph_classify(graph: ResonantGraph):
    """Classify the graph topology as path, ring, star, or other.

    Returns ``(label, degrees)`` with degrees listed in node order.  The
    classification is deterministic from the degree multiset and connectivity.
    """
    if graph.n_nodes == 0:
        raise DomainError("cannot classify an empty graph")
    degrees = graph.degree_sequence()
    label = "other"
    if _is_connected(graph.adjacency):
        counts = sorted(degrees)
        m = graph.n_nodes
        if m >= 2 and counts == [1, 1] + [2] * (m - 2):
            label = "path"
        elif m >= 3 and counts == [2] * m:
            label = "ring"
        elif m >= 4 and counts == [1] * (m - 1) + [m - 1]:
            label = "star"
    return label, degrees


def export_edge_list(graph: ResonantGraph) -> str:
    """Edge list as text lines ``i j`` with 0-based node indices."""
    lines = []
    m = graph.n_nodes
    for i in range(m):
        for j in range(i + 1, m):
            if graph.adjacency[i, j]:
                lines.append(f"{i} {j}")
    return "\n".join(lines) + ("\n" if lines else "")


def export_node_table(graph: ResonantGraph) -> str:
    """JSON object mapping node index to configuration bitstring."""
    table = {str(i): s for i, s in enumerate(graph.bitstrings)}
    return json.dumps(table, indent=2, sort_keys=True) + "\n"
