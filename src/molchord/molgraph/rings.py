"""Ring perception.

The ring set is a smallest-set-of-smallest-rings: candidate cycles are the
shortest cycles through every bond, sorted by (length, atom tuple), and
greedily accepted while linearly independent over GF(2) until the cyclomatic
count is reached. Bridges lie on no cycle, so the shortest-cycle search skips
them and walks the ring subgraph (the graph without its bridges) only; every
shortest cycle through a ring bond lies in that subgraph, so the candidates
are the ones a search over the whole graph finds. A ring counts as fused when
it shares at least one bond with another perceived ring; sharing only an atom
(spiro) does not count.
"""

from __future__ import annotations

from dataclasses import replace

from .model import Molecule

_MAX_PATHS_PER_BOND = 64


def normalize_cycle(path: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Canonical rotation/direction: start at the smallest atom, smaller neighbor next."""
    path = list(path)
    pivot = path.index(min(path))
    rot = path[pivot:] + path[:pivot]
    if len(rot) > 2 and rot[1] > rot[-1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def cycle_edges(cycle: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    edges = set()
    for j in range(len(cycle)):
        a, b = cycle[j], cycle[(j + 1) % len(cycle)]
        edges.add((a, b) if a < b else (b, a))
    return frozenset(edges)


def _all_shortest_paths(adj: list[list[int]], src: int, dst: int):
    """All shortest src->dst paths avoiding the src-dst bond, capped for safety.

    Only the first step could take that bond: the search stops after the
    level that reaches dst, and the bond seen from dst leads back to src at
    distance 0, which no level adds again.
    """
    n = len(adj)
    dist = [-1] * n
    parents: list[list[int]] = [[] for _ in range(n)]
    dist[src] = 0
    frontier = [v for v in adj[src] if v != dst]
    for v in frontier:
        dist[v] = 1
        parents[v].append(src)
    while frontier and dist[dst] < 0:
        nxt = []
        for u in frontier:
            step = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = step
                    parents[v].append(u)
                    nxt.append(v)
                elif dist[v] == step:
                    parents[v].append(u)
        frontier = nxt
    if dist[dst] < 0:
        return []
    paths: list[list[int]] = []
    stack = [(dst, [dst])]
    while stack and len(paths) < _MAX_PATHS_PER_BOND:
        node, path = stack.pop()
        if node == src:
            paths.append(path[::-1])
            continue
        for p in parents[node]:
            stack.append((p, path + [p]))
    return paths


def _bridges(adj: list[list[int]]) -> set[tuple[int, int]]:
    """Bonds whose removal disconnects their component (Tarjan's low-link,
    one iterative depth-first search)."""
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, parent, nbrs = stack[-1]
            for v in nbrs:
                if v == parent:
                    continue
                if disc[v] < 0:
                    disc[v] = low[v] = clock
                    clock += 1
                    stack.append((v, u, iter(adj[v])))
                    break
                if disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if parent >= 0:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] > disc[parent]:
                        bridges.add((parent, u) if parent < u else (u, parent))
    return bridges


def _fundamental_cycles(mol: Molecule) -> list[tuple[int, ...]]:
    """Cycle basis from a spanning forest; completeness fallback for the greedy pass."""
    adj = [[nbr for nbr, _ in row] for row in mol.neighbors()]
    n = len(mol.atoms)
    parent = [-1] * n
    depth = [0] * n
    seen = [False] * n
    tree_edges: set[tuple[int, int]] = set()
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    tree_edges.add((u, v) if u < v else (v, u))
                    stack.append(v)
    cycles = []
    for bond in mol.bonds:
        if bond.key() in tree_edges:
            continue
        a, b = bond.a, bond.b
        pa, pb = [a], [b]
        x, y = a, b
        while depth[x] > depth[y]:
            x = parent[x]
            pa.append(x)
        while depth[y] > depth[x]:
            y = parent[y]
            pb.append(y)
        while x != y:
            x, y = parent[x], parent[y]
            pa.append(x)
            pb.append(y)
        cycle = pa + pb[-2::-1]  # meeting point appears once
        cycles.append(normalize_cycle(cycle))
    return cycles


def perceive_rings(mol: Molecule) -> Molecule:
    """Return a copy of ``mol`` with its ring list populated."""
    target = mol.cyclomatic_number()
    if target <= 0:
        return replace(mol, rings=[])

    adj = [[nbr for nbr, _ in row] for row in mol.neighbors()]
    bridges = _bridges(adj)
    ring_adj = [
        [v for v in row if ((u, v) if u < v else (v, u)) not in bridges]
        for u, row in enumerate(adj)
    ]
    candidates: set[tuple[int, ...]] = set()
    for bond in mol.bonds:
        if bond.key() in bridges:
            continue
        for path in _all_shortest_paths(ring_adj, bond.a, bond.b):
            if len(path) >= 3:
                candidates.add(normalize_cycle(path))

    bond_index = {b.key(): i for i, b in enumerate(mol.bonds)}

    def as_vector(cycle: tuple[int, ...]) -> int:
        vec = 0
        for edge in cycle_edges(cycle):
            vec |= 1 << bond_index[edge]
        return vec

    ordered = sorted(candidates, key=lambda c: (len(c), c))
    rings: list[tuple[int, ...]] = []
    basis: dict[int, int] = {}  # pivot bit -> reduced vector

    def try_add(cycle: tuple[int, ...]) -> bool:
        vec = as_vector(cycle)
        while vec:
            pivot = vec.bit_length() - 1
            if pivot in basis:
                vec ^= basis[pivot]
            else:
                basis[pivot] = vec
                rings.append(cycle)
                return True
        return False

    for cycle in ordered:
        if len(rings) == target:
            break
        try_add(cycle)

    if len(rings) < target:
        # Shortest-cycle candidates can, in rare graphs, fail to span the whole
        # cycle space; fundamental cycles always complete it.
        extras = sorted(set(_fundamental_cycles(mol)) - set(rings), key=lambda c: (len(c), c))
        for cycle in extras:
            if len(rings) == target:
                break
            try_add(cycle)

    if len(rings) != target:
        raise AssertionError("ring perception failed to reach the cyclomatic count")
    rings.sort(key=lambda c: (len(c), c))
    return replace(mol, rings=rings)


def count_fused_rings(mol: Molecule) -> int:
    """Number of perceived rings sharing at least one bond with another ring."""
    edge_sets = [cycle_edges(ring) for ring in mol.rings]
    fused = 0
    for i, edges in enumerate(edge_sets):
        for j, other in enumerate(edge_sets):
            if i != j and edges & other:
                fused += 1
                break
    return fused
