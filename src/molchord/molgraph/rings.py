"""Ring bonds and fused-ring counts from the biconnected blocks of the bond graph.

One iterative low-link depth-first search (Hopcroft & Tarjan, CACM 1973)
splits the bonds into biconnected blocks. A bond lies on a ring exactly when
its block holds two or more bonds, i.e. it is not a bridge. A block B with
``mu(B) = |E(B)| - |V(B)| + 1`` holds ``mu(B)`` rings of any cycle basis;
when ``mu(B) >= 2`` each of them shares a bond with another (a ring that
shared none could not sum, with the others, to a cycle made of an ear of B
and one of its arcs), and when ``mu(B) = 1`` the one ring shares none. So the
fused count needs no ring list. Rings that share only an atom (spiro) lie in
different blocks and do not count as fused.
"""

from __future__ import annotations

from .model import Molecule


def _blocks(mol: Molecule) -> list[list[int]]:
    """Bond indices of each biconnected block, from one depth-first search."""
    adj: list[list[tuple[int, int]]] = [[] for _ in mol.atoms]
    for e, bond in enumerate(mol.bonds):
        adj[bond.a].append((bond.b, e))
        adj[bond.b].append((bond.a, e))
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    pending: list[int] = []  # bonds seen but not yet assigned to a block
    blocks: list[list[int]] = []
    clock = 0
    for root in range(len(adj)):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        # (atom, bond it was reached by, neighbors left, len(pending) before that bond)
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            u, via, nbrs, mark = stack[-1]
            for v, e in nbrs:
                if e == via:
                    continue
                if disc[v] < 0:
                    stack.append((v, e, iter(adj[v]), len(pending)))
                    pending.append(e)
                    disc[v] = low[v] = clock
                    clock += 1
                    break
                if disc[v] < disc[u]:  # back bond to an ancestor, seen once
                    pending.append(e)
                    if disc[v] < low[u]:
                        low[u] = disc[v]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] >= disc[parent]:
                        blocks.append(pending[mark:])
                        del pending[mark:]
    return blocks


def ring_bonds(mol: Molecule) -> list[bool]:
    """Per bond, whether it lies on a ring, i.e. is not a bridge.

    A lighter pass than ``_blocks``: one stack-driven depth-first search
    numbers the atoms in preorder (an atom's parent is the last visited atom
    that pushed it, so every other bond joins an atom to an ancestor), then
    ``low`` is taken in reverse preorder. The tree bond into an atom is a
    bridge exactly when no bond from the atom's subtree reaches above it.
    """
    n = len(mol.atoms)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b, _ in mol.bonds:
        adj[a].append(b)
        adj[b].append(a)
    pre = [-1] * n
    parent = [-1] * n
    visits: list[int] = []
    for root in range(n):
        if pre[root] >= 0:
            continue
        stack = [root]
        while stack:
            u = stack.pop()
            if pre[u] >= 0:
                continue
            pre[u] = len(visits)
            visits.append(u)
            for v in adj[u]:
                if pre[v] < 0:
                    parent[v] = u
                    stack.append(v)
    low = pre[:]
    for u in reversed(visits):
        p = parent[u]
        reach = low[u]
        for v in adj[u]:
            if pre[v] < reach and v != p:
                reach = pre[v]
        low[u] = reach
        if p >= 0 and reach < low[p]:
            low[p] = reach
    return [
        not (parent[b] == a and low[b] == pre[b] or parent[a] == b and low[a] == pre[a])
        for a, b, _ in mol.bonds
    ]


def count_fused_rings(mol: Molecule) -> int:
    """Number of rings sharing at least one bond with another ring."""
    fused = 0
    for block in _blocks(mol):
        atoms = set()
        for e in block:
            atoms.add(mol.bonds[e].a)
            atoms.add(mol.bonds[e].b)
        mu = len(block) - len(atoms) + 1
        if mu >= 2:
            fused += mu
    return fused
