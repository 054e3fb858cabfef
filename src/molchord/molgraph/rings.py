"""Ring bonds and fused-ring counts from one depth-first search of the bond graph.

A stack-driven search numbers the atoms in preorder (an atom's parent is the
last visited atom that pushed it, so every other bond joins an atom to an
ancestor), then takes ``low`` in reverse preorder (Hopcroft & Tarjan, CACM
1973). The tree bond into ``u`` is a bridge when ``low[u] == pre[u]``; it
opens a biconnected block when ``low[u] >= pre[parent[u]]`` and else joins its
parent's block. Every other bond joins the block of the tree bond into its
deeper end. A block's tree bonds span its atoms, so its ``mu(B) = |E(B)| -
|V(B)| + 1`` rings of any cycle basis are its non-tree bond count. When
``mu(B) >= 2`` each ring shares a bond with another (one that shared none
could not sum, with the others, to a cycle made of an ear of B and one of its
arcs); when ``mu(B) = 1`` the one ring shares none. So the fused count needs
no ring list, and spiro rings, which share only an atom, lie in different
blocks and do not count. The search assumes no self-bond and no duplicate
bond, which ``parse_smiles`` and ``make_molecule`` guarantee.
"""

from __future__ import annotations

from .model import Molecule


def _search(mol: Molecule) -> tuple[list[int], list[int], list[int], list[int]]:
    """Each atom's preorder number, parent (-1 for a root) and ``low``, and
    the atoms in preorder."""
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
    return pre, parent, low, visits


def ring_bonds(mol: Molecule) -> list[bool]:
    """Per bond, whether it lies on a ring, i.e. is not a bridge: the tree
    bond into an atom is a bridge exactly when no bond from the atom's
    subtree reaches above it."""
    pre, parent, low, _ = _search(mol)
    return [
        not (parent[b] == a and low[b] == pre[b] or parent[a] == b and low[a] == pre[a])
        for a, b, _ in mol.bonds
    ]


def count_fused_rings(mol: Molecule) -> int:
    """Number of rings sharing at least one bond with another ring."""
    pre, parent, low, visits = _search(mol)
    block = [-1] * len(pre)  # block of the tree bond into each atom
    rings: list[int] = []  # non-tree bonds per block
    for u in visits:
        p = parent[u]
        if p < 0:
            continue
        if low[u] >= pre[p]:
            block[u] = len(rings)
            rings.append(0)
        else:
            block[u] = block[p]
    for a, b, _ in mol.bonds:
        if parent[b] != a and parent[a] != b:
            rings[block[a] if pre[a] > pre[b] else block[b]] += 1
    return sum(mu for mu in rings if mu >= 2)
