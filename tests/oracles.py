"""Independent reference implementations used to verify the package.

Everything here is written from the definitions directly -- exhaustive
enumeration, brute-force double loops, off-the-shelf isomorphism -- and never
calls the code paths it is checking.
"""

from __future__ import annotations

import heapq
import warnings
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from molchord.molgraph.errors import (
    AromaticityError,
    CanonicalizationLimit,
    EmptyInput,
    SmilesFeatureWarning,
    SmilesSyntaxError,
    UnclosedBranch,
    UnknownElement,
    UnmatchedRingBond,
    ValenceIssue,
    ValenceViolation,
)
from molchord.molgraph.model import (
    AROMATIC_ORGANIC,
    KNOWN_ELEMENTS,
    ORGANIC_SUBSET,
    Atom,
    Bond,
    BondOrder,
    Molecule,
    make_molecule,
    max_valence,
)


def normalize_cycle_oracle(path: list[int]) -> tuple[int, ...]:
    pivot = path.index(min(path))
    rot = path[pivot:] + path[:pivot]
    if len(rot) > 2 and rot[1] > rot[-1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def all_simple_cycles(n_atoms: int, edges: list[tuple[int, int]]) -> set[tuple[int, ...]]:
    """Every simple cycle, found by exhaustive anchored DFS."""
    adj: dict[int, set[int]] = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    cycles: set[tuple[int, ...]] = set()

    def extend(start: int, current: int, path: list[int], visited: set[int]) -> None:
        for nxt in adj[current]:
            if nxt == start and len(path) >= 3:
                cycles.add(normalize_cycle_oracle(path))
            elif nxt > start and nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                extend(start, nxt, path, visited)
                path.pop()
                visited.remove(nxt)

    for start in range(n_atoms):
        extend(start, start, [start], {start})
    return cycles


def _edge_vector(cycle: tuple[int, ...], edge_index: dict[tuple[int, int], int]) -> int:
    vec = 0
    for i in range(len(cycle)):
        a, b = cycle[i], cycle[(i + 1) % len(cycle)]
        vec |= 1 << edge_index[(a, b) if a < b else (b, a)]
    return vec


def greedy_min_cycle_basis(
    n_atoms: int, edges: list[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Smallest-first, lexicographically tie-broken independent cycles chosen
    from the exhaustive cycle list."""
    edge_index = {tuple(sorted(e)): i for i, e in enumerate(edges)}
    components = nx.number_connected_components(
        nx.Graph(list(edges)) if edges else nx.empty_graph(n_atoms)
    )
    graph = nx.Graph()
    graph.add_nodes_from(range(n_atoms))
    graph.add_edges_from(edges)
    target = len(edges) - n_atoms + nx.number_connected_components(graph)
    if target <= 0:
        return []
    basis: dict[int, int] = {}
    chosen: list[tuple[int, ...]] = []
    for cycle in sorted(all_simple_cycles(n_atoms, edges), key=lambda c: (len(c), c)):
        vec = _edge_vector(cycle, edge_index)
        while vec:
            pivot = vec.bit_length() - 1
            if pivot in basis:
                vec ^= basis[pivot]
            else:
                basis[pivot] = vec
                chosen.append(cycle)
                break
        if len(chosen) == target:
            break
    assert len(chosen) == target, "oracle could not span the cycle space"
    return chosen


def fused_ring_count_oracle(n_atoms: int, edges: list[tuple[int, int]]) -> int:
    """Rings of the greedy minimum basis sharing at least one edge with another."""
    return fused_among(greedy_min_cycle_basis(n_atoms, edges))


def fused_among(rings: list[tuple[int, ...]]) -> int:
    """Rings of ``rings`` that share at least one edge with another of them."""
    edge_sets = [ring_edges(cycle) for cycle in rings]
    return sum(
        1
        for i, mine in enumerate(edge_sets)
        if any(i != j and mine & other for j, other in enumerate(edge_sets))
    )


def ring_edges(cycle: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The edges of a cycle given as its atom sequence, each as (low, high)."""
    return frozenset(
        tuple(sorted((cycle[j], cycle[(j + 1) % len(cycle)]))) for j in range(len(cycle))
    )


def brute_tanimoto(a: set[int], b: set[int]) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def brute_diversity(bit_sets: list[set[int]]) -> float:
    n = len(bit_sets)
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += brute_tanimoto(bit_sets[i], bit_sets[j])
            pairs += 1
    return 1.0 - total / pairs


def neighbor_lists(mol) -> list[list[tuple[int, BondOrder]]]:
    """Per atom, its (neighbor, bond order) pairs in bond list order."""
    adj: list[list[tuple[int, BondOrder]]] = [[] for _ in mol.atoms]
    for a, b, order in mol.bonds:
        adj[a].append((b, order))
        adj[b].append((a, order))
    return adj


def atom_label(atom) -> tuple:
    """Node label for isomorphism and canonical signatures: element,
    aromatic flag, charge and explicit hydrogens."""
    return atom[:4]


def to_nx(mol) -> nx.Graph:
    graph = nx.Graph()
    for atom in mol.atoms:
        graph.add_node(atom.index, label=atom_label(atom))
    for bond in mol.bonds:
        graph.add_edge(bond.a, bond.b, order=int(bond.order))
    return graph


def component_count(mol) -> int:
    """Connected components of the molecular graph."""
    return nx.number_connected_components(to_nx(mol))


def cyclomatic_number(mol) -> int:
    """Independent cycles of the molecular graph: bonds - atoms + components."""
    return len(mol.bonds) - len(mol.atoms) + component_count(mol)


def permute_atoms(mol, perm: list[int]):
    """The molecule with its atoms relabeled so old index i becomes perm[i]."""
    from molchord.molgraph import Bond, Molecule

    n = len(mol.atoms)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of atom indices")
    atoms = [None] * n
    for i, atom in enumerate(mol.atoms):
        atoms[perm[i]] = atom._replace(index=perm[i], offset=-1)
    bonds = sorted(Bond(*sorted((perm[b.a], perm[b.b])), order=b.order) for b in mol.bonds)
    return Molecule(atoms=atoms, bonds=bonds)


def on_bits(fingerprint) -> tuple[int, ...]:
    """The indices of a fingerprint's set bits, ascending."""
    return tuple(bit for bit in range(fingerprint.nbits) if fingerprint.bits >> bit & 1)


def molecules_isomorphic(m1, m2) -> bool:
    return nx.is_isomorphic(
        to_nx(m1),
        to_nx(m2),
        node_match=lambda a, b: a["label"] == b["label"],
        edge_match=lambda a, b: a["order"] == b["order"],
    )


def exact_tanimoto_fraction(a: set[int], b: set[int]) -> Fraction:
    union = a | b
    if not union:
        return Fraction(1)
    return Fraction(len(a & b), len(union))


def _refine_oracle(colors: list[int], adj: list[list[tuple[int, int]]]) -> list[int]:
    """Synchronous color refinement: every round rekeys every atom by its color
    and its sorted (bond order, neighbor color) pairs and renumbers the
    distinct keys densely in sorted order, until a round splits nothing."""
    n = len(colors)
    while True:
        keys = [
            (colors[a], tuple(sorted((order, colors[b]) for b, order in adj[a])))
            for a in range(n)
        ]
        ranked = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [ranked[key] for key in keys]
        if new == colors:
            return colors
        colors = new


def _signature_oracle(mol, colors: list[int]) -> tuple:
    position = [0] * len(colors)
    for atom_idx, color in enumerate(colors):
        position[color] = atom_idx
    atom_part = tuple(atom_label(mol.atoms[position[c]]) for c in range(len(colors)))
    bond_part = tuple(
        sorted(
            (min(colors[b.a], colors[b.b]), max(colors[b.a], colors[b.b]), int(b.order))
            for b in mol.bonds
        )
    )
    return (atom_part, bond_part)


def exhaustive_canonical_signature(mol) -> tuple:
    """Smallest graph signature over every leaf of the individualization tree.

    Starts from the (label, degree) coloring, refines, individualizes each
    atom of the smallest tied color in turn and visits every leaf: the
    unpruned search whose minimum ``canonical_signature`` must reproduce.
    """
    n = len(mol.atoms)
    if n == 0:
        return ((), ())
    adj = [[(b, int(order)) for b, order in row] for row in neighbor_lists(mol)]
    keys = [(atom_label(atom), len(adj[atom.index])) for atom in mol.atoms]
    ranked = {key: i for i, key in enumerate(sorted(set(keys)))}
    best = None
    stack = [[ranked[key] for key in keys]]
    while stack:
        colors = _refine_oracle(stack.pop(), adj)
        tied = sorted({c for c in colors if colors.count(c) > 1})
        if not tied:
            sig = _signature_oracle(mol, colors)
            if best is None or sig < best:
                best = sig
            continue
        cell = tied[0]
        for atom_idx in (a for a in range(n) if colors[a] == cell):
            promoted = [c if c < cell else c + 1 for c in colors]
            promoted[atom_idx] = cell
            stack.append(promoted)
    return best



def canonical_signature(mol) -> tuple:
    """Hashable graph identity of the package's canonical ranking: equal
    exactly for isomorphic labeled graphs."""
    from molchord.molgraph import canonical_ranks

    return _signature_oracle(mol, canonical_ranks(mol))


def unbatched_sample(params, features, vocab, base_seed: int, index: int, max_len: int,
                     temperature: float = 1.5, top_p: float = 0.95):
    """One draw stepped on its own, a single row per model call.

    The reference for ``sample_many``'s batch bookkeeping: it shares the
    model layers (``_lm_layers``) but keeps its own window of embeddings,
    one-row nucleus truncation, stream and stopping rule, so a batched draw
    must reproduce it exactly.
    """
    import numpy as np

    from molchord.genmodel import SampleResult, adapter_forward, sample_seed
    from molchord.genmodel.network import _lm_layers, _log_softmax

    k = params.config.window
    rng = np.random.default_rng(sample_seed(base_seed, features.pocket_id, index))
    noise = rng.standard_normal(params.config.d_feat)
    u_cond = adapter_forward(features.pooled + noise, params)
    u_ctx = adapter_forward(features.vectors, params)
    window = np.tile(params.token_embedding[vocab.pad_id], (k, 1))
    tail = min(k, len(u_ctx))
    if tail:
        window[k - tail :] = u_ctx[len(u_ctx) - tail :]
    ids: list[int] = []
    logprob = 0.0
    for _ in range(max_len):
        x = np.concatenate([window.ravel(), u_cond])[None, :]
        _, _, logits = _lm_layers(params, x)
        dist = nucleus_row_oracle(np.exp(_log_softmax(logits / temperature))[0], top_p)
        csum = np.cumsum(dist)
        token = min(int(np.searchsorted(csum, rng.random(), side="right")), len(csum) - 1)
        logprob += float(np.log(dist[token]))
        ids.append(token)
        if token == vocab.eos_id:
            break
        window = np.vstack([window[1:], params.token_embedding[token]])
    return SampleResult(text=vocab.decode(ids), logprob=logprob, token_ids=tuple(ids))


def sample_unique_oracle(params, features, n_wanted: int, base_seed: int, *, temperature: float,
                         top_p: float, max_len: int, retry_factor: int):
    """One pocket's unique valid canonical molecules, drawn chunk by chunk
    with ``sample_many`` alone: (list of (canonical, logprob), capped?)."""
    from molchord.genmodel import sample_many
    from molchord.molgraph import try_canonicalize

    vocab = params.config.vocabulary()
    collected: dict[str, float] = {}
    index = 0
    budget = n_wanted * retry_factor
    while len(collected) < n_wanted and index < budget:
        chunk = min(max(n_wanted - len(collected), 8), budget - index)
        (drawn,) = sample_many(params, [features], vocab, index + chunk, base_seed=base_seed,
                               temperature=temperature, top_p=top_p, max_len=max_len)
        results = drawn[index:]
        index += chunk
        for res in results:
            if len(collected) >= n_wanted:
                break
            canon = try_canonicalize(res.text)
            if canon is not None and canon not in collected:
                collected[canon] = res.logprob
    return list(collected.items()), len(collected) < n_wanted


# --- ring perception and Morgan fingerprints as first written --------------
# The package counts fused rings and finds ring bonds from biconnected blocks,
# without a ring list, and pre-encodes hash input; these are the
# straightforward forms whose results it must reproduce exactly.

_MAX_PATHS_PER_BOND_ORACLE = 64


def curate_per_pocket_oracle(pockets, draw, dock, config, radius: int, nbits: int):
    """The curate stage one pocket at a time: the reference for the batched
    ``curation.curate``, which asks its sampler once per phase and its scorer
    once for all pockets.

    ``draw(phase, pocket_id, n)`` gives the texts of one pocket's ``n`` draws
    for the phase (``"filter"`` or ``"pairs"``); ``dock(pocket_id, smiles)``
    gives one pocket's ((smiles, score) rows, error messages). Returns the
    ``d_dpo.json`` document and the pairs.
    """
    from molchord.curation import (
        CurationAudit,
        ScoredMolecule,
        build_preference_pairs,
        diversity_filter,
    )
    from molchord.molgraph import count_fused_rings, parse_smiles, try_canonicalize, try_parse

    selected, audit = [], []
    for pocket_id in pockets:
        valid = [m for m in map(try_parse, draw("filter", pocket_id, config.filter_samples))
                 if m is not None]
        if len(valid) < 2:
            audit.append(CurationAudit(pocket_id, False, None, len(valid),
                                       "fewer than 2 valid molecules"))
            continue
        decision = diversity_filter(valid, config.diversity_threshold, radius, nbits)
        reason = ("kept" if decision.keep
                  else f"diversity {decision.diversity:.4f} <= {config.diversity_threshold}")
        audit.append(CurationAudit(pocket_id, decision.keep, decision.diversity, len(valid),
                                   reason))
        if decision.keep:
            selected.append(pocket_id)

    if config.flow == "online":
        n_candidates, n_scored = config.pair_candidates, config.pair_docked
    else:
        n_candidates = n_scored = config.filter_samples
    pairs, log = [], []
    for pocket_id in selected:
        valid = [c for c in map(try_canonicalize, draw("pairs", pocket_id, n_candidates))
                 if c is not None][:n_scored]
        if len(set(valid)) < 2:
            log.append({"pocket_id": pocket_id, "status": "too few valid candidates"})
            continue
        rows, errors = dock(pocket_id, valid)
        log.extend({"pocket_id": pocket_id, "status": f"dock failure: {e}"} for e in errors)
        scored = [ScoredMolecule(s, v, count_fused_rings(parse_smiles(s))) for s, v in rows]
        if len({m.smiles for m in scored}) < 2:
            log.append({"pocket_id": pocket_id, "status": "fewer than 2 scored molecules"})
            continue
        pairs.append(build_preference_pairs(pocket_id, scored, lam=config.lam))
        log.append({"pocket_id": pocket_id, "status": "paired"})
    document = {"selected": selected, "audit": [row._asdict() for row in audit], "pairs": log}
    return document, pairs


def _all_shortest_paths_oracle(adj, src: int, dst: int, banned: tuple[int, int]):
    """All shortest src->dst paths avoiding the banned edge, capped at 64."""
    n = len(adj)
    dist = [-1] * n
    parents: list[list[int]] = [[] for _ in range(n)]
    dist[src] = 0
    frontier = [src]
    while frontier and dist[dst] < 0:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                key = (u, v) if u < v else (v, u)
                if key == banned:
                    continue
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parents[v].append(u)
                    nxt.append(v)
                elif dist[v] == dist[u] + 1:
                    parents[v].append(u)
        frontier = nxt
    if dist[dst] < 0:
        return []
    paths: list[list[int]] = []
    stack = [(dst, [dst])]
    while stack and len(paths) < _MAX_PATHS_PER_BOND_ORACLE:
        node, path = stack.pop()
        if node == src:
            paths.append(path[::-1])
            continue
        for p in parents[node]:
            stack.append((p, path + [p]))
    return paths


def _fundamental_cycles_oracle(mol, adj) -> list[tuple[int, ...]]:
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
        x, y = bond.a, bond.b
        pa, pb = [x], [y]
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
        cycles.append(normalize_cycle_oracle(pa + pb[-2::-1]))
    return cycles


def perceive_rings_oracle(mol) -> list[tuple[int, ...]]:
    """Smallest set of smallest rings: from a shortest-path search through
    every bond, bridges included, over the whole graph, the sorted greedy
    GF(2)-independent selection, completed by fundamental cycles."""
    target = cyclomatic_number(mol)
    if target <= 0:
        return []
    adj = [[nbr for nbr, _ in row] for row in neighbor_lists(mol)]
    candidates = set()
    for bond in mol.bonds:
        for path in _all_shortest_paths_oracle(adj, bond.a, bond.b, bond.key()):
            if len(path) >= 3:
                candidates.add(normalize_cycle_oracle(path))
    bond_index = {b.key(): i for i, b in enumerate(mol.bonds)}
    rings: list[tuple[int, ...]] = []
    basis: dict[int, int] = {}

    def try_add(cycle) -> None:
        vec = 0
        for edge in ring_edges(cycle):
            vec |= 1 << bond_index[edge]
        while vec:
            pivot = vec.bit_length() - 1
            if pivot not in basis:
                basis[pivot] = vec
                rings.append(cycle)
                return
            vec ^= basis[pivot]

    for cycle in sorted(candidates, key=lambda c: (len(c), c)):
        if len(rings) == target:
            break
        try_add(cycle)
    if len(rings) < target:
        extras = set(_fundamental_cycles_oracle(mol, adj)) - set(rings)
        for cycle in sorted(extras, key=lambda c: (len(c), c)):
            if len(rings) == target:
                break
            try_add(cycle)
    assert len(rings) == target
    return sorted(rings, key=lambda c: (len(c), c))


def morgan_bits_oracle(mol, radius: int = 2, nbits: int = 2048) -> int:
    """Morgan bitset with every invariant hashed part by part through
    ``stable_hash64``: the value ``morgan_fingerprint(...).bits`` must equal."""
    from molchord.hashutil import stable_hash64

    adj = neighbor_lists(mol)
    invariants = [
        stable_hash64("atom", a.element, a.aromatic, a.charge, a.explicit_h, len(adj[i]))
        for i, a in enumerate(mol.atoms)
    ]
    bits = 0
    for inv in invariants:
        bits |= 1 << (inv % nbits)
    for r in range(1, radius + 1):
        refreshed = []
        for i in range(len(mol.atoms)):
            parts: list = ["env", r, invariants[i]]
            for order, nbr_inv in sorted((int(o), invariants[j]) for j, o in adj[i]):
                parts.extend((order, nbr_inv))
            refreshed.append(stable_hash64(*parts))
        invariants = refreshed
        for inv in invariants:
            bits |= 1 << (inv % nbits)
    return bits


# --- model-step, loss, optimizer and fingerprint references -----------------


def lm_logits(window_embs, u_cond, params):
    """Next-token distribution for one window and conditioning vector at
    temperature 1 without truncation: the distribution that ancestral
    sampling must reproduce. Given conditioning rows of shape (n, d), the n
    distributions of the window under each row, in one pass."""
    import numpy as np

    from molchord.genmodel import ShapeMismatch
    from molchord.genmodel.network import _lm_layers, _log_softmax

    window_embs = np.asarray(window_embs, dtype=np.float64)
    u_cond = np.asarray(u_cond, dtype=np.float64)
    k, d = params.config.window, params.config.d
    if window_embs.shape != (k, d) or u_cond.ndim not in (1, 2) or u_cond.shape[-1] != d:
        raise ShapeMismatch(
            f"expected window ({k}, {d}) and conditioning ({d},) or (n, {d}), "
            f"got {window_embs.shape} and {u_cond.shape}"
        )
    rows = np.atleast_2d(u_cond)
    x = np.concatenate([np.tile(window_embs.ravel(), (len(rows), 1)), rows], axis=1)
    _, _, logits = _lm_layers(params, x)
    probs = np.exp(_log_softmax(logits))
    return probs if u_cond.ndim == 2 else probs[0]


def dpo_margin_oracle(params, ref_params, example, vocab, beta: float):
    """The preference margin as first written, from four sequence forwards:
    policy and reference each score both sides under the example's recorded
    noise. Returns (margin, -log sigmoid(margin)), the loss without its KL
    term."""
    import math

    from molchord.genmodel import sequence_forward

    def logprob(p, seq):
        return sequence_forward(p, seq, vocab, epsilon=example.epsilon)[0]

    lp_chosen = logprob(params, example.chosen_seq)
    lp_rejected = logprob(params, example.rejected_seq)
    ref_chosen = logprob(ref_params, example.chosen_seq)
    ref_rejected = logprob(ref_params, example.rejected_seq)
    margin = beta * ((lp_chosen - ref_chosen) - (lp_rejected - ref_rejected))
    if margin >= 0:
        return margin, math.log1p(math.exp(-margin))
    return margin, -(margin - math.log1p(math.exp(margin)))


def alignment_loss(params, seqs, vocab, compute_grads: bool = True):
    """Mean masked NLL of the targets under zero conditioning noise, with
    the adapter's gradients only: the structure-to-text alignment objective,
    one packed pass of the package's ``sequences_forward`` and
    ``sequences_backward``. Its gradients are checked against finite
    differences, not against another implementation. Returns (loss, grads)."""
    import numpy as np

    from molchord.genmodel import sequences_backward, sequences_forward

    zeros = np.zeros((len(seqs), params.config.d_feat))
    logprobs, cache = sequences_forward(params, seqs, vocab, zeros, want_cache=compute_grads)
    grads = {}
    if compute_grads:
        every = params.zero_grads()
        sequences_backward(cache, params, np.full(len(seqs), -1.0 / len(seqs)), every)
        grads = {name: every[name] for name in sorted(every) if name.startswith("adapter_")}
    return -float(logprobs.sum()) / len(seqs), grads


def sgd_step(params, grads, lr: float) -> None:
    """Plain gradient descent in place: p <- p - lr * g."""
    for name in sorted(grads):
        getattr(params, name)[...] -= lr * grads[name]


def per_field_clip_gradients(grads, max_norm: float | None) -> float:
    """Gradient clipping one field at a time, each field its own array: the
    norm sums one dot product per field in sorted name order, then every
    field is scaled. Returns the pre-clip norm."""
    import numpy as np

    total = 0.0
    for name in sorted(grads):
        g = grads[name]
        total += float(np.dot(g.ravel(), g.ravel()))
    norm = float(np.sqrt(total))
    if max_norm is not None and norm > max_norm > 0:
        scale = max_norm / norm
        for name in sorted(grads):
            grads[name] *= scale
    return norm


def per_field_adam_step(params, grads, state: dict, lr: float) -> None:
    """Adam one field at a time, with fresh temporaries per field and the
    moments in ``state["m"]`` and ``state["v"]`` by field name; ``state["t"]``
    counts the steps. Betas 0.9 and 0.999, epsilon 1e-8."""
    import numpy as np

    b1, b2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    correction1 = 1.0 - b1 ** state["t"]
    correction2 = 1.0 - b2 ** state["t"]
    m, v = state["m"], state["v"]
    for name in sorted(grads):
        g = grads[name]
        if name not in m:
            m[name] = np.zeros_like(g)
            v[name] = np.zeros_like(g)
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g * g
        m_hat = m[name] / correction1
        v_hat = v[name] / correction2
        getattr(params, name)[...] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def per_field_accumulate(total, grads) -> None:
    """total[name] += grads[name] for every field of ``grads``."""
    for name, g in grads.items():
        total[name] += g


def fingerprint_from_bits(on, nbits: int = 2048):
    """A package ``Fingerprint`` with exactly the given bits set."""
    from molchord.molgraph import Fingerprint

    value = 0
    for bit in on:
        if not 0 <= bit < nbits:
            raise ValueError(f"bit {bit} outside width {nbits}")
        value |= 1 << bit
    return Fingerprint(bits=value, nbits=nbits, radius=0)


# --- one-sequence model passes and one-row nucleus truncation ---------------
# The package packs every sequence of a batch into one pass and truncates all
# live sampling rows at once; these are the per-sequence loop and the
# per-row truncation it replaced, whose results it must reproduce.


def nucleus_row_oracle(probs, top_p: float):
    """Keep the smallest probability-sorted prefix with cumulative mass >=
    top_p (ties by token id) of one distribution, and renormalize."""
    import numpy as np

    if top_p >= 1.0:
        return probs
    order = np.lexsort((np.arange(len(probs)), -probs))
    csum = np.cumsum(probs[order])
    keep_sorted = np.empty(len(probs), dtype=bool)
    keep_sorted[0] = True
    keep_sorted[1:] = csum[:-1] < top_p
    kept = order[keep_sorted]
    out = np.zeros_like(probs)
    out[kept] = probs[kept]
    return out / out.sum()


def _sequence_forward_oracle(params, seq, vocab, epsilon):
    """Log-probability of one sequence and what its backward pass needs."""
    import numpy as np

    from molchord.genmodel import adapter_forward
    from molchord.genmodel.network import _lm_layers, _log_softmax

    k, d = params.config.window, params.config.d
    u_ctx, ctx_cache = adapter_forward(seq.features.vectors, params, want_cache=True)
    cond_in = seq.features.pooled + epsilon
    u_cond, cond_cache = adapter_forward(cond_in[None, :], params, want_cache=True)
    suffix = np.array(seq.suffix_ids, dtype=int)
    embeddings = np.concatenate([u_ctx, params.token_embedding[suffix]], axis=0)
    t_len = len(suffix)
    positions = seq.n_struct + np.arange(t_len)
    window_idx = positions[:, None] - k + np.arange(k)[None, :]
    gathered = np.where(
        (window_idx >= 0)[:, :, None],
        embeddings[np.clip(window_idx, 0, None)],
        params.token_embedding[vocab.pad_id][None, None, :],
    )
    x = np.concatenate([gathered.reshape(t_len, k * d), np.tile(u_cond[0], (t_len, 1))], axis=1)
    h1, h2, logits = _lm_layers(params, x)
    log_probs = _log_softmax(logits)
    logprob = float(log_probs[np.arange(t_len), suffix].sum())
    cache = dict(seq=seq, embeddings=embeddings, window_idx=window_idx, x=x, h1=h1, h2=h2,
                 log_probs=log_probs, ctx_cache=ctx_cache, cond_cache=cond_cache)
    return logprob, cache


def _sequence_backward_oracle(cache, params, coeff: float, grads):
    """Accumulate d(coeff * logprob)/dtheta of one sequence into every
    trainable field; returns the gradient w.r.t. its conditioning
    perturbation."""
    import numpy as np

    from molchord.genmodel import adapter_backward

    k, d = params.config.window, params.config.d
    seq = cache["seq"]
    suffix = np.array(seq.suffix_ids, dtype=int)
    t_len = len(suffix)
    d_logits = -np.exp(cache["log_probs"])
    d_logits[np.arange(t_len), suffix] += 1.0
    d_logits *= coeff
    grads["lm_out_w"] += d_logits.T @ cache["h2"]
    grads["lm_out_b"] += d_logits.sum(axis=0)
    d_a2 = (d_logits @ params.lm_out_w) * (1.0 - cache["h2"] ** 2)
    grads["lm_w2"] += d_a2.T @ cache["h1"]
    grads["lm_b2"] += d_a2.sum(axis=0)
    d_a1 = (d_a2 @ params.lm_w2) * (1.0 - cache["h1"] ** 2)
    grads["lm_w1"] += d_a1.T @ cache["x"]
    grads["lm_b1"] += d_a1.sum(axis=0)
    d_x = d_a1 @ params.lm_w1
    d_u_cond = d_x[:, k * d :].sum(axis=0)
    d_cond_in = adapter_backward(d_u_cond[None, :], cache["cond_cache"], params, grads)[0]
    d_embeddings = np.zeros_like(cache["embeddings"])
    d_windows = d_x[:, : k * d].reshape(t_len, k, d)
    for j in range(k):
        idx = cache["window_idx"][:, j]
        valid = idx >= 0
        np.add.at(d_embeddings, idx[valid], d_windows[valid, j])
    d_u_ctx = d_embeddings[: seq.n_struct]
    if d_u_ctx.size:
        adapter_backward(d_u_ctx, cache["ctx_cache"], params, grads)
    return d_cond_in


def per_sequence_sft_loss(params, batch, vocab, beta_vae: float, noises):
    """The supervised loss and its gradients, one sequence forward and one
    backward per example; returns (loss, grads)."""
    import numpy as np

    grads = params.zero_grads()
    b = len(batch)
    nll_total = kl_total = 0.0
    for ex, z in zip(batch, noises):
        mu = params.vae_mu_w @ ex.complex_vec + params.vae_mu_b
        log_var = params.vae_logvar_w @ ex.complex_vec + params.vae_logvar_b
        sigma = np.exp(0.5 * log_var)
        logprob, cache = _sequence_forward_oracle(params, ex.seq, vocab, mu + sigma * z)
        nll_total -= logprob
        kl_total += 0.5 * float(np.sum(mu * mu + np.exp(log_var) - log_var - 1.0))
        d_eps = _sequence_backward_oracle(cache, params, -1.0 / b, grads)
        d_mu = d_eps + (beta_vae / b) * mu
        d_lv = 0.5 * d_eps * sigma * z + (beta_vae / b) * 0.5 * (np.exp(log_var) - 1.0)
        grads["vae_mu_w"] += np.outer(d_mu, ex.complex_vec)
        grads["vae_mu_b"] += d_mu
        grads["vae_logvar_w"] += np.outer(d_lv, ex.complex_vec)
        grads["vae_logvar_b"] += d_lv
    return nll_total / b + beta_vae * kl_total / b, grads


# --- the parser, canonical ranking and writer as first written ---------------
# The package's versions work on integer arrays and precomputed tables; these
# are the tuple-keyed versions they replaced, unchanged apart from their
# names. Every molecule, error, warning and canonical string must come out
# the same from both.

_REF_MAX_LEAVES = 50_000
# Search nodes times atoms: each node refines a coloring of every atom, and k
# identical components cost about k**2 / 2 nodes, which no leaf cap counts. A
# tert-butyl chain of 20 groups takes under 100,000 and 100 methanes 505,000.
_REF_MAX_WORK = 300_000

def _ref_dense(keys: list) -> list[int]:
    order = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _ref_refine(
    colors: list[int], adj: list[list[tuple[int, int]]], moved: list[int] | None = None
) -> list[int]:
    """Refine dense ``colors`` until no class splits.

    ``adj[a]`` lists ``(neighbor, bond order * n)``. Each round keys every atom
    by its color and the sorted (bond order, color) pairs of its neighbors and
    renumbers the distinct keys densely in sorted order. Only an atom next to
    an atom that changed class in the last round can get a key that differs
    from its classmates', so a round rekeys those atoms alone; the rest of
    their class shares one key. The numbering is the same as rekeying all.
    ``moved`` names the atoms that changed class in a partition that was
    already refined, or is None when ``colors`` never was.
    """
    n = len(colors)
    members: list[set[int]] = [set() for _ in range(n)]
    for atom_idx, color in enumerate(colors):
        members[color].add(atom_idx)
    class_of = list(colors)  # class ids stay fixed; pos[id] is the class's color
    order = list(range(max(colors) + 1))
    pos = list(range(n))
    next_id = len(order)
    if moved is None:
        touched = {c: members[c] for c in order if len(members[c]) > 1}
    else:
        touched = _ref_touched(moved, adj, class_of)
    while touched:
        splits = []
        for c, atoms in touched.items():
            group = members[c]
            if len(group) < 2:
                continue
            keyed: dict[tuple, set[int]] = {}
            for a in atoms:
                key = tuple(sorted([w + pos[class_of[b]] for b, w in adj[a]]))
                keyed.setdefault(key, set()).add(a)
            if len(atoms) < len(group):
                rest = group - atoms
                a = next(iter(rest))
                key = tuple(sorted([w + pos[class_of[b]] for b, w in adj[a]]))
                keyed.setdefault(key, set()).update(rest)
            if len(keyed) > 1:
                splits.append((pos[c], c, [keyed[key] for key in sorted(keyed)]))
        if not splits:
            break
        # The largest part keeps the class id, so only the atoms of the other
        # parts count as moved.
        splits.sort(reverse=True)  # rewrite from the back so earlier positions hold
        moved = []
        for at, c, groups in splits:
            largest = max(groups, key=len)
            ids = []
            for group in groups:
                if group is largest:
                    members[c] = group
                    ids.append(c)
                    continue
                members[next_id] = group
                for a in group:
                    class_of[a] = next_id
                moved.extend(group)
                ids.append(next_id)
                next_id += 1
            order[at : at + 1] = ids
        for i in range(splits[-1][0], len(order)):
            pos[order[i]] = i
        touched = _ref_touched(moved, adj, class_of)
    return [pos[c] for c in class_of]


def _ref_touched(
    moved: list[int], adj: list[list[tuple[int, int]]], class_of: list[int]
) -> dict[int, set[int]]:
    """The neighbors of ``moved``, grouped by class: the atoms whose keys may
    now differ from their classmates'."""
    touched: dict[int, set[int]] = {}
    for a in moved:
        for b, _ in adj[a]:
            touched.setdefault(class_of[b], set()).add(b)
    return touched


def _ref_signature(
    labels: list[tuple], bonds: list[tuple[int, int, int]], colors: list[int]
) -> tuple:
    position = [0] * len(colors)
    for atom_idx, color in enumerate(colors):
        position[color] = atom_idx
    atom_part = tuple([labels[a] for a in position])
    ends = [(colors[a], colors[b], order) for a, b, order in bonds]
    bond_part = tuple(sorted([(min(x, y), max(x, y), order) for x, y, order in ends]))
    return (atom_part, bond_part)


def _ref_graph(mol: Molecule) -> tuple[list[tuple], list[tuple[int, int, int]]]:
    return [atom_label(a) for a in mol.atoms], [(b.a, b.b, int(b.order)) for b in mol.bonds]


class _RefNode:
    """One search-tree node: its refined colors, the tied cell whose atoms are
    its children, and the automorphisms found so far that fix every atom
    individualized on the path to it (as {atom: image} over moved atoms)."""

    def __init__(self, colors: list[int], generators: list[dict[int, int]]):
        self.colors = colors
        cells: dict[int, list[int]] = {}
        for atom_idx, color in enumerate(colors):
            cells.setdefault(color, []).append(atom_idx)
        self.cell_color = min(c for c, members in cells.items() if len(members) > 1)
        self.cell = cells[self.cell_color]
        self.next = 0
        self.explored: list[int] = []
        self.generators = generators
        self.parent: dict[int, int] = {}  # union-find over the generators' orbits
        self.applied = 0

    def _find(self, atom_idx: int) -> int:
        parent = self.parent
        while parent.get(atom_idx, atom_idx) != atom_idx:
            atom_idx = parent[atom_idx]
        return atom_idx

    def next_child(self) -> int | None:
        """The next cell atom not in the orbit of an explored sibling."""
        while self.next < len(self.cell):
            atom_idx = self.cell[self.next]
            self.next += 1
            if self.explored and self.generators:
                for gen in self.generators[self.applied :]:
                    for a, b in gen.items():
                        ra, rb = self._find(a), self._find(b)
                        if ra != rb:
                            self.parent[max(ra, rb)] = min(ra, rb)
                self.applied = len(self.generators)
                root = self._find(atom_idx)
                if any(self._find(u) == root for u in self.explored):
                    continue
            self.explored.append(atom_idx)
            return atom_idx
        return None


def canonical_ranks_reference(mol: Molecule) -> list[int]:
    """Assign each atom a unique rank in 0..n-1, independent of input order."""
    n = len(mol.atoms)
    if n == 0:
        return []
    adj = [[(b, int(order) * n) for b, order in row] for row in neighbor_lists(mol)]
    colors = _ref_refine(_ref_dense([(atom_label(a), len(adj[a.index])) for a in mol.atoms]), adj)
    if max(colors) == n - 1:
        return colors
    labels, bonds = _ref_graph(mol)

    # The first leaf and the best leaf so far, as (signature, colors, path).
    first = best = None
    leaves = work = 0
    stack = [_RefNode(colors, [])]
    path: list[int] = []  # path[j] is the atom individualized below stack[j]
    while stack:
        node = stack[-1]
        atom_idx = node.next_child()
        if atom_idx is None:
            stack.pop()
            if path:
                path.pop()
            continue
        work += n
        if work > _REF_MAX_WORK:
            raise CanonicalizationLimit(
                f"canonical ordering searched over {_REF_MAX_WORK // n} nodes of {n} atoms", 0
            )
        cell_color = node.cell_color
        colors = _ref_refine(
            [
                c if c < cell_color else (cell_color if a == atom_idx else c + 1)
                for a, c in enumerate(node.colors)
            ],
            adj,
            [atom_idx],
        )
        path.append(atom_idx)
        if max(colors) < n - 1:
            stack.append(_RefNode(colors, [g for g in node.generators if atom_idx not in g]))
            continue

        leaves += 1
        if leaves > _REF_MAX_LEAVES:
            raise CanonicalizationLimit(
                f"canonical ordering searched over {_REF_MAX_LEAVES} leaves", 0
            )
        sig = _ref_signature(labels, bonds, colors)
        ref = None
        if first is None:
            first = best = (sig, colors, path[:])
        elif sig == first[0]:
            ref = first
        elif sig == best[0]:
            ref = best
        elif sig < best[0]:
            best = (sig, colors, path[:])
        if ref is None:
            path.pop()
            continue
        # Equal signatures give an automorphism that maps this leaf's path onto
        # ref's. It fixes their common prefix and maps the subtree below it that
        # holds this leaf onto the one that holds ref, which is fully searched:
        # record it and return to the common ancestor.
        depth = 0
        while path[depth] == ref[2][depth]:
            depth += 1
        gen = _ref_automorphism(colors, ref[1])
        for ancestor in stack[: depth + 1]:
            ancestor.generators.append(gen)
        del stack[depth + 1 :]
        del path[depth:]

    assert best is not None
    return best[1]


def _ref_automorphism(colors: list[int], ref_colors: list[int]) -> dict[int, int]:
    """The atom map from one discrete coloring onto another, as {atom: image}
    over the atoms it moves."""
    at = [0] * len(ref_colors)
    for atom_idx, color in enumerate(ref_colors):
        at[color] = atom_idx
    return {a: at[c] for a, c in enumerate(colors) if at[c] != a}


def _ref_needs_bracket(atom: Atom) -> bool:
    if atom.charge != 0 or atom.explicit_h > 0:
        return True
    if atom.aromatic:
        return atom.element.lower() not in AROMATIC_ORGANIC
    return atom.element not in ORGANIC_SUBSET


def _ref_atom_token(atom: Atom) -> str:
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if not _ref_needs_bracket(atom):
        return symbol
    token = "[" + symbol
    if atom.explicit_h == 1:
        token += "H"
    elif atom.explicit_h > 1:
        token += f"H{atom.explicit_h}"
    if atom.charge:
        sign = "+" if atom.charge > 0 else "-"
        token += sign if abs(atom.charge) == 1 else f"{sign}{abs(atom.charge)}"
    return token + "]"


def _ref_bond_token(order: BondOrder, a: Atom, b: Atom) -> str:
    if order == BondOrder.SINGLE:
        # An implicit bond between two aromatic atoms reads back as aromatic,
        # so single bonds there (e.g. biphenyl) must be written out.
        return "-" if (a.aromatic and b.aromatic) else ""
    if order == BondOrder.DOUBLE:
        return "="
    if order == BondOrder.TRIPLE:
        return "#"
    return "" if (a.aromatic and b.aromatic) else ":"


def canonical_smiles_reference(mol: Molecule) -> str:
    """Permutation-invariant SMILES without stereochemistry."""
    n = len(mol.atoms)
    if n == 0:
        return ""
    ranks = canonical_ranks_reference(mol)
    adj: list[list[tuple[int, BondOrder]]] = neighbor_lists(mol)
    for row in adj:
        row.sort(key=lambda pair: ranks[pair[0]])

    # Depth-first spanning forest in rank order. Non-tree edges become ring
    # closures recorded as (open atom, close atom, order) in discovery order.
    visited = [False] * n
    preorder: list[int] = []
    components: list[tuple[int, dict[int, list[tuple[int, BondOrder]]]]] = []
    closure_list: list[tuple[int, int, BondOrder]] = []

    for start in sorted(range(n), key=lambda a: ranks[a]):
        if visited[start]:
            continue
        children: dict[int, list[tuple[int, BondOrder]]] = {start: []}
        used_edges: set[tuple[int, int]] = set()
        visited[start] = True
        preorder.append(start)
        stack = [(start, iter(adj[start]))]
        while stack:
            atom_idx, neighbor_iter = stack[-1]
            advanced = False
            for nbr, order in neighbor_iter:
                key = (atom_idx, nbr) if atom_idx < nbr else (nbr, atom_idx)
                if key in used_edges:
                    continue
                used_edges.add(key)
                if visited[nbr]:
                    closure_list.append((nbr, atom_idx, order))
                else:
                    visited[nbr] = True
                    preorder.append(nbr)
                    children[atom_idx].append((nbr, order))
                    children[nbr] = []
                    stack.append((nbr, iter(adj[nbr])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
        components.append((start, children))

    # Allocate ring-closure digits in string order; a digit frees up once its
    # closing atom has been rendered.
    opens_at: dict[int, list[int]] = {}
    closes_at: dict[int, list[int]] = {}
    for ci, (a_open, a_close, _) in enumerate(closure_list):
        opens_at.setdefault(a_open, []).append(ci)
        closes_at.setdefault(a_close, []).append(ci)
    digit_for: dict[int, int] = {}
    free_digits = list(range(1, 100))
    heapq.heapify(free_digits)
    for atom_idx in preorder:
        for ci in closes_at.get(atom_idx, ()):
            heapq.heappush(free_digits, digit_for[ci])
        for ci in opens_at.get(atom_idx, ()):
            if not free_digits:
                raise CanonicalizationLimit("more than 99 simultaneously open ring closures", 0)
            digit_for[ci] = heapq.heappop(free_digits)

    def digit_token(digit: int) -> str:
        return str(digit) if digit < 10 else f"%{digit:02d}"

    def closure_tokens(atom_idx: int) -> str:
        parts = []
        for ci in closes_at.get(atom_idx, ()):
            parts.append(digit_token(digit_for[ci]))
        for ci in opens_at.get(atom_idx, ()):
            a_open, a_close, order = closure_list[ci]
            bond = _ref_bond_token(order, mol.atoms[a_open], mol.atoms[a_close])
            parts.append(bond + digit_token(digit_for[ci]))
        return "".join(parts)

    def render(start: int, children: dict[int, list[tuple[int, BondOrder]]]) -> str:
        # Explicit stack of atoms still to render and literal text, so chain
        # depth is not bounded by the interpreter's recursion limit.
        parts: list[str] = []
        pending: list[int | str] = [start]
        while pending:
            item = pending.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(_ref_atom_token(mol.atoms[item]) + closure_tokens(item))
            kids = children[item]
            for pos in range(len(kids) - 1, -1, -1):
                child, order = kids[pos]
                bond = _ref_bond_token(order, mol.atoms[item], mol.atoms[child])
                if pos < len(kids) - 1:
                    pending += [")", child, "(" + bond]
                else:
                    pending += [child, bond]
        return "".join(parts)

    return ".".join(render(start, children) for start, children in components)


_REF_MAX_INPUT_LENGTH = 4096

_REF_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
}


@dataclass
class _RefPendingRing:
    atom: int
    order: BondOrder | None
    offset: int


def parse_smiles_reference(text: str) -> Molecule:
    """Parse ``text`` into a Molecule with aromatic ring membership and valence checked."""
    if text == "":
        raise EmptyInput("empty SMILES", 0)
    if len(text) > _REF_MAX_INPUT_LENGTH:
        raise SmilesSyntaxError(f"input longer than {_REF_MAX_INPUT_LENGTH} characters", _REF_MAX_INPUT_LENGTH)

    atoms: list[Atom] = []
    bonds: list[Bond] = []
    bond_keys: set[tuple[int, int]] = set()

    prev_atom: int | None = None
    pending_order: BondOrder | None = None
    pending_offset = -1
    branch_stack: list[tuple[int, int]] = []  # (atom index to return to, offset of '(')
    open_rings: dict[int, _RefPendingRing] = {}

    def add_bond(a: int, b: int, order: BondOrder, offset: int) -> None:
        key = (a, b) if a < b else (b, a)
        if a == b:
            raise UnmatchedRingBond("ring bond back to the same atom", offset)
        if key in bond_keys:
            raise UnmatchedRingBond(f"duplicate bond between atoms {key[0]} and {key[1]}", offset)
        bond_keys.add(key)
        bonds.append(Bond(key[0], key[1], order))

    def default_order(a: int, b: int) -> BondOrder:
        if atoms[a].aromatic and atoms[b].aromatic:
            return BondOrder.AROMATIC
        return BondOrder.SINGLE

    def attach_atom(atom: Atom, offset: int) -> None:
        nonlocal prev_atom, pending_order, pending_offset
        idx = len(atoms)
        atoms.append(atom)
        if prev_atom is not None:
            order = pending_order if pending_order is not None else default_order(prev_atom, idx)
            add_bond(prev_atom, idx, order, pending_offset if pending_order is not None else offset)
        elif pending_order is not None:
            raise SmilesSyntaxError("bond symbol with no preceding atom", pending_offset)
        pending_order = None
        prev_atom = idx

    def close_ring(num: int, offset: int) -> None:
        nonlocal pending_order
        if prev_atom is None:
            raise SmilesSyntaxError("ring-closure digit before any atom", offset)
        if num in open_rings:
            pending = open_rings.pop(num)
            order = pending.order
            if pending_order is not None:
                if order is not None and order != pending_order:
                    raise UnmatchedRingBond(
                        f"conflicting bond orders for ring closure {num}", offset
                    )
                order = pending_order
            if order is None:
                order = default_order(pending.atom, prev_atom)
            add_bond(pending.atom, prev_atom, order, offset)
        else:
            open_rings[num] = _RefPendingRing(prev_atom, pending_order, offset)
        pending_order = None

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        two = text[i : i + 2]
        if two in ("Cl", "Br"):
            attach_atom(Atom(element=two, index=len(atoms), offset=i), i)
            i += 2
        elif ch in "BCNOPSFI":
            attach_atom(Atom(element=ch, index=len(atoms), offset=i), i)
            i += 1
        elif ch in "bcnops":
            attach_atom(Atom(element=ch.upper(), aromatic=True, index=len(atoms), offset=i), i)
            i += 1
        elif ch == "[":
            atom, i = _ref_parse_bracket(text, i, len(atoms))
            attach_atom(atom, atom.offset)
        elif ch in _REF_BOND_SYMBOLS:
            if pending_order is not None:
                raise SmilesSyntaxError("two consecutive bond symbols", i)
            pending_order = _REF_BOND_SYMBOLS[ch]
            pending_offset = i
            i += 1
        elif ch in "/\\":
            warnings.warn(
                f"stereo bond mark '{ch}' at offset {i} ignored", SmilesFeatureWarning, stacklevel=2
            )
            if pending_order is not None:
                raise SmilesSyntaxError("two consecutive bond symbols", i)
            pending_order = BondOrder.SINGLE
            pending_offset = i
            i += 1
        elif ch == "(":
            if prev_atom is None:
                raise SmilesSyntaxError("branch before any atom", i)
            if pending_order is not None:
                raise SmilesSyntaxError("bond symbol before '('", pending_offset)
            branch_stack.append((prev_atom, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise UnclosedBranch("unmatched ')'", i)
            if pending_order is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'", pending_offset)
            prev_atom = branch_stack.pop()[0]
            i += 1
        elif ch.isdigit():
            close_ring(int(ch), i)
            i += 1
        elif ch == "%":
            if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
                raise SmilesSyntaxError("'%' must be followed by two digits", i)
            close_ring(int(text[i + 1 : i + 3]), i)
            i += 3
        elif ch == ".":
            if pending_order is not None:
                raise SmilesSyntaxError("bond symbol before '.'", pending_offset)
            prev_atom = None
            i += 1
        else:
            raise UnknownElement(f"unexpected character {ch!r}", i)

    if branch_stack:
        raise UnclosedBranch("unclosed '('", branch_stack[-1][1])
    if open_rings:
        num, pending = min(open_rings.items())
        raise UnmatchedRingBond(f"ring closure {num} never closed", pending.offset)
    if pending_order is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input", pending_offset)
    if not atoms:
        raise EmptyInput("no atoms in input", 0)

    mol = make_molecule(atoms, bonds)
    _ref_check_aromatic_membership(mol)
    issues = validate_valence_reference(mol)
    if issues:
        raise ValenceViolation(issues[0])
    return mol


def _ref_parse_bracket(text: str, start: int, index: int) -> tuple[Atom, int]:
    """Parse one bracket atom starting at ``text[start] == '['``; it becomes
    atom ``index``."""
    end = text.find("]", start)
    if end < 0:
        raise SmilesSyntaxError("unterminated bracket atom", start)
    body = text[start + 1 : end]
    i = 0
    n = len(body)

    isotope = 0
    while i < n and body[i].isdigit():
        isotope = isotope * 10 + int(body[i])
        i += 1
    if isotope:
        warnings.warn(
            f"isotope label at offset {start} ignored", SmilesFeatureWarning, stacklevel=3
        )

    if i >= n:
        raise SmilesSyntaxError("bracket atom without element symbol", start)
    aromatic = False
    sym_offset = start + 1 + i
    if body[i] in AROMATIC_ORGANIC:
        element = body[i].upper()
        aromatic = True
        i += 1
    elif body[i].isupper():
        element = body[i]
        i += 1
        if i < n and body[i].islower() and element + body[i] in KNOWN_ELEMENTS:
            element += body[i]
            i += 1
    else:
        raise UnknownElement(f"unknown element start {body[i]!r}", sym_offset)
    if element not in KNOWN_ELEMENTS:
        raise UnknownElement(f"unknown element {element!r}", sym_offset)

    while i < n and body[i] == "@":
        warnings.warn(
            f"chirality mark at offset {start} ignored", SmilesFeatureWarning, stacklevel=3
        )
        i += 1

    explicit_h = 0
    if i < n and body[i] == "H":
        i += 1
        if i < n and body[i].isdigit():
            explicit_h = 0
            while i < n and body[i].isdigit():
                explicit_h = explicit_h * 10 + int(body[i])
                i += 1
        else:
            explicit_h = 1

    charge = 0
    if i < n and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        symbol = body[i]
        i += 1
        if i < n and body[i].isdigit():
            magnitude = 0
            while i < n and body[i].isdigit():
                magnitude = magnitude * 10 + int(body[i])
                i += 1
        else:
            magnitude = 1
            while i < n and body[i] == symbol:
                magnitude += 1
                i += 1
        charge = sign * magnitude

    if i < n and body[i] == ":":
        i += 1
        if i >= n or not body[i].isdigit():
            raise SmilesSyntaxError("atom class ':' without digits", start + 1 + i)
        while i < n and body[i].isdigit():
            i += 1
        warnings.warn(
            f"atom class at offset {start} ignored", SmilesFeatureWarning, stacklevel=3
        )

    if i != n:
        raise SmilesSyntaxError(f"unexpected {body[i]!r} in bracket atom", start + 1 + i)

    atom = Atom(
        element=element,
        aromatic=aromatic,
        charge=charge,
        explicit_h=explicit_h,
        index=index,
        offset=start,
    )
    return atom, end + 1


def _ref_check_aromatic_membership(mol: Molecule) -> None:
    if not any(atom.aromatic for atom in mol.atoms) and not any(
        bond.order == BondOrder.AROMATIC for bond in mol.bonds
    ):
        return
    on_ring = ring_bonds_reference(mol)
    ring_atoms: set[int] = set()
    for bond, flag in zip(mol.bonds, on_ring):
        if flag:
            ring_atoms.update((bond.a, bond.b))
    for atom in mol.atoms:
        if atom.aromatic and atom.index not in ring_atoms:
            raise AromaticityError(
                f"aromatic atom {atom.index} is not in any ring", atom.offset
            )
    for bond, flag in zip(mol.bonds, on_ring):
        if bond.order == BondOrder.AROMATIC and not flag:
            a = mol.atoms[bond.a]
            raise AromaticityError(
                f"aromatic bond {bond.key()} is not in any ring", a.offset
            )


def validate_valence_reference(mol: Molecule) -> list[ValenceIssue]:
    """Return over-valent atoms (empty list when the molecule is fine).

    Each bond adds its integer order; aromatic bonds add 1 apiece plus one
    extra unit per atom belonging to an aromatic system, so a ring carbon in
    benzene totals 3 and keeps room for one hydrogen. Elements outside the
    valence table are not checked.
    """
    sums = [0] * len(mol.atoms)
    aromatic_member = [atom.aromatic for atom in mol.atoms]
    for bond in mol.bonds:
        order = 1 if bond.order == BondOrder.AROMATIC else int(bond.order)
        sums[bond.a] += order
        sums[bond.b] += order
        if bond.order == BondOrder.AROMATIC:
            aromatic_member[bond.a] = True
            aromatic_member[bond.b] = True

    issues: list[ValenceIssue] = []
    for atom in mol.atoms:
        allowed = max_valence(atom.element, atom.charge)
        if allowed is None:
            continue
        total = sums[atom.index] + atom.explicit_h
        if aromatic_member[atom.index]:
            total += 1
        if total > allowed:
            issues.append(
                ValenceIssue(
                    atom_index=atom.index,
                    element=atom.element,
                    valence=total,
                    allowed=allowed,
                    offset=atom.offset,
                )
            )
    return issues


def _ref_blocks(mol: Molecule) -> list[list[int]]:
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


def ring_bonds_reference(mol: Molecule) -> list[bool]:
    """Per bond, whether it lies on a ring (is not a bridge)."""
    flags = [False] * len(mol.bonds)
    for block in _ref_blocks(mol):
        if len(block) > 1:
            for e in block:
                flags[e] = True
    return flags


def count_fused_rings_reference(mol: Molecule) -> int:
    """Fused rings from the block pass: the sum of ``mu(B) = |E(B)| - |V(B)| + 1``
    over the blocks that hold two or more rings."""
    fused = 0
    for block in _ref_blocks(mol):
        atoms = {x for e in block for x in mol.bonds[e][:2]}
        mu = len(block) - len(atoms) + 1
        if mu >= 2:
            fused += mu
    return fused


def grow_chain_reference(b, rng, anchor: int, length: int) -> None:
    """``synthetic._grow_chain`` as first written, drawing each element with
    ``rng.choice`` and its probabilities."""
    import numpy as np

    from molchord.synthetic import _CHAIN_ELEMENTS

    current = anchor
    for _ in range(length):
        if b.free[current] <= 0:
            return
        elements = [e for e, _, _ in _CHAIN_ELEMENTS]
        weights = np.array([w for _, _, w in _CHAIN_ELEMENTS], dtype=float)
        element = str(rng.choice(elements, p=weights / weights.sum()))
        budget = dict((e, v) for e, v, _ in _CHAIN_ELEMENTS)[element]
        order = BondOrder.SINGLE
        if element == "C" and b.free[current] >= 2 and rng.random() < 0.15:
            order = BondOrder.DOUBLE
        new = b.add_atom(element, budget=budget)
        b.add_bond(current, new, order)
        current = new
