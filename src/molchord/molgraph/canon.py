"""Canonical atom ordering and the canonical SMILES writer.

Ordering uses iterative invariant refinement. Remaining ties are broken by a
depth-first search that individualizes each atom of the first tied class in
turn and keeps the labeling with the lexicographically smallest graph
signature. Two leaves with equal signatures define an automorphism that maps
the later leaf's path onto the earlier one's, so the subtree holding the later
leaf below their common ancestor is an image of one already searched and is
left. A child in the same orbit as an explored sibling, under the
automorphisms found so far that fix every atom individualized above it, is
skipped for the same reason (the orbit pruning of nauty and Traces; McKay &
Piperno, J. Symb. Comput. 2014). Neither loses a signature, so the minimum is
the one over all leaves: the result is invariant under any input atom
permutation, and two molecules share a canonical string exactly when their
labeled graphs are isomorphic.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import threading
import warnings
from typing import Callable, Iterable, Sequence

from .errors import CanonicalizationLimit, SmilesError, SmilesFeatureWarning
from .model import AROMATIC_ORGANIC, ORGANIC_SUBSET, Atom, BondOrder, Molecule
from .parser import parse_smiles

_MAX_LEAVES = 50_000
# Search nodes times atoms: each node refines a coloring of every atom, and k
# identical components cost about k**2 / 2 nodes, which no leaf cap counts. A
# tert-butyl chain of 20 groups takes under 100,000 and 100 methanes 505,000.
_MAX_WORK = 300_000
# More entries than the rows of a production-size record file, so a file and
# every later file that repeats its strings parse each string once.
_MEMO_SIZE = 65_536
# One fork, pipe and child exit from a stage process: median 4-6 ms, slowest
# of 40 25-31 ms, on a 2-vCPU Xeon VM. ``fan_out`` forks only when it expects
# to save _FORK_PAYOFF medians, so a slow fork still pays.
_FORK_S = 0.005
_FORK_PAYOFF = 10
# One parse plus canonicalization of a drug-sized string there.
_CANONICALIZE_S = 0.0005


def _dense(keys: list) -> list[int]:
    order = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(
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
        touched = _touched(moved, adj, class_of)
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
        touched = _touched(moved, adj, class_of)
    return [pos[c] for c in class_of]


def _touched(
    moved: list[int], adj: list[list[tuple[int, int]]], class_of: list[int]
) -> dict[int, set[int]]:
    """The neighbors of ``moved``, grouped by class: the atoms whose keys may
    now differ from their classmates'."""
    touched: dict[int, set[int]] = {}
    for a in moved:
        for b, _ in adj[a]:
            touched.setdefault(class_of[b], set()).add(b)
    return touched


def _signature(
    labels: list[tuple], bonds: list[tuple[int, int, int]], colors: list[int]
) -> tuple:
    position = [0] * len(colors)
    for atom_idx, color in enumerate(colors):
        position[color] = atom_idx
    atom_part = tuple([labels[a] for a in position])
    ends = [(colors[a], colors[b], order) for a, b, order in bonds]
    bond_part = tuple(sorted([(min(x, y), max(x, y), order) for x, y, order in ends]))
    return (atom_part, bond_part)


def _graph(mol: Molecule) -> tuple[list[tuple], list[tuple[int, int, int]]]:
    return [a.label() for a in mol.atoms], [(b.a, b.b, int(b.order)) for b in mol.bonds]


class _Node:
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


def canonical_ranks(mol: Molecule) -> list[int]:
    """Assign each atom a unique rank in 0..n-1, independent of input order."""
    n = len(mol.atoms)
    if n == 0:
        return []
    adj = [[(b, int(order) * n) for b, order in row] for row in mol.neighbors()]
    colors = _refine(_dense([(a.label(), len(adj[a.index])) for a in mol.atoms]), adj)
    if max(colors) == n - 1:
        return colors
    labels, bonds = _graph(mol)

    # The first leaf and the best leaf so far, as (signature, colors, path).
    first = best = None
    leaves = work = 0
    stack = [_Node(colors, [])]
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
        if work > _MAX_WORK:
            raise CanonicalizationLimit(
                f"canonical ordering searched over {_MAX_WORK // n} nodes of {n} atoms", 0
            )
        cell_color = node.cell_color
        colors = _refine(
            [
                c if c < cell_color else (cell_color if a == atom_idx else c + 1)
                for a, c in enumerate(node.colors)
            ],
            adj,
            [atom_idx],
        )
        path.append(atom_idx)
        if max(colors) < n - 1:
            stack.append(_Node(colors, [g for g in node.generators if atom_idx not in g]))
            continue

        leaves += 1
        if leaves > _MAX_LEAVES:
            raise CanonicalizationLimit(
                f"canonical ordering searched over {_MAX_LEAVES} leaves", 0
            )
        sig = _signature(labels, bonds, colors)
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
        gen = _automorphism(colors, ref[1])
        for ancestor in stack[: depth + 1]:
            ancestor.generators.append(gen)
        del stack[depth + 1 :]
        del path[depth:]

    assert best is not None
    return best[1]


def _automorphism(colors: list[int], ref_colors: list[int]) -> dict[int, int]:
    """The atom map from one discrete coloring onto another, as {atom: image}
    over the atoms it moves."""
    at = [0] * len(ref_colors)
    for atom_idx, color in enumerate(ref_colors):
        at[color] = atom_idx
    return {a: at[c] for a, c in enumerate(colors) if at[c] != a}


def _needs_bracket(atom: Atom) -> bool:
    if atom.charge != 0 or atom.explicit_h > 0:
        return True
    if atom.aromatic:
        return atom.element.lower() not in AROMATIC_ORGANIC
    return atom.element not in ORGANIC_SUBSET


def _atom_token(atom: Atom) -> str:
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if not _needs_bracket(atom):
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


def _bond_token(order: BondOrder, a: Atom, b: Atom) -> str:
    if order == BondOrder.SINGLE:
        # An implicit bond between two aromatic atoms reads back as aromatic,
        # so single bonds there (e.g. biphenyl) must be written out.
        return "-" if (a.aromatic and b.aromatic) else ""
    if order == BondOrder.DOUBLE:
        return "="
    if order == BondOrder.TRIPLE:
        return "#"
    return "" if (a.aromatic and b.aromatic) else ":"


def canonical_smiles(mol: Molecule) -> str:
    """Permutation-invariant SMILES without stereochemistry."""
    n = len(mol.atoms)
    if n == 0:
        return ""
    ranks = canonical_ranks(mol)
    adj: list[list[tuple[int, BondOrder]]] = mol.neighbors()
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
            bond = _bond_token(order, mol.atoms[a_open], mol.atoms[a_close])
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
            parts.append(_atom_token(mol.atoms[item]) + closure_tokens(item))
            kids = children[item]
            for pos in range(len(kids) - 1, -1, -1):
                child, order = kids[pos]
                bond = _bond_token(order, mol.atoms[item], mol.atoms[child])
                if pos < len(kids) - 1:
                    pending += [")", child, "(" + bond]
                else:
                    pending += [child, bond]
        return "".join(parts)

    return ".".join(render(start, children) for start, children in components)


# Results by raw string, each dict bounded at _MEMO_SIZE entries (the oldest
# goes first). ``_memo`` holds the strings known to canonicalize with no error
# and no warning: those ``prefetch_canonical`` computed or ``seed_canonical``
# was given. ``_called`` holds the ones ``canonicalize`` computed itself,
# which may have warned. ``_failed`` keeps the exception of each string the
# last prefetch saw raise, for the next ``canonicalize`` call of that string.
_memo: dict[str, str] = {}
_called: dict[str, str] = {}
_failed: dict[str, SmilesError] = {}
_memo_lock = threading.Lock()


def _remember(memo: dict[str, str], text: str, canon: str) -> None:
    with _memo_lock:
        if text not in memo and len(memo) >= _MEMO_SIZE:
            del memo[next(iter(memo))]  # the oldest entry
        memo[text] = canon


def canonicalize(text: str) -> str:
    """Canonical SMILES of ``text``, memoized per process.

    Every raw -> canonical conversion goes through here, so record files that
    share strings, dock requests and sampled candidates parse and
    canonicalize each distinct string once. ``prefetch_canonical`` and
    ``seed_canonical`` may fill the memo ahead of the calls, and
    ``canonicalize.cache_clear()`` empties it. Only results are kept: an
    invalid string raises its ``SmilesError`` on every call (the first one
    after a prefetch raises the exception the prefetch computed), and a
    ``SmilesFeatureWarning`` is emitted by the first call only.
    """
    canon = _memo.get(text) or _called.get(text)
    if canon is None:
        failure = _failed.pop(text, None)
        if failure is not None:
            raise failure
        canon = canonical_smiles(parse_smiles(text))
        _remember(_called, text, canon)
    return canon


def _cache_clear() -> None:
    _memo.clear()
    _called.clear()
    _failed.clear()


canonicalize.cache_clear = _cache_clear


def try_canonicalize(text: str) -> str | None:
    """``canonicalize`` for screening sampled strings, quiet as ``try_parse``:
    None on any ``SmilesError`` (the search caps included), feature warnings
    muted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmilesFeatureWarning)
        try:
            return canonicalize(text)
        except SmilesError:
            return None


def _clean_canonical(texts: list[str]) -> list[str | None]:
    """Each string's canonical form, or None where it raised or warned. In
    the calling process, each ``SmilesError`` is kept in ``_failed``."""
    out: list[str | None] = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", SmilesFeatureWarning)
        for text in texts:
            try:
                out.append(canonical_smiles(parse_smiles(text)))
            except SmilesError as exc:
                _failed[text] = exc.with_traceback(None)
                out.append(None)
            except Exception:  # a warning: the caller's own ``canonicalize`` warns
                out.append(None)
    return out


def prefetch_canonical(texts: Iterable[str]) -> dict[str, str]:
    """Seed the memo with the distinct strings of ``texts`` that it does not
    know to be clean, canonicalized in shares across the CPUs (``fan_out``),
    and return the canonical form of every distinct string of ``texts``
    known to canonicalize with no error and no warning.

    A string that warns is left out, so its first ``canonicalize`` call warns
    exactly as it would have without the prefetch. One that raises is left
    out too, but when this process computed it (not a forked child), its
    exception is kept for the next ``canonicalize`` call of the string, which
    raises it without computing it again.
    """
    distinct = list(dict.fromkeys(texts))
    todo = [text for text in distinct if text not in _memo][:_MEMO_SIZE]
    _failed.clear()
    for text, canon in zip(todo, fan_out(_clean_canonical, todo, len(todo) * _CANONICALIZE_S)):
        if canon is not None:
            _remember(_memo, text, canon)
    return {text: _memo[text] for text in distinct if text in _memo}


def seed_canonical(known: dict[str, str]) -> None:
    """Put raw -> canonical pairs that ``prefetch_canonical`` returned, in
    this process or an earlier one, into the memo. Strings it already holds
    keep their canonical objects, which earlier records share."""
    for text, canon in known.items():
        if text not in _memo:
            _remember(_memo, text, canon)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return 1


def fan_out(work: Callable[[list], list], items: Sequence, seconds: float) -> list:
    """``work(items)``, computed in contiguous shares by forked children when
    that pays.

    ``work`` maps a list of items to one JSON value per item, and ``seconds``
    is its estimated serial time. With more than one usable CPU, ``os.fork``
    available, no other thread alive and an expected saving of at least
    ``_FORK_PAYOFF`` fork round trips, the parent computes the first share
    while each child computes one other and sends its results back through a
    pipe as JSON (floats round-trip exactly). Children turn every warning
    into an error and leave by ``os._exit``. A share whose child raised,
    warned, exited non-zero or was killed is recomputed by the parent after
    the shares before it, so the first exception and every warning are those
    of a serial run. Every child is reaped before this returns or raises.
    """
    items = list(items)
    n = min(_usable_cpus(), len(items))
    if (
        n < 2
        or not hasattr(os, "fork")
        or threading.active_count() > 1
        or seconds * (1 - 1 / n) < _FORK_PAYOFF * _FORK_S
    ):
        return work(items)
    bounds = [len(items) * i // n for i in range(n + 1)]
    shares = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    children: dict[int, tuple[int, int] | None] = {}
    try:
        for i in range(1, n):
            children[i] = _fork(work, shares[i])
        results = work(shares[0])
        for i in range(1, n):
            child = children.pop(i)
            got = None if child is None else _collect(*child)
            results += work(shares[i]) if got is None else got
        return results
    finally:
        for child in children.values():  # only after an exception
            if child is not None:
                pid, read_fd = child
                os.kill(pid, signal.SIGKILL)
                os.close(read_fd)
                os.waitpid(pid, 0)


def _fork(work: Callable[[list], list], share: list) -> tuple[int, int] | None:
    """Start a child that writes ``work(share)`` as JSON to a pipe; its pid and
    the pipe's read end, or None when no process could be started."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            warnings.simplefilter("error")
            data = json.dumps(work(share)).encode()
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)  # no inherited buffers flushed, no exit handlers run
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, read_fd: int) -> list | None:
    """Read a child's results and reap it; None unless it exited 0."""
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return json.loads(data) if status == 0 else None
