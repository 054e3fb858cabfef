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
import os
import threading
import warnings
from typing import Callable, Iterable, Sequence

from .errors import CanonicalizationLimit, SmilesError, SmilesFeatureWarning
from .model import AROMATIC_ORGANIC, ORGANIC_SUBSET, Molecule
from .parser import parse_smiles

# Search nodes times atoms: each node refines a coloring of every atom, and k
# identical components cost about k**2 / 2 nodes. A tert-butyl chain of 20
# groups takes under 100,000 and 100 methanes 505,000. Every leaf is a node,
# so the cap bounds the leaves too.
_MAX_WORK = 300_000
# More entries than the rows of a production-size record file, so a file and
# every later file that repeats its strings parse each string once.
_MEMO_SIZE = 65_536
# One fork, pipe and child exit from a stage process: median 4-6 ms, slowest
# of 40 25-31 ms, on a 2-vCPU Xeon VM. ``fan_out`` forks only when it expects
# to save _FORK_PAYOFF medians, so a slow fork still pays.
_FORK_S = 0.005
_FORK_PAYOFF = 10
# One parse plus canonicalization of a drug-sized string there: 0.18 ms per
# distinct import-eval string (seed 7, one CPU, median of 5 passes).
_CANONICALIZE_S = 0.0002


def _starts(keys: list) -> dict:
    """Each distinct key's cell start: the number of atoms with a smaller key,
    i.e. where its cell starts when the atoms are listed by key."""
    start: dict = {}
    for key in keys:
        start[key] = start.get(key, 0) + 1
    total = 0
    for key in sorted(start):  # the distinct keys, few
        start[key], total = total, total + start[key]
    return start


def _cells(keys: list) -> list[int]:
    """Each atom's color for its key: where its cell starts (``_starts``)."""
    start = _starts(keys)
    return [start[key] for key in keys]


def _refine(
    colors: list[int], adj: list[list[tuple[int, int]]], moved: list[int] | None = None
) -> int:
    """Refine ``colors`` in place until no cell splits; return the number of cells.

    A color is the start of its atom's cell in the atom order by color, so a
    cell that splits renumbers its own atoms only. ``adj[a]`` lists
    ``(neighbor, bond order * n)``. Each round keys every atom by the sorted
    ``bond order * n + color`` values of its neighbors and splits each cell
    in key order. Only an atom next to an atom that changed cell in the last
    round can get a key that differs from its cellmates', so a round rekeys
    those atoms alone; the rest of their cell shares one key, and the atoms
    of the largest part of a split do not count as changed. The result is
    the coloring that rekeying every atom each round reaches, with each cell
    numbered by its start instead of its rank. ``moved`` names the atoms that
    changed cell in a partition that was already refined, or is None when
    ``colors`` never was.
    """
    n = len(colors)
    members: list[list[int]] = [[] for _ in range(n)]
    for atom_idx, color in enumerate(colors):
        members[color].append(atom_idx)
    cells = n - members.count([])
    if moved is None:
        touched = {c: group for c, group in enumerate(members) if len(group) > 1}
    while True:
        if moved is not None:
            # the neighbors of the moved atoms in cells of two or more
            touched = {}
            for a in moved:
                for b, _ in adj[a]:
                    c = colors[b]
                    if len(members[c]) > 1:
                        if c in touched:
                            touched[c].add(b)
                        else:
                            touched[c] = {b}
        splits = []
        for c, atoms in touched.items():
            group = members[c]
            keyed: dict[tuple, list[int]] = {}
            if len(atoms) < len(group):
                rest = [a for a in group if a not in atoms]
                keyed[_key(adj[rest[0]], colors)] = rest
            for a in atoms:
                key = _key(adj[a], colors)
                if key in keyed:
                    keyed[key].append(a)
                else:
                    keyed[key] = [a]
            if len(keyed) > 1:
                splits.append((c, [keyed[key] for key in sorted(keyed)]))
        if not splits:
            return cells
        moved = []
        for c, parts in splits:
            largest = max(parts, key=len)
            for part in parts:
                if c != colors[part[0]]:
                    for a in part:
                        colors[a] = c
                members[c] = part
                if part is not largest:
                    moved += part
                c += len(part)
            cells += len(parts) - 1


def _key(row: list[tuple[int, int]], colors: list[int]) -> tuple:
    """The sorted ``bond order * n + color`` values of an atom's neighbors."""
    if len(row) == 1:
        return (row[0][1] + colors[row[0][0]],)
    if len(row) == 2:
        x = row[0][1] + colors[row[0][0]]
        y = row[1][1] + colors[row[1][0]]
        return (x, y) if x <= y else (y, x)
    return tuple(sorted([w + colors[b] for b, w in row]))


def _signature(labels: list[int], bonds: list[tuple[int, int, int]], colors: list[int]) -> list[int]:
    """The graph as numbered by a discrete coloring: each position's atom label,
    then the sorted bonds, each ``(low end, high end, order)`` packed into one
    integer that sorts as the tuple would."""
    n = len(colors)
    position = [0] * n
    for atom_idx, color in enumerate(colors):
        position[color] = atom_idx
    width = 5 * n
    ends = []
    for a, b, order in bonds:
        x, y = colors[a], colors[b]
        ends.append(x * width + y * 5 + order if x < y else y * width + x * 5 + order)
    ends.sort()
    return [labels[a] for a in position] + ends


class _Node:
    """One search-tree node: its refined colors, the tied cell whose atoms are
    its children, and the automorphisms found so far that fix every atom
    individualized on the path to it (as {atom: image} over moved atoms)."""

    def __init__(self, colors: list[int], generators: list[dict[int, int]]):
        self.colors = colors
        sizes = [0] * len(colors)
        for color in colors:
            sizes[color] += 1
        self.cell_color = next(c for c, size in enumerate(sizes) if size > 1)
        self.cell = [a for a, c in enumerate(colors) if c == self.cell_color]
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
    if not mol.atoms:
        return []
    return _ranks(mol, _number_labels(mol)[1])


def _number_labels(mol: Molecule) -> tuple[dict[tuple, int], list[int]]:
    """The number of each distinct atom label (element, aromatic, charge,
    explicit_h) and each atom's label number. A number is its label's cell
    start (``_starts``), so numbers sort as the labels do."""
    keys = [atom[:4] for atom in mol.atoms]
    start = _starts(keys)
    return start, [start[key] for key in keys]


def _ranks(mol: Molecule, labels: list[int]) -> list[int]:
    """``canonical_ranks`` of a molecule of one or more atoms, given its label
    numbers: every comparison of labels below is one of integers."""
    n = len(mol.atoms)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, order in mol.bonds:
        adj[a].append((b, order * n))
        adj[b].append((a, order * n))
    colors = _cells([label * n + len(row) for label, row in zip(labels, adj)])
    if _refine(colors, adj) == n:
        return colors
    bonds = [(a, b, int(order)) for a, b, order in mol.bonds]

    # The first leaf and the best leaf so far, as (signature, colors, path).
    first = best = None
    work = 0
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
        # individualize: atom_idx keeps the cell's start, its cellmates move one up
        colors = node.colors[:]
        for a in node.cell:
            colors[a] = node.cell_color + 1
        colors[atom_idx] = node.cell_color
        discrete = _refine(colors, adj, [atom_idx]) == n
        path.append(atom_idx)
        if not discrete:
            stack.append(_Node(colors, [g for g in node.generators if atom_idx not in g]))
            continue

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


# Bond tokens by order, as (otherwise, between two aromatic atoms): an
# implicit bond between two aromatic atoms reads back as aromatic, so a single
# bond there (biphenyl) is written out, and an aromatic one elsewhere is ':'.
_BOND_TOKENS = (None, ("", "-"), ("=", "="), ("#", "#"), (":", ""))
_DIGITS = [""] + [str(d) if d < 10 else f"%{d}" for d in range(1, 100)]
# Atom tokens by label (element, aromatic, charge, explicit_h), a few
# thousand at most.
_ATOM_TOKENS: dict[tuple, str] = {}
_ATOM_TOKENS_SIZE = 4096


def _atom_token(label: tuple) -> str:
    element, aromatic, charge, explicit_h = label
    symbol = element.lower() if aromatic else element
    if charge == 0 and explicit_h <= 0 and (
        symbol in AROMATIC_ORGANIC if aromatic else element in ORGANIC_SUBSET
    ):
        token = symbol
    else:
        token = "[" + symbol
        if explicit_h == 1:
            token += "H"
        elif explicit_h > 1:
            token += f"H{explicit_h}"
        if charge:
            sign = "+" if charge > 0 else "-"
            token += sign if abs(charge) == 1 else f"{sign}{abs(charge)}"
        token += "]"
    if len(_ATOM_TOKENS) < _ATOM_TOKENS_SIZE:
        _ATOM_TOKENS[label] = token
    return token


def canonical_smiles(mol: Molecule) -> str:
    """Permutation-invariant SMILES without stereochemistry.

    Works on atoms by canonical rank: each atom's neighbors are one sorted
    list of ``rank * 8 + bond order`` integers, so a depth-first search in
    rank order visits them by rank. The atom labels are numbered once, for
    the ranking and the writer both, and each distinct label's token is
    looked up once.
    """
    n = len(mol.atoms)
    if n == 0:
        return ""
    start, labels = _number_labels(mol)
    ranks = _ranks(mol, labels)
    token_at = [""] * n  # by label number
    aromatic_at = [False] * n
    for label, number in start.items():
        token_at[number] = _ATOM_TOKENS.get(label) or _atom_token(label)
        aromatic_at[number] = label[1]
    tokens = [""] * n
    aromatic = [False] * n
    for number, r in zip(labels, ranks):
        tokens[r] = token_at[number]
        aromatic[r] = aromatic_at[number]
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b, order in mol.bonds:
        ra, rb = ranks[a], ranks[b]
        adj[ra].append(rb * 8 + order)
        adj[rb].append(ra * 8 + order)
    for row in adj:
        row.sort()

    # One depth-first pass from each unvisited atom in rank order writes the
    # string: each atom's text (its bond from the parent and its token) is
    # one item of ``parts``. When an atom's second or later child is found,
    # the previous child's subtree is complete, so it is wrapped in
    # parentheses there. A bond to an atom seen earlier that is not the
    # parent closes a ring, recorded as (open atom, close atom, order) in
    # discovery order; one to an atom seen later was recorded from that side.
    # Ring digits are added to their atoms' items at the end.
    parts: list[str] = []
    item = [0] * n  # each atom's index in parts
    seen = [-1] * n  # preorder number
    parent = [-1] * n
    last_child = [-1] * n
    preorder: list[int] = []
    closures: list[tuple[int, int, int]] = []
    for root in range(n):
        if seen[root] >= 0:
            continue
        if parts:
            parts.append(".")
        seen[root] = len(preorder)
        preorder.append(root)
        item[root] = len(parts)
        parts.append(tokens[root])
        trail = [root]
        scans = [iter(adj[root])]
        while scans:
            u = trail[-1]
            for x in scans[-1]:
                v = x >> 3
                if seen[v] < 0:
                    break
                if seen[v] < seen[u] and v != parent[u]:
                    closures.append((v, u, x & 7))
            else:
                trail.pop()
                scans.pop()
                continue
            sibling = last_child[u]
            if sibling >= 0:
                parts[item[sibling]] = "(" + parts[item[sibling]]
                parts.append(")")
            last_child[u] = v
            parent[v] = u
            seen[v] = len(preorder)
            preorder.append(v)
            item[v] = len(parts)
            parts.append(_BOND_TOKENS[x & 7][aromatic[u] and aromatic[v]] + tokens[v])
            trail.append(v)
            scans.append(iter(adj[v]))
    if closures:
        for atom, text in _ring_text(closures, preorder, aromatic).items():
            parts[item[atom]] += text
    return "".join(parts)


def _ring_text(
    closures: list[tuple[int, int, int]], preorder: list[int], aromatic: list[bool]
) -> dict[int, str]:
    """The ring-closure digits written after each atom that has any: the
    digits it closes, then the bond and digit of each it opens. Digits are
    allocated in string order, lowest free first; a digit frees up once its
    closing atom has been written."""
    opens_at: dict[int, list[int]] = {}
    closes_at: dict[int, list[int]] = {}
    for ci, (a_open, a_close, _) in enumerate(closures):
        opens_at.setdefault(a_open, []).append(ci)
        closes_at.setdefault(a_close, []).append(ci)
    digit_for = [0] * len(closures)
    free_digits = list(range(1, 100))
    text: dict[int, str] = {}
    for atom in preorder:
        closing = closes_at.get(atom, ())
        opening = opens_at.get(atom, ())
        if not (closing or opening):
            continue
        parts = []
        for ci in closing:
            heapq.heappush(free_digits, digit_for[ci])
            parts.append(_DIGITS[digit_for[ci]])
        for ci in opening:
            if not free_digits:
                raise CanonicalizationLimit("more than 99 simultaneously open ring closures", 0)
            digit_for[ci] = heapq.heappop(free_digits)
            a_open, a_close, order = closures[ci]
            bond = _BOND_TOKENS[order][aromatic[a_open] and aromatic[a_close]]
            parts.append(bond + _DIGITS[digit_for[ci]])
        text[atom] = "".join(parts)
    return text


# Results by raw string, each dict bounded at _MEMO_SIZE entries (the oldest
# goes first). ``_memo`` holds the strings known to canonicalize with no error
# and no warning: those ``prefetch_canonical`` computed or ``seed_canonical``
# was given. ``_called`` holds the ones ``canonicalize`` computed itself,
# which may have warned. A string that raised is in neither.
_memo: dict[str, str] = {}
_called: dict[str, str] = {}
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
    invalid string is computed again and raises its ``SmilesError`` on every
    call, and a ``SmilesFeatureWarning`` is emitted by the first call only.
    """
    canon = _memo.get(text) or _called.get(text)
    if canon is None:
        canon = canonical_smiles(parse_smiles(text))
        _remember(_called, text, canon)
    return canon


def _cache_clear() -> None:
    _memo.clear()
    _called.clear()


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
    """Each string's canonical form, or None where it raised or warned: the
    caller's own ``canonicalize`` call computes it again and raises or warns."""
    out: list[str | None] = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", SmilesFeatureWarning)
        for text in texts:
            try:
                out.append(canonical_smiles(parse_smiles(text)))
            except Exception:  # any error or warning, met again in line order
                out.append(None)
    return out


def prefetch_canonical(texts: Iterable[str]) -> dict[str, str]:
    """Seed the memo with the distinct strings of ``texts`` that it does not
    know to be clean, canonicalized in shares across the CPUs (``fan_out``),
    and return the canonical form of every distinct string of ``texts``
    known to canonicalize with no error and no warning.

    A string that warns or raises is left out: as ``fan_out`` does with a
    child's share that did not finish cleanly, its ``canonicalize`` call
    computes it again and warns or raises as it would have without this.
    """
    distinct = list(dict.fromkeys(texts))
    todo = [text for text in distinct if text not in _memo][:_MEMO_SIZE]
    for text, result in zip(todo, fan_out(_clean_canonical, todo, len(todo) * _CANONICALIZE_S)):
        if result is not None:
            _remember(_memo, text, result)
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
    import signal  # here, so a process that never forks starts without it

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
    import json  # before the fork, so the child inherits it
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
    import json
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return json.loads(data) if status == 0 else None
