"""Barnes: hierarchical Barnes-Hut N-body from SPLASH (Section 4.2).

"Each leaf of the program's tree represents a body, and each internal
node a 'cell': a collection of bodies in close physical proximity.  The
major shared data structures are two arrays, one representing the bodies
and the other representing the cells.  The Barnes-Hut tree construction
is performed sequentially, while all other phases are parallelized...
Synchronization consists of barriers between phases."

Bodies are 9 doubles (position, velocity, acceleration), so ~113 bodies
share one 8 KB page and the interleaved assignment of bodies to
processors produces heavy multi-writer false sharing — the pattern on
which the paper reports Cashmere beating TreadMarks (home-node merging
replaces diff exchanges among all writers of a page).  The sequential
tree build on processor 0 is the serial fraction that makes Barnes stop
scaling past 16 processors in the paper.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.config import WorkingSet
from repro.core import Program, Region, SharedArray
from repro.apps import kernels
from repro.apps.common import deterministic_rng, pick_scale

THETA = 0.6  # opening angle
US_PER_INTERACTION = 10.0  # one gravity interaction (the paper's
# 128K-body traversals are ~10x deeper; this keeps per-body work comparable)
US_PER_TREE_NODE = 8.0  # sequential tree construction per insertion
DT = 0.025
BODY_FIELDS = 9  # pos(3) + vel(3) + acc(3)
CELL_FIELDS = 16  # mass, com(3), half, children(8), body, padding(2)
CHUNK = 4  # bodies are handed out in interleaved chunks of this size


def default_params(scale: str = "small") -> Dict:
    """Scaled-down versions of the paper's 128K-body run."""
    sizes = {
        "tiny": dict(n_bodies=64, steps=2),
        "small": dict(n_bodies=1024, steps=2),
        "large": dict(n_bodies=2048, steps=2),
        # The octree build serializes in pure Python, so 4096 bodies is
        # the overnight ceiling (the paper runs 128K on real hardware).
        "xlarge": dict(n_bodies=4096, steps=3),
    }
    return pick_scale(sizes, scale)


@dataclass
class _Cell:
    """One Barnes-Hut octree cell (built privately, then published)."""

    center: np.ndarray
    half: float
    mass: float = 0.0
    com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    children: List[Optional[int]] = field(default_factory=lambda: [None] * 8)
    body: Optional[int] = None  # leaf payload


def setup(space, params: Dict) -> Dict:
    n = params["n_bodies"]
    rng = deterministic_rng(params.get("seed", 1997))
    bodies = SharedArray.alloc(
        space, "barnes_bodies", np.float64, (n, BODY_FIELDS)
    )
    init = np.zeros((n, BODY_FIELDS))
    init[:, 0:3] = rng.random((n, 3)) * 2.0 - 1.0  # positions
    init[:, 3:6] = (rng.random((n, 3)) - 0.5) * 0.1  # velocities
    bodies.initialize(init)
    # The cell array: mass, com(3), half, children(8 indices), body,
    # padded to 16 doubles so 64 cells tile an 8 KB page exactly.  A
    # Barnes-Hut octree holds ~1.5 cells per body; 2.5x is headroom.
    max_cells = (5 * n) // 2
    cells = SharedArray.alloc(
        space, "barnes_cells", np.float64, (max_cells, CELL_FIELDS)
    )
    cells.initialize(np.zeros((max_cells, CELL_FIELDS)))
    masses = np.ones(n) / n
    return {"bodies": bodies, "cells": cells, "masses": masses, "max_cells": max_cells}


def _build_tree(positions: np.ndarray, masses: np.ndarray) -> List[_Cell]:
    """Sequential Barnes-Hut tree build; returns the flattened cells."""
    center = (positions.max(axis=0) + positions.min(axis=0)) / 2.0
    half = float((positions.max(axis=0) - positions.min(axis=0)).max()) / 2.0
    half = max(half, 1e-6) * 1.01
    cells: List[_Cell] = [_Cell(center=center.copy(), half=half)]

    def octant(cell: _Cell, pos: np.ndarray) -> int:
        index = 0
        for axis in range(3):
            if pos[axis] > cell.center[axis]:
                index |= 1 << axis
        return index

    def child_center(cell: _Cell, index: int) -> np.ndarray:
        offset = np.array(
            [
                cell.half / 2 if index & (1 << axis) else -cell.half / 2
                for axis in range(3)
            ]
        )
        return cell.center + offset

    def insert(cell_idx: int, body: int) -> None:
        cell = cells[cell_idx]
        if cell.body is None and all(c is None for c in cell.children):
            if cell.mass == 0.0:
                cell.body = body
                cell.mass = masses[body]
                cell.com = positions[body].copy()
                return
        if cell.body is not None:
            old = cell.body
            cell.body = None
            _push_down(cell_idx, old)
        _push_down(cell_idx, body)
        cell.mass += masses[body]

    def _push_down(cell_idx: int, body: int) -> None:
        cell = cells[cell_idx]
        index = octant(cell, positions[body])
        if cell.children[index] is None:
            child = _Cell(
                center=child_center(cell, index), half=cell.half / 2
            )
            cells.append(child)
            cell.children[index] = len(cells) - 1
        insert(cell.children[index], body)

    for body in range(len(positions)):
        root = cells[0]
        if root.body is None and all(c is None for c in root.children):
            if root.mass == 0.0:
                root.body = body
                root.mass = masses[body]
                root.com = positions[body].copy()
                continue
        insert(0, body)

    _summarize(cells, 0, positions, masses)
    return cells


def _summarize(cells: List[_Cell], idx: int, positions, masses) -> None:
    cell = cells[idx]
    if cell.body is not None:
        cell.mass = masses[cell.body]
        cell.com = positions[cell.body].copy()
        return
    total = 0.0
    com = np.zeros(3)
    for child_idx in cell.children:
        if child_idx is None:
            continue
        _summarize(cells, child_idx, positions, masses)
        child = cells[child_idx]
        total += child.mass
        com += child.mass * child.com
    cell.mass = total
    cell.com = com / total if total > 0 else cell.center.copy()


def _encode_cells(cells: List[_Cell], max_cells: int) -> np.ndarray:
    if len(cells) > max_cells:
        raise RuntimeError("cell array overflow; raise max_cells")
    out = np.zeros((max_cells, CELL_FIELDS))
    for i, cell in enumerate(cells):
        out[i, 0] = cell.mass
        out[i, 1:4] = cell.com
        out[i, 4] = cell.half
        out[i, 5:13] = [
            -1.0 if c is None else float(c) for c in cell.children
        ]
        out[i, 13] = -1.0 if cell.body is None else float(cell.body)
    return out


class _TreePages:
    """One processor's decoded copy of the published cell array.

    A tree page is read from shared memory the first time a traversal
    touches it and decoded once into flat per-cell columns: NumPy arrays
    for the batched distance computation, and memoryviews over them for
    the walk's reads as Python numbers.
    """

    def __init__(self, max_cells: int, page_rows: int):
        self.page_rows = page_rows
        self.max_cells = max_cells
        self.loaded = bytearray(max_cells)
        self.top = 0  # every decoded row lies below this one
        self._com = np.zeros((max_cells, 3))
        self._mass = np.zeros(max_cells)
        self._open2 = np.zeros(max_cells)
        self._leaf = np.zeros(max_cells, np.int32)
        # An internal cell's children, in slot order (the order the walk
        # pushes them), are kids[kid_lo[cell]:kid_hi[cell]].
        self._kid_lo = np.zeros(max_cells, np.int32)
        self._kid_hi = np.zeros(max_cells, np.int32)
        self.kids = array("i")
        # One body's squared distance to every decoded cell.
        self._dist2 = np.zeros(max_cells)
        self.com = memoryview(self._com.reshape(-1))
        self.mass = memoryview(self._mass)
        self.open2 = memoryview(self._open2)
        self.leaf = memoryview(self._leaf)
        self.kid_lo = memoryview(self._kid_lo)
        self.kid_hi = memoryview(self._kid_hi)
        self.dist2 = memoryview(self._dist2)

    def decode(self, first: int, rows: np.ndarray) -> None:
        last = first + len(rows)
        self._com[first:last] = rows[:, 1:4]
        self._mass[first:last] = rows[:, 0]
        # The opening test's (2 * half) ** 2 as a Python float pow, which
        # is C pow like a NumPy scalar's; NumPy's array square rounds
        # differently on some inputs.
        self._open2[first:last] = [(2 * h) ** 2 for h in rows[:, 4].tolist()]
        self._leaf[first:last] = rows[:, 13]
        kids = rows[:, 5:13]
        present = kids >= 0
        counts = present.sum(axis=1)
        ends = len(self.kids) + np.cumsum(counts)
        self._kid_lo[first:last] = ends - counts
        self._kid_hi[first:last] = ends
        self.kids.extend(kids[present].astype(int).tolist())
        self.loaded[first:last] = b"\x01" * len(rows)
        self.top = max(self.top, last)

    def measure(self, pos: np.ndarray, first: int, last: int) -> None:
        """Set ``dist2`` for cells ``[first, last)`` to the squared
        distances from ``pos``.

        A stacked 1x3 @ 3x1 matmul runs the same dot kernel per cell as
        a 3-vector ``delta @ delta``, so every value has the bits of the
        per-cell product; ``(delta * delta).sum(1)``, ``einsum`` and
        ``x*x + y*y + z*z`` do not.
        """
        delta = self._com[first:last] - pos
        np.matmul(
            delta[:, None, :], delta[:, :, None],
            out=self._dist2[first:last, None, None],
        )


def _walk(tree: _TreePages, body: int, pos: np.ndarray, fetch):
    """Barnes-Hut traversal for one body; returns ``((fx, fy, fz),
    interactions)``.

    A depth-first walk in Python numbers over ``tree``.  It yields only
    inside ``fetch(first, last)``, a generator returning the cell rows of
    a page no traversal on this processor has touched yet, so pages are
    fetched on demand in first-touch pop order (the real program touches
    only the tree pages its traversals visit).  Forces accumulate in pop
    order, per component, with the IEEE operations of ``force += mass *
    delta / s`` on NumPy 3-vectors: the walk's results are written to
    shared memory, where TreadMarks diffs them bit by bit.
    """
    px, py, pz = pos.tolist()
    tree.measure(pos, 0, tree.top)
    loaded, com, mass, open2 = tree.loaded, tree.com, tree.mass, tree.open2
    dist2, leaf, kids = tree.dist2, tree.leaf, tree.kids
    kid_lo, kid_hi = tree.kid_lo, tree.kid_hi
    theta2 = THETA * THETA
    fx = fy = fz = 0.0
    interactions = 0
    stack = [0]
    pop = stack.pop
    while stack:
        idx = pop()
        if not loaded[idx]:
            first = idx - idx % tree.page_rows
            last = min(first + tree.page_rows, tree.max_cells)
            rows = yield from fetch(first, last)
            tree.decode(first, rows)
            tree.measure(pos, first, last)
        m = mass[idx]
        if m <= 0.0:
            continue
        d2 = dist2[idx]
        leaf_body = leaf[idx]
        if leaf_body >= 0:
            if leaf_body == body:
                continue
        elif not (d2 > 0 and open2[idx] < theta2 * d2):
            stack += kids[kid_lo[idx] : kid_hi[idx]]
            continue
        interactions += 1
        s = (d2 + 1e-4) ** 1.5  # np.power rounds differently on some inputs
        c = 3 * idx
        fx += m * (com[c] - px) / s
        fy += m * (com[c + 1] - py) / s
        fz += m * (com[c + 2] - pz) / s
    return (fx, fy, fz), interactions


def _my_chunks(rank: int, nprocs: int, n: int) -> List[int]:
    """Interleaved chunk assignment (dynamic load balance stand-in that
    keeps the multi-writer false sharing of the real program)."""
    mine = []
    chunk_count = (n + CHUNK - 1) // CHUNK
    for chunk in range(rank, chunk_count, nprocs):
        mine.extend(
            range(chunk * CHUNK, min((chunk + 1) * CHUNK, n))
        )
    return mine


def worker(env, shared: Dict, params: Dict):
    n, steps = params["n_bodies"], params["steps"]
    bodies, cells = shared["bodies"], shared["cells"]
    masses, max_cells = shared["masses"], shared["max_cells"]
    mine = _my_chunks(env.rank, env.nprocs, n)
    ws = WorkingSet(primary=0)
    fetch = partial(cells.read_rows, env)
    # Bulk regions over this rank's interleaved bodies, built once: the
    # acceleration columns (one segment per body), and the pos/vel
    # columns as *two* segments per body so the batched write replays
    # the scalar path's two write calls — and their per-span protocol
    # charges — exactly.
    acc_region = bodies.region_row_gather(mine, 6, 9)
    posvel_region = Region(
        bodies,
        [
            seg
            for b in mine
            for seg in ((b * BODY_FIELDS, 3), (b * BODY_FIELDS + 3, 3))
        ],
        (len(mine), 6),
    )
    for _ in range(steps):
        # Phase 1: sequential tree construction on processor 0.
        if env.rank == 0:
            all_bodies = yield from bodies.read_all(env)
            positions = all_bodies[:, 0:3]
            yield from env.compute(n * US_PER_TREE_NODE, polls=n)
            tree = _build_tree(positions, masses)
            encoded = _encode_cells(tree, max_cells)
            yield from cells.write_rows(env, 0, encoded)
        yield from env.barrier(0)

        # Phase 2: force computation on assigned bodies.  Tree pages
        # are demand-fetched by the traversals, as in the real program.
        # Fetch-blocking heuristic keyed on the VM page (not the sharing
        # unit): keeps the access pattern — and results — policy-invariant.
        page_rows = env.protocol.space.vm_page_size // (CELL_FIELDS * 8)
        tree = _TreePages(max_cells, page_rows)
        all_bodies = yield from bodies.read_all(env)
        forces = []
        for body in mine:
            # Compute interleaves with tree-page fetches, as in the real
            # traversal: remote requests land while this processor is
            # busy, which is where the interrupt-vs-polling gap lives.
            force, inter = yield from _walk(
                tree, body, all_bodies[body, 0:3], fetch
            )
            forces.append(force)
            yield from env.compute(
                inter * US_PER_INTERACTION, polls=max(inter, 1), ws=ws
            )
        if mine:
            acc_block = np.array(forces) / masses[mine][:, None]
            yield from bodies.write_region(env, acc_region, acc_block)
        yield from env.barrier(0)

        # Phase 3: position/velocity update for assigned bodies.
        all_bodies = yield from bodies.read_all(env)
        yield from env.compute(len(mine) * 1.0, polls=len(mine))
        if mine:
            pos_block, vel_block = kernels.barnes_integrate(
                all_bodies, mine, DT
            )
            posvel = np.concatenate([pos_block, vel_block], axis=1)
            yield from bodies.write_region(env, posvel_region, posvel)
        yield from env.barrier(0)
    env.stop_timer()
    if env.rank == 0:
        final = yield from bodies.read_all(env)
        return final
    return None


def program() -> Program:
    return Program(name="barnes", setup=setup, worker=worker)
