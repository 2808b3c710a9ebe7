"""Distribution feeder model, power flow, and voltage sensitivity.

Positive-sequence balanced model, per-unit on a single system VA base.
Models are immutable snapshots and every operation returns new objects.

A checked model indexes its bus/line graph once, as a `FeederGraph` of
integers with a map from switch name to line and one depth-first walk of
the whole graph, and every snapshot copied from it shares that index: no
copy changes line ends, names, impedances or which lines are switches.
What events change, a snapshot holds as arrays: `loads`, the complex
load of each bus, `v_slack`, and `closed`, whether each line is in
service.  A load step is one array multiply and a finiteness check, a
slack-voltage step one checked number, and neither builds a `Bus`: the
copy's `buses` tuple is built from the arrays when it is first read (by
`==` or `feeder_to_dict`, say) and then kept.  Each topology's island
walk is cut from the index's walk with array calls (or, if it closes a
line off that walk's tree, walked afresh) and compiled once into a
`CompiledNetwork`: the energized island, the model-to-island index, the
in-service lines as integer ends and impedances, the PQ index, then the
arrays its solves iterate on.
`FeederModel.network` builds it on first use and keeps it; snapshots that
differ only in loads or slack voltage share it, and a switch operation
copies the closed mask, cuts its island walk and makes a model that
compiles its own.  The index and the compiled network are never written
after they are built (a network's lazily built arrays are computed once
and kept), and no snapshot writes to what it shares, so snapshots stay
safe to use concurrently.

`solve_power_flow` iterates the fixed point V_L = w V_S + Z conj(S_L / V_L)
of the backward/forward sweep (Shirmohammadi et al. 1988; Teng 2003) in
one loop, whose step the island's kind, fixed when it is compiled, picks:
- on a radial island of more than `SWEEP_BUSES` buses the step is the
  sweep itself on tree arrays (depth-first preorder, subtree ranges, the
  enter and leave steps of a walk down the tree, line impedances), read
  off the depth-first island walk: a few O(n) array calls, and no n x n
  array is built;
- on any other island, meshed ones of every size included, it is one
  mat-vec with a dense Z = Y_LL^-1 from the Z-bus building algorithm
  rather than a factorization, and w = -Z Y_LS: O(n^2) memory and time,
  but on a few dozen buses that one call is cheaper than the sweep's
  extra ones.  `SWEEP_BUSES` sits where the two cost the same per solve.
The loop stops once no voltage moves by more than `FIXED_POINT_STEP` pu
and then requires the Newton mismatch test; that makes it as accurate as
a Newton solve, which the tests' finite-difference sensitivities rely on.
Near the loadability limit the fixed point stalls, so a solve that does not
converge within `DEFAULT_MAX_ITER` iterations falls back to Newton-Raphson,
which steps the complex voltages.  Both solvers return complex
voltages, which a `PowerFlowSolution` holds as `v`; a warm start reuses
them as they are.

`voltage_sensitivities` gives dV/dP, dV/dQ and dV/dV_slack at a solved
operating point, which linearize the feeder; `sensitivity_matrix` is the
PV-bus rows of its dV/dQ.  They and Newton's steps solve one linearized
power flow, whose island also picks how: on a sweep island a leaf-first
elimination over the tree (O(n) per column), on any other a dense solve.
Ybus is built on first use, and only Z islands read it, but for the dense
solve a sweep island takes where the elimination meets a zero pivot.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codec import SchemaError, VoltVarError, decode, encode

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 30
# the fixed point stops once no voltage moves more than this (pu); a
# mismatch-only stop leaves errors up to ~5e-9, too coarse for the tests'
# finite-difference sensitivities
FIXED_POINT_STEP = 1e-13
# a radial island of more buses than this is solved by the sweep.  Per
# solve the dense Z fixed point and the sweep cost the same between 101 and
# 121 buses on the benchmark's generated ladders; below that the one Z
# mat-vec is cheaper than the sweep's extra array calls
SWEEP_BUSES = 120


class FeederError(VoltVarError):
    """Invalid feeder description or topology request."""


class PowerFlowError(FeederError):
    """Power-flow level failure (disconnection, singular Jacobian)."""


@dataclass(frozen=True)
class Bus:
    """Network node. `kind` is "slack" (substation) or "load" (PQ, the
    default).

    `v_set` is the substation voltage in pu and is only meaningful on the
    slack bus. `base_voltage` is in volts; every other quantity is pu.
    """

    id: str
    kind: str = "load"
    base_voltage: float = 4160.0
    load_p: float = 0.0
    load_q: float = 0.0
    v_set: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("slack", "load"):
            raise FeederError(f"bus {self.id}: unknown kind {self.kind!r}")
        if not (math.isfinite(self.base_voltage) and self.base_voltage > 0):
            raise FeederError(f"bus {self.id}: base_voltage must be finite and > 0")
        for name in ("load_p", "load_q", "v_set"):
            if not math.isfinite(getattr(self, name)):
                raise FeederError(f"bus {self.id}: {name} must be finite")


@dataclass(frozen=True)
class Line:
    """Series branch. `switch_state` is "closed", "open", or "none"
    (not a switch). Only switches may be operated by topology events."""

    from_bus: str
    to_bus: str
    resistance: float
    reactance: float
    switch_state: str = "none"
    id: str | None = None
    _json_keys = {"from_bus": "from", "to_bus": "to"}

    def __post_init__(self) -> None:
        if self.switch_state not in ("closed", "open", "none"):
            raise FeederError(
                f"line {self.name}: bad switch_state {self.switch_state!r}"
            )
        for name in ("resistance", "reactance"):
            if not math.isfinite(getattr(self, name)):
                raise FeederError(f"line {self.name}: {name} must be finite")
        if abs(complex(self.resistance, self.reactance)) <= 0:
            raise FeederError(f"line {self.name}: impedance magnitude must be > 0")

    @property
    def name(self) -> str:
        return self.id if self.id is not None else f"{self.from_bus}-{self.to_bus}"

    @property
    def in_service(self) -> bool:
        return self.switch_state != "open"


@dataclass(frozen=True)
class PvUnit:
    """PV inverter attached to a bus. `p_out` is the time-varying real
    output and `q_inj` the reactive state, both pu on the system base."""

    bus: str
    rating_s: float
    p_out: float = 0.0
    q_inj: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rating_s", "p_out", "q_inj"):
            if not math.isfinite(getattr(self, name)):
                raise FeederError(f"pv at {self.bus}: {name} must be finite")
        if self.rating_s <= 0:
            raise FeederError(f"pv at {self.bus}: rating_s must be > 0")
        if self.p_out < 0:
            raise FeederError(f"pv at {self.bus}: p_out must be >= 0")
        if self.p_out > self.rating_s * (1 + 1e-9):
            raise FeederError(f"pv at {self.bus}: p_out exceeds rating_s")


@dataclass(frozen=True)
class FeederModel:
    """Immutable feeder snapshot: buses, lines, PV units.

    `bus_ids` (an attribute, not a field) holds the bus ids in `buses`
    order.  `detachable_buses` (another attribute) are buses that are
    de-energized in the as-built switch configuration (behind normally-open
    switches).  Switch events may re-island exactly those buses; islanding
    any other load/PV bus is an error.  The set is computed on construction
    and carried through topology events unchanged.

    What events change is also held as read-only arrays: `loads`, the
    complex load P + jQ of each bus in `buses` order, `v_slack`, the slack
    bus's `v_set`, and `closed`, true for each line in service.  A copy
    made by an event reads them, not `buses`, which it builds on first
    read.  The island walk, the compiled `network` and the base injections
    are cached properties, computed on first use and kept on the snapshot;
    none of these is a field, so equality and hashing ignore them.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    pv_units: tuple[PvUnit, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        ids = [b.id for b in self.buses]
        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            raise FeederError("duplicate bus ids")
        slacks = [k for k, b in enumerate(self.buses) if b.kind == "slack"]
        if len(slacks) != 1:
            raise FeederError(f"need exactly one slack bus, found {len(slacks)}")
        slack = self.buses[slacks[0]]
        if not slack.v_set > 0:  # a negative set-point would solve to its magnitude
            raise FeederError(f"bus {slack.id}: v_set must be finite and > 0")
        graph = _index_graph(index, slacks[0], self.lines)
        # a switch event operates the one line of its name
        count = Counter(ln.name for ln in self.lines)
        for ln in self.lines:
            if ln.switch_state != "none" and count[ln.name] > 1:
                raise FeederError(f"switch {ln.name}: name shared with another line")
        pv_buses = [u.bus for u in self.pv_units]
        if len(set(pv_buses)) != len(pv_buses):
            raise FeederError("multiple PV units on one bus are not supported")
        for b in pv_buses:
            if b not in index:
                raise FeederError(f"pv unit references unknown bus {b}")
            if b == slack.id:  # its vars would meet the fixed slack voltage
                raise FeederError(f"pv unit on the slack bus {b} is not supported")
        loads = np.empty(len(ids), dtype=complex)
        loads.real = [b.load_p for b in self.buses]
        loads.imag = [b.load_q for b in self.buses]
        closed = np.array([ln.in_service for ln in self.lines], dtype=bool)
        self.__dict__.update(
            _graph=graph, bus_ids=tuple(ids), _bus_source=self.buses,
            _pv_at=np.array([index[b] for b in pv_buses], dtype=int),
            loads=_frozen(loads), v_slack=slack.v_set, closed=_frozen(closed),
        )
        # every bus must be reachable from the slack with all switches closed
        full = graph.full.energized
        if not full.all():
            raise PowerFlowError(f"disconnected bus: {ids[np.flatnonzero(~full)[0]]}")
        self.__dict__["detachable_buses"] = frozenset(
            b for b, on in zip(ids, self._island.energized.tolist()) if not on)

    def __getattr__(self, name: str) -> tuple[Bus, ...]:
        # only `buses` is ever missing: a copy whose loads or slack voltage
        # changed builds it on first read, from the checked build's buses
        # and its own (checked) arrays
        if name != "buses" or "_bus_source" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        buses = []
        for b, p, q in zip(self._bus_source, self.loads.real.tolist(), self.loads.imag.tolist()):
            bus = object.__new__(Bus)
            bus.__dict__.update(vars(b), load_p=p, load_q=q)
            buses.append(bus)
        buses[self._graph.slack].__dict__["v_set"] = self.v_slack
        self.__dict__["buses"] = buses = tuple(buses)
        return buses

    @property
    def slack_id(self) -> str:
        return self.bus_ids[self._graph.slack]

    @property
    def slack(self) -> Bus:
        return self.buses[self._graph.slack]

    @property
    def pv_buses(self) -> tuple[str, ...]:
        return tuple(u.bus for u in self.pv_units)

    @cached_property
    def _island(self) -> Walk:
        """The graph walked over the in-service lines: the one walk of this
        topology, which gives the island, the sweep's tree and the spanning
        tree the Z-bus build follows."""
        return self._graph.walk(self.closed)

    @cached_property
    def network(self) -> CompiledNetwork:
        """This topology compiled for repeated solves."""
        return _compile(self)

    @cached_property
    def _pv_s(self) -> np.ndarray:
        """The PV units' complex output P + jQ, in `pv_units` order."""
        return np.array([complex(u.p_out, u.q_inj) for u in self.pv_units], dtype=complex)

    @cached_property
    def _s_base(self) -> np.ndarray:
        """Complex injections of the loads and PV units over the island."""
        net = self.network
        s = np.zeros(len(net.island), dtype=complex)
        s -= self.loads[net.cols]  # subtracted from zeros, so that a +0.0 load stays +0.0
        at = net.pos[self._pv_at]
        on = at >= 0
        s[at[on]] += self._pv_s[on]
        return s

    def switch_line(self, switch_id: str) -> int:
        """The index in `lines` of the switch named `switch_id`."""
        k = self._graph.switches.get(switch_id)
        if k is None:
            if any(ln.name == switch_id for ln in self.lines):
                raise FeederError(f"line {switch_id} is not a switch")
            raise FeederError(f"no such switch: {switch_id}")
        return k

    def with_slack_voltage(self, v_pu: float) -> "FeederModel":
        if not (math.isfinite(v_pu) and v_pu > 0):
            raise FeederError(f"bus {self.slack_id}: v_set must be finite and > 0")
        return self._copy(("_island", "network", "_pv_s"), v_slack=v_pu)

    def with_scaled_loads(self, factor: float) -> "FeederModel":
        """Every load times `factor`: one multiply over the (P, Q) pairs of
        `loads`, the same as `load_p * factor` and `load_q * factor` on each
        bus.  A product that is not finite raises `Bus`'s message for the
        first bus that has one."""
        if not (math.isfinite(factor) and factor >= 0):
            raise FeederError("load scale factor must be finite and >= 0")
        with np.errstate(over="ignore"):
            pq = self.loads.view(float) * factor
        bad = np.flatnonzero(~np.isfinite(pq))
        if len(bad):
            k, part = divmod(int(bad[0]), 2)
            raise FeederError(f"bus {self.bus_ids[k]}: {('load_p', 'load_q')[part]} must be finite")
        return self._copy(("_island", "network", "_pv_s"), loads=_frozen(pq.view(complex)))

    def _copy(self, kept: tuple[str, ...], **changes) -> "FeederModel":
        """Copy with `changes` to its fields or snapshot arrays and this
        snapshot's cached `kept`, unchecked: the model checks read bus ids and
        kinds, line ends and names, which lines are switches, PV buses and
        reachability with all switches closed, which no caller changes, so
        the copy shares the graph index.  Callers swap PV data (each new
        `PvUnit` checks its values), scale the loads, set the slack voltage
        or operate one switch, and check what they change."""
        out = object.__new__(FeederModel)
        state = self.__dict__
        out.__dict__.update({k: state[k] for k in _SNAPSHOT}, **changes)
        if "buses" in state and not {"loads", "v_slack"} & changes.keys():
            out.__dict__["buses"] = state["buses"]
        out.__dict__.update((k, state[k]) for k in kept if k in state)
        return out


# what every copy of a snapshot starts from; `buses` only while the loads
# and slack voltage it was built from are the copy's
_SNAPSHOT = ("lines", "pv_units", "name", "bus_ids", "detachable_buses", "_graph",
             "_bus_source", "_pv_at", "loads", "v_slack", "closed")


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, read-only: snapshots share their arrays."""
    a.flags.writeable = False
    return a


class Walk(NamedTuple):
    """A depth-first walk from the slack, the lines at each bus taken in
    line order: the model indices of the buses reached, in preorder, with
    the walk position of the bus each was reached from and the index of
    the line it came by (-1 for the slack), which buses it reached, and
    each one's depth (0 at the slack) and subtree size: the buses below
    position i fill positions i to i + size[i] - 1."""

    buses: np.ndarray
    up: np.ndarray
    via: np.ndarray
    energized: np.ndarray
    size: np.ndarray
    depth: np.ndarray


def _depth_first(adj: tuple[list[tuple[int, int]], ...], slack: int, closed: list[bool]) -> Walk:
    """Walk depth first from the slack over the lines with `closed[k]`
    true.  A bus's unseen neighbours go on the stack in reverse line
    order, so that they come off it in line order."""
    seen = [False] * len(adj)
    buses, up, via, depth = [], [], [], []
    stack = [(slack, -1, -1)]
    while stack:
        b, p, k = stack.pop()
        if seen[b]:  # reached again, through a loop, before it came off the stack
            continue
        seen[b] = True
        i = len(buses)
        buses.append(b)
        up.append(p)
        via.append(k)
        depth.append(depth[p] + 1 if i else 0)
        stack.extend((c, i, line) for line, c in reversed(adj[b]) if closed[line] and not seen[c])
    size = [1] * len(buses)
    for i in range(len(buses) - 1, 0, -1):
        size[up[i]] += size[i]
    energized = np.zeros(len(adj), dtype=bool)
    energized[buses] = True
    return Walk(*np.array((buses, up, via), dtype=int), energized,
                *np.array((size, depth), dtype=int))


@dataclass(frozen=True, eq=False)
class FeederGraph:
    """A feeder's bus/line graph over model indices, built once when a model
    is checked and shared by every snapshot copied from it: line ends,
    names and impedances, and which lines are switches, never change
    across them.

    `adj[b]` lists (line, bus at its other end) for the lines at bus b, in
    line order; `ends[:, k]` are the (from, to) buses of line k and `z[k]`
    its impedance; `switches` maps each switch's name to its line.  `full`
    is the depth-first walk over every line, as if all were closed, and
    `tie[k]` is true for each line off its tree.
    """

    slack: int
    adj: tuple[list[tuple[int, int]], ...]
    ends: np.ndarray
    z: np.ndarray
    switches: dict[str, int]
    full: Walk
    tie: np.ndarray

    def walk(self, closed: np.ndarray) -> Walk:
        """The depth-first walk over the lines with `closed[k]` true: with no
        tie closed, `full` less the subtrees below its open lines, in its
        preorder, cut out by array calls.  A closed tie can close a loop or
        feed a region whose tree line is open, so it is walked afresh."""
        if (closed & self.tie).any():
            return _depth_first(self.adj, self.slack, closed.tolist())
        full, n = self.full, len(self.full.buses)
        cut = np.flatnonzero(~closed[full.via[1:]]) + 1  # positions below an open line
        # +1 where a cut subtree starts and -1 just past its end: positions
        # inside any of them sum above zero
        marks = (np.bincount(cut, minlength=n + 1)
                 - np.bincount(cut + full.size[cut], minlength=n + 1))
        kept = np.cumsum(marks[:n]) == 0
        at = np.flatnonzero(kept)
        # the kept positions before each position: a kept one's island position
        before = np.zeros(n + 1, dtype=int)
        np.cumsum(kept, out=before[1:])
        up = before[full.up[at]]
        up[0] = -1
        buses = full.buses[at]
        energized = np.zeros(len(self.adj), dtype=bool)
        energized[buses] = True
        return Walk(buses, up, full.via[at], energized,
                    before[at + full.size[at]] - before[at], full.depth[at])


def _index_graph(index: dict[str, int], slack: int, lines: tuple[Line, ...]) -> FeederGraph:
    adj: tuple[list[tuple[int, int]], ...] = tuple([] for _ in index)
    ends = []
    for k, ln in enumerate(lines):
        a, b = index.get(ln.from_bus), index.get(ln.to_bus)
        if a is None or b is None:
            raise FeederError(f"line {ln.name}: references unknown bus")
        adj[a].append((k, b))
        adj[b].append((k, a))
        ends.append((a, b))
    full = Walk(*map(_frozen, _depth_first(adj, slack, [True] * len(lines))))
    tie = np.ones(len(lines), dtype=bool)
    tie[full.via[1:]] = False
    return FeederGraph(
        slack=slack,
        adj=adj,
        ends=np.array(ends, dtype=int).reshape(-1, 2).T,
        z=np.array([complex(ln.resistance, ln.reactance) for ln in lines], dtype=complex),
        switches={ln.name: k for k, ln in enumerate(lines) if ln.switch_state != "none"},
        full=full,
        tie=_frozen(tie),
    )


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """Complex voltages `v` (pu) over the energized island, in `bus_ids`
    order, as the solver left them.  Buses de-energized behind open
    switches are absent."""

    bus_ids: tuple[str, ...]
    v: np.ndarray
    converged: bool
    iterations: int
    max_mismatch: float
    slack_id: str

    @property
    def v_mag(self) -> np.ndarray:
        return np.abs(self.v)

    @property
    def load_bus_ids(self) -> tuple[str, ...]:
        return tuple(b for b in self.bus_ids if b != self.slack_id)

    @property
    def point_id(self) -> str:
        """Deterministic tag of the operating point (topology + voltages)."""
        h = hashlib.sha1()
        h.update(",".join(self.bus_ids).encode())
        h.update(np.round(np.abs(self.v), 10).tobytes())
        h.update(np.round(np.angle(self.v), 10).tobytes())
        return h.hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class RadialTree:
    """A radial island as arrays over its load buses in depth-first
    preorder, the slack being the root.

    `order[k]` is the island position of the bus at preorder position k,
    `z[k]` the impedance of the line it hangs from, and `up[k]` the
    preorder position of the bus at that line's other end, counting the
    slack as 0 and bus k as k + 1.  The buses below bus k, itself
    included, fill positions k to end_k - 1.

    A walk down the tree from the slack takes 2 (n - 1) steps, one on
    entering and one on leaving each load bus.  Step s enters or leaves
    bus `walk_bus[s]`, whose subtree ends at `walk_end[s]`, and carries
    `walk_z[s]`: that bus's z on entering, -z on leaving.  Bus k is
    entered at step `enter[k]` - 1, so that `enter` indexes a walk array
    headed by the slack.
    """

    order: np.ndarray
    up: np.ndarray
    z: np.ndarray
    enter: np.ndarray
    walk_bus: np.ndarray
    walk_end: np.ndarray
    walk_z: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """One topology of a feeder, compiled for repeated solves.

    `island` lists the energized buses in model order; `cols[i]` is the
    model index of island bus i and `pos[k]` the island position of model
    bus k (-1 off the island).  The in-service lines on the island, in
    model order, run between island positions `line_ends[0]` and
    `line_ends[1]`, with impedances `line_z`.

    The island's kind picks the fixed point's step: a radial island of
    more than `SWEEP_BUSES` buses keeps its `tree` for the sweep step and
    the sensitivities and has `z` None; any other island has `tree` None
    and `z` for the mat-vec step, `z` being None when Y_LL is singular
    (only the Newton path can then report that).  `ybus` and `w` are
    built on first use: on a sweep island only a zero pivot of the tree
    elimination reads Ybus.
    """

    island: tuple[str, ...]
    cols: np.ndarray
    pos: np.ndarray
    line_ends: np.ndarray
    line_z: np.ndarray
    slack_idx: int
    pq: np.ndarray
    z: np.ndarray | None
    tree: RadialTree | None

    @cached_property
    def ybus(self) -> np.ndarray:
        n = len(self.island)
        i, j = self.line_ends
        # Python's complex division, and each line's four entries in line
        # order, as a loop over the lines adds them
        y = np.array([1.0 / z for z in self.line_z.tolist()], dtype=complex)
        at = np.stack((i * (n + 1), j * (n + 1), i * n + j, j * n + i), axis=1)
        ybus = np.zeros(n * n, dtype=complex)
        np.add.at(ybus, at.ravel(), np.stack((y, y, -y, -y), axis=1).ravel())
        return ybus.reshape(n, n)

    @cached_property
    def w(self) -> np.ndarray | None:
        """-Z Y_LS: the load-bus voltages per unit of slack voltage at no
        load (Z path only)."""
        return None if self.z is None else -self.z @ self.ybus[self.pq, self.slack_idx]


def _compile(model: FeederModel) -> CompiledNetwork:
    graph, walk = model._graph, model._island
    cols = np.flatnonzero(walk.energized)
    n = len(cols)
    pos = np.full(len(walk.energized), -1)  # the island position of each model bus
    pos[cols] = np.arange(n)
    slack_idx = int(pos[graph.slack])
    pq = np.delete(np.arange(n), slack_idx)
    # the in-service lines on the island: closed, with an energized end
    on = model.closed & walk.energized[graph.ends[0]]
    line_z = graph.z[on]
    tree = z = None
    if len(line_z) == n - 1 and n > SWEEP_BUSES:  # radial: the lines span the island
        tree = _walk_tree(walk, pos, graph.z)
    else:
        loops = on.copy()  # the lines on the island that the walk did not take
        loops[walk.via[1:]] = False
        z = _zbus(
            n,
            zip(pos[walk.buses[walk.up[1:]]].tolist(), pos[walk.buses[1:]].tolist(),
                graph.z[walk.via[1:]].tolist()),
            zip(*pos[graph.ends[:, loops]].tolist(), graph.z[loops].tolist()),
        )
        if z is not None:
            z = z[np.ix_(pq, pq)]
    return CompiledNetwork(
        island=tuple(compress(model.bus_ids, walk.energized.tolist())),
        cols=cols,
        pos=pos,
        line_ends=pos[graph.ends[:, on]],
        line_z=line_z,
        slack_idx=slack_idx,
        pq=pq,
        z=z,
        tree=tree,
    )


def _walk_tree(walk: Walk, pos: np.ndarray, z_line: np.ndarray) -> RadialTree:
    """The `RadialTree` of a radial island from its depth-first `walk`,
    with `pos` the island position of each model bus and `z_line` the line
    impedances.  The walk's preorder, parents, subtree sizes and depths
    are the tree's, the slack at position 0; its walk steps are array
    operations on them."""
    m = len(walk.buses) - 1
    k = np.arange(m)
    size, depth = walk.size[1:], walk.depth[1:]
    # the walk enters bus k after k entries and the exits of the k - depth + 1
    # buses before it that are not above it, and leaves it after its subtree;
    # `enter` is one past the entering step
    enter = 2 * k - depth + 2
    leave = enter + 2 * size - 2
    walk_bus = np.empty(2 * m, dtype=int)
    walk_bus[enter - 1] = k
    walk_bus[leave] = k
    z = z_line[walk.via[1:]]
    walk_z = z[walk_bus]
    walk_z[leave] = -z
    return RadialTree(
        order=pos[walk.buses[1:]],
        up=walk.up[1:],
        z=z,
        enter=enter,
        walk_bus=walk_bus,
        walk_end=(k + size)[walk_bus],
        walk_z=walk_z,
    )


def _zbus(
    n: int, tree: Iterable[tuple[int, int, complex]], loops: Iterable[tuple[int, int, complex]]
) -> np.ndarray | None:
    """Bus impedance matrix of an island of `n` buses with the slack as
    reference (its row and column stay zero), so Z[pq, pq] = Y_LL^-1.
    Lines come as (one end, other end, impedance).
    Built by the Z-bus building algorithm: a `tree` line (parent, child),
    taken after its parent's own line (the island walk's order), copies
    the row of the bus it hangs from, and a line that closes a loop is a
    rank-1 update.  On a radial island each entry is then a sum of line
    impedances along a path from the slack, added in path order whatever
    the parent-first order of the lines.  That is O(n) per tree line
    and O(n^2) per loop, with no factorization.  None when a loop has zero
    impedance (Y_LL singular)."""
    zb = np.zeros((n, n), dtype=complex)
    for i, j, z in tree:
        zb[j] = zb[i]
        zb[:, j] = zb[:, i]
        zb[j, j] = zb[i, i] + z
    for i, j, z in loops:
        d = zb[:, i] - zb[:, j]
        den = d[i] - d[j] + z
        if den == 0:
            return None
        zb -= np.outer(d, d) / den
    return zb


def _newton(
    net: CompiledNetwork,
    s_spec: np.ndarray,
    v_slack: float,
    v0: np.ndarray | None,
    tol: float,
) -> tuple[np.ndarray, bool, int, float]:
    """Newton-Raphson from `v0` or a flat start, on the `_fixed_point`
    contract.  Each step solves the power flow linearized about the
    complex voltages (`_linearized`) for conj(dS)/conj(V), dS being the
    mismatch; a voltage that is not finite and nonzero stops it
    unconverged, with `v` all NaN, and so does a singular system."""
    pq = net.pq
    v = np.ones(len(net.island), dtype=complex) if v0 is None else v0.copy()
    v[net.slack_idx] = v_slack
    mismatch = np.inf
    for iterations in range(DEFAULT_MAX_ITER + 1):
        if not (np.isfinite(v).all() and v.all()):
            v = np.full(len(v), np.nan, dtype=complex)  # a diverged step stays visibly invalid
            break
        ds = s_spec[pq] - v[pq] * np.conj(_currents(net, v))
        mismatch = float(np.maximum.reduce(np.abs(ds.view(np.float64)), initial=0.0))
        if mismatch <= tol or iterations == DEFAULT_MAX_ITER:
            break
        rhs = np.conj(ds) / np.conj(v[pq])
        try:
            dv = _linearized(net, v)(rhs.view(np.float64).reshape(-1, 2, 1))
        except PowerFlowError:
            break
        v[pq] += dv.ravel().view(complex)
    # every other exit follows a mismatch above `tol`
    return v, mismatch <= tol, iterations, mismatch


def _fixed_point(
    net: CompiledNetwork,
    s_spec: np.ndarray,
    v_slack: float,
    v0: np.ndarray | None,
    tol: float,
) -> tuple[np.ndarray, bool, int, float]:
    """The fixed point V_L <- w V_S + Z conj(S_L / V_L) over the island's
    load buses in its own order (`pq`, or a tree's preorder), from `v0` or
    the no-load voltages (w V_S, flat on a tree).  A step is one Z mat-vec,
    or on a tree island the O(n) backward/forward sweep.  Converged means
    the last step moved no voltage by more than FIXED_POINT_STEP and the
    power mismatch is within `tol`."""
    v = np.full(len(net.island), v_slack, dtype=complex)
    t, z = net.tree, net.z
    if t is None:
        if z is None:
            return v, False, 0, np.inf
        order = net.pq
        v_start = v_src = net.w * v_slack
    else:
        order = t.order
        m = len(order)
        # running sums from 0 of the injected currents in preorder, and over
        # the walk from the slack voltage
        acc = np.zeros(m + 1, dtype=complex)
        walk = np.empty(2 * m + 1, dtype=complex)
        walk[0] = v_slack
        currents, drops = acc[1:], walk[1:]
        v_start = v[order]
    s_l = s_spec[order]
    v_l = v_start if v0 is None else v0[order]
    step = np.inf if len(order) else 0.0
    iterations = 0
    # on feeder-sized arrays call overhead, not arithmetic, is the cost of an
    # iteration: the mat-vecs are `dot` (the zgemv of `@` without matmul's
    # dispatch), the step one direct ufunc reduction (never on an empty island)
    with np.errstate(all="ignore"):
        while iterations < DEFAULT_MAX_ITER and step > FIXED_POINT_STEP:
            if t is None:
                v_new = v_src + z.dot(np.conj(s_l / v_l))
            else:
                # backward: a line carries the currents of the subtree below
                # it, one difference of the running sum; forward: each drop
                # joins the walk's running sum on entering its bus and leaves
                # it on leaving, so the sum on entering a bus is its voltage
                np.add.accumulate(np.conj(s_l / v_l), out=currents)
                np.multiply(t.walk_z, acc[t.walk_end] - acc[t.walk_bus], out=drops)
                v_new = np.add.accumulate(walk, out=walk)[t.enter]
            step = np.maximum.reduce(np.abs(v_new - v_l))
            v_l = v_new
            iterations += 1
            if not math.isfinite(step):
                break
        v[order] = v_l
        i_l = net.ybus.dot(v)[order] if t is None else _tree_currents(t, v_slack, v_l)
        ds = s_l - v_l * np.conj(i_l)
        # max(max|Re|, max|Im|) over the interleaved parts
        mismatch = float(np.maximum.reduce(np.abs(ds.view(np.float64)), initial=0.0))
    converged = bool(step <= FIXED_POINT_STEP and mismatch <= tol)
    return v, converged, iterations, mismatch


def _tree_currents(t: RadialTree, v_slack: complex, v_l: np.ndarray) -> np.ndarray:
    """(Ybus v) at each load bus of `t`, in preorder, from its voltages
    `v_l`: the line currents out to the buses below it less the current
    in from the bus above."""
    m = len(v_l)
    i_in = (np.concatenate(([v_slack], v_l))[t.up] - v_l) / t.z
    i_out = np.bincount(t.up, i_in.real, m + 1) + 1j * np.bincount(t.up, i_in.imag, m + 1)
    return i_out[1:] - i_in


def _currents(net: CompiledNetwork, v: np.ndarray) -> np.ndarray:
    """(Ybus v) at the load buses, in `pq` order; on a tree island from
    its line currents, with no Ybus."""
    t = net.tree
    if t is None:
        return net.ybus.dot(v)[net.pq]
    i = np.empty(len(v), dtype=complex)
    i[t.order] = _tree_currents(t, v[net.slack_idx], v[t.order])
    return i[net.pq]


def solve_power_flow(
    model: FeederModel,
    injections: np.ndarray | None = None,
    v_init: PowerFlowSolution | None = None,
) -> PowerFlowSolution:
    """Solve the feeder power flow over the energized island.

    `injections` are extra pu injections added on top of the model's loads
    and PV unit outputs: a complex array of P + jQ with one entry per bus
    of `model.bus_ids`.  Injections at buses off the island are ignored.
    `v_init` warm-starts the solve from the phasors of a previous
    solution on the same island.  The solvers share one contract: each
    takes the specified injections, the slack voltage and a start, and
    returns (v, converged, iterations, mismatch).  They are tried in turn
    until one converges to a power mismatch of `DEFAULT_TOL`: the fixed
    point (one loop, stepping by the sweep on a large radial island and by
    the Z-bus mat-vec on any other), then Newton-Raphson from the warm
    start, then, if there was one, Newton-Raphson from a flat start.
    Non-convergence is reported via `converged=False`, not raised.
    """
    net = model.network
    s_spec = model._s_base
    if injections is not None:
        if not isinstance(injections, np.ndarray) or injections.shape != (len(model.bus_ids),):
            raise PowerFlowError("injections need a P + jQ array, one entry per model bus")
        s_spec = s_spec + injections[net.cols]  # entries at dark buses are inert
    v_slack = model.v_slack

    v0 = v_init.v if v_init is not None and v_init.bus_ids == net.island else None
    attempts = [(_fixed_point, v0), (_newton, v0)]
    if v0 is not None:
        attempts.append((_newton, None))
    for solver, start in attempts:
        v, converged, iterations, mismatch = solver(net, s_spec, v_slack, start, DEFAULT_TOL)
        if converged:
            break
    return PowerFlowSolution(
        bus_ids=net.island,
        v=v,
        converged=converged,
        iterations=iterations,
        max_mismatch=mismatch,
        slack_id=model.slack_id,
    )


def energized_pv_buses(model: FeederModel) -> tuple[str, ...]:
    """The analyses' inverters: PV buses on the island, in island order."""
    pv_buses = set(model.pv_buses)
    buses = tuple(b for b in model.network.island if b in pv_buses)
    if not buses:
        raise FeederError("no energized PV unit to analyze")
    return buses


def voltage_sensitivities(
    model: FeederModel, solution: PowerFlowSolution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dV/dP, dV/dQ and dV/dV_slack at the operating point.

    dV/dP and dV/dQ have a row per load bus (`solution.load_bus_ids`) and
    a column per PV bus on the island, in island order; dV/dV_slack has a
    row per load bus.  Each column answers a unit P or a unit Q at one PV
    bus, or a unit step of the substation voltage: the linearized power
    flow (`_linearized`) solved for conj(dS)/conj(V), or for -Y_LS, then
    d|V| = Re(conj(V) dV)/|V|.  On a tree island that is O(n) per column
    with no n x n array, in blocks of `_TREE_BLOCK // n` columns.
    """
    if not solution.converged:
        raise PowerFlowError("sensitivity requires a converged operating point")
    net = model.network
    if net.island != solution.bus_ids:
        raise PowerFlowError("solution does not match the model topology")
    pv_buses = set(model.pv_buses)
    rows = np.flatnonzero([b in pv_buses for b in solution.load_bus_ids])
    v = solution.v
    v_l = v[net.pq]
    m, k = len(v_l), len(rows)
    # conj(dS)/conj(V) for dS = 1 and dS = j at each load bus, and -Y_LS
    unit_p = v_l / (v_l.real * v_l.real + v_l.imag * v_l.imag)
    unit = np.concatenate((unit_p, -1j * unit_p))
    at_slack = np.zeros(len(v), dtype=complex)
    at_slack[net.slack_idx] = 1.0
    slack = -_currents(net, at_slack)
    pv_at = np.concatenate((rows, rows))  # each column's load row
    to_mag = np.stack((v_l.real, v_l.imag), axis=1) / np.abs(v_l)[:, None]
    dv_dp, dv_dq, dv_dslack = np.empty((m, k)), np.empty((m, k)), np.empty(m)
    outs = ((dv_dp, 0), (dv_dq, k), (dv_dslack[:, None], 2 * k))
    solve = _linearized(net, v)
    width = 2 * k + 1 if net.tree is None else max(1, _TREE_BLOCK // m)
    for c0 in range(0, 2 * k + 1, width):
        c1 = min(c0 + width, 2 * k + 1)
        x = np.zeros((m, 2, c1 - c0))  # the right-hand sides, then their dV
        col = np.arange(c0, min(c1, 2 * k))
        rhs = unit[col // k * m + pv_at[col]]
        x[pv_at[col], 0, col - c0], x[pv_at[col], 1, col - c0] = rhs.real, rhs.imag
        if c1 == 2 * k + 1:
            x[:, 0, -1], x[:, 1, -1] = slack.real, slack.imag
        x = solve(x)
        dv = np.einsum("kic,ki->kc", x, to_mag)
        for out, base in outs:
            lo, hi = max(c0, base), min(c1, base + out.shape[1])
            if lo < hi:
                out[:, lo - base:hi - base] = dv[:, lo - c0:hi - c0]
    return dv_dp, dv_dq, dv_dslack


_SINGULAR = "singular Jacobian at operating point (near voltage collapse)"
# so that each of `voltage_sensitivities`' work arrays on a tree island
# holds at most 2 * _TREE_BLOCK floats (16 MB)
_TREE_BLOCK = 1 << 20


def _blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The real 2 x 2 matrices, acting on (Re x, Im x), of the maps
    x -> a x + b conj(x)."""
    return np.stack((a.real + b.real, b.imag - a.imag, a.imag + b.imag, a.real - b.real),
                    axis=-1).reshape(-1, 2, 2)


def _linearized(net: CompiledNetwork, v: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The power flow linearized about the island voltages `v`, factored
    once: about V, the load buses' conj(S) = conj(V) Ybus V moves by
    conj(dS)/conj(V) = Y_LL dV + c conj(dV) + Y_LS dV_slack, with
    c = (Ybus V)_L / conj(V_L).  The returned solve takes right-hand sides
    of Y_LL dV + c conj(dV) = rhs as (Re, Im) pairs laid out (load bus in
    `pq` order, 2, column), may overwrite them, and gives dV in that
    layout.  On (Re dV, Im dV) each Ybus entry is a real 2 x 2 block
    (`_blocks`), c joining the diagonal.  A tree island is eliminated
    leaf first (`_tree_solver`); any other, or a tree with a zero pivot,
    is solved densely, raising `PowerFlowError` if singular."""
    solve = None if net.tree is None else _tree_solver(net, v)
    if solve is not None:
        return solve
    pq = net.pq
    m = len(pq)
    c = _currents(net, v) / np.conj(v[pq])
    jac = _blocks(net.ybus[np.ix_(pq, pq)], np.diag(c))
    jac = jac.reshape(m, m, 2, 2).swapaxes(1, 2).reshape(2 * m, 2 * m)

    def dense_solve(rhs: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(jac, rhs.reshape(2 * m, rhs.shape[2])).reshape(rhs.shape)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(_SINGULAR) from exc

    return dense_solve


def _tree_solver(
    net: CompiledNetwork, v: np.ndarray
) -> Callable[[np.ndarray], np.ndarray] | None:
    """`_linearized` on a radial island's `tree`, with no Ybus: O(n) per
    column, or None at a zero or non-finite pivot.  A bus's block,
    x -> Y_kk x + c_k conj(x), is kept as the pair (a, b) of a map
    x -> a x + b conj(x), whose inverse is (conj(a), -b) / d with
    d = |a|^2 - |b|^2; a line's is a product with its Ybus entry -1/z.
    Eliminating leaves first (reverse preorder) makes no fill-in on a
    graph with no cycles (Tinney & Walker, Proc. IEEE 1967).  One scalar
    pass takes each bus's pivot, its block less, per child, the line block
    times the child's inverse pivot times the line block; the solve
    reduces the right-hand rows into their parents in that order, in
    place, and substitutes back in preorder."""
    t = net.tree
    m = len(t.order)
    v_l = v[t.order]
    y = 1 / t.z
    up = (t.up - 1).tolist()  # the parent's preorder position, -1 for the slack
    below = np.bincount(t.up, y.real, m + 1)[1:] + 1j * np.bincount(t.up, y.imag, m + 1)[1:]
    a = (y + below).tolist()
    b = (_tree_currents(t, v[net.slack_idx], v_l) / np.conj(v_l)).tolist()
    y_sq, y_abs2 = (y * y).tolist(), (y.real * y.real + y.imag * y.imag).tolist()
    det = [0.0] * m
    for i in range(m - 1, -1, -1):
        ai, bi = a[i], b[i]
        d = det[i] = ai.real * ai.real + ai.imag * ai.imag - (bi.real * bi.real + bi.imag * bi.imag)
        if not (d != 0 and math.isfinite(d)):
            return None
        p = up[i]
        if p >= 0:
            a[p] -= y_sq[i] * ai.conjugate() / d
            b[p] += y_abs2[i] * bi / d
    det_a = np.array(det)
    inv_a, inv_b = np.conj(a) / det_a, -np.array(b) / det_a
    row = (t.order - (t.order > net.slack_idx)).tolist()  # each preorder position's load row
    pivots = np.empty((m, 2, 2))
    pivots[row] = _blocks(inv_a, inv_b)
    # a bus's reduced rows, times `lift`, leave its parent's; its parent's
    # solution, times `drop`, joins its own
    lift = _blocks(-y * inv_a, -y * inv_b)
    drop = _blocks(y * inv_a, np.conj(y) * inv_b)
    links = [(row[i], row[p], lift[i], drop[i]) for i, p in enumerate(up) if p >= 0]

    def tree_solve(rhs: np.ndarray) -> np.ndarray:
        xs = list(rhs)
        for i, p, lift_i, _ in reversed(links):
            xs[p] -= lift_i.dot(xs[i])
        x = np.einsum("kij,kjc->kic", pivots, rhs)
        xs = list(x)
        for i, p, _, drop_i in links:
            xs[i] += drop_i.dot(xs[p])
        return x

    return tree_solve


def sensitivity_matrix(model: FeederModel, solution: PowerFlowSolution) -> np.ndarray:
    """Voltage sensitivity A with A[i][j] = dV_i/dQ_j at the operating point,
    over `energized_pv_buses(model)` (the per-inverter matrix): the PV rows
    of `voltage_sensitivities`' dV/dQ."""
    dv_dq = voltage_sensitivities(model, solution)[1]
    pv_buses = set(energized_pv_buses(model))
    return dv_dq[[b in pv_buses for b in solution.load_bus_ids]]


def apply_topology_event(
    model: FeederModel, switch_id: str, new_state: str
) -> FeederModel:
    """Operate a switch and return the updated model.

    Opening may only de-energize buses that were already de-energized in
    the as-built configuration (normally-open switch semantics); islanding
    any other load/PV bus raises.
    """
    if new_state not in ("open", "closed"):
        raise FeederError(f"bad switch state {new_state!r}")
    k = model.switch_line(switch_id)
    lines, closed = model.lines, model.closed.copy()
    closed[k] = new_state == "closed"
    updated = model._copy(
        ("_pv_s",), closed=_frozen(closed),
        lines=lines[:k] + (replace(lines[k], switch_state=new_state),) + lines[k + 1:],
    )
    newly_dark = np.flatnonzero(model._island.energized & ~updated._island.energized)
    illegal = sorted(b for b in map(model.bus_ids.__getitem__, newly_dark.tolist())
                     if b not in model.detachable_buses)
    if illegal:
        raise FeederError(
            f"opening {switch_id} would island bus(es): {', '.join(illegal)}"
        )
    return updated


def feeder_from_dict(data: dict) -> FeederModel:
    """Build a feeder from its JSON form (see the README for the schema)."""
    try:
        return decode(FeederModel, data)
    except SchemaError as exc:
        raise FeederError(f"malformed feeder description: {exc}") from exc


def feeder_to_dict(model: FeederModel) -> dict:
    return encode(model)


def load_feeder(path: str | Path) -> FeederModel:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise FeederError(f"invalid feeder JSON in {path}: {exc}") from exc
    return feeder_from_dict(data)
