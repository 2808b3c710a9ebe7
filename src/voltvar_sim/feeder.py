"""Distribution feeder model, power flow, and voltage sensitivity.

Positive-sequence balanced model, per-unit on a single system VA base.
Models are immutable snapshots and every operation returns new objects.

Each topology is compiled once into a `CompiledNetwork`: the energized
island, its bus index maps and the PQ index, then the arrays its solves
iterate on.  `FeederModel.network` builds it on first use and keeps it;
snapshots that differ only in loads or slack voltage share it, and a switch
operation makes a model that compiles its own.  The compiled network is never
written after it is built (its lazily built arrays are computed once and
kept), so snapshots stay safe to use concurrently.

`solve_power_flow` iterates the fixed point V_L = w V_S + Z conj(S_L / V_L)
of the backward/forward sweep (Shirmohammadi et al. 1988; Teng 2003) in
one of two forms, chosen per island when it is compiled:
- a radial island of more than `SWEEP_BUSES` buses runs the sweep itself
  on tree arrays (depth-first preorder, subtree ranges, the enter and
  leave steps of a walk down the tree, line impedances): each iteration is
  a few O(n) array calls, and no n x n array is built;
- any other island, meshed ones of every size included, runs the matrix
  form with a dense Z = Y_LL^-1 from the Z-bus building algorithm rather
  than a factorization, and w = -Z Y_LS.  Z needs O(n^2) memory and
  each iteration is an O(n^2) mat-vec, but on a few dozen buses that one
  call is cheaper than the sweep's extra ones.  `SWEEP_BUSES` sits where
  the two cost the same per solve.
Both stop once no voltage moves by more than `FIXED_POINT_STEP` pu and
then require the Newton mismatch test; that makes them as accurate as a
Newton solve, which the tests' finite-difference sensitivities rely on.
Near the loadability limit the fixed point stalls, so a solve that does not
converge within `DEFAULT_MAX_ITER` iterations falls back to Newton-Raphson.
All three solvers return complex voltages, which a `PowerFlowSolution`
holds as `v`; a warm start reuses them as they are.
Ybus is built on first use: the Z path reads it every solve, while on a
sweep island only the Newton fallback and the sensitivities need it.

`voltage_sensitivities` builds Newton's Jacobian at a solved operating
point and solves it once for dV/dP, dV/dQ and dV/dV_slack, which
linearize the feeder; `sensitivity_matrix` is the PV-bus rows of its
dV/dQ.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .codec import SchemaError, decode, encode

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


class FeederError(Exception):
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
        if not self.base_voltage > 0:
            raise FeederError(f"bus {self.id}: base_voltage must be > 0")
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
        if self.rating_s <= 0:
            raise FeederError(f"pv at {self.bus}: rating_s must be > 0")
        if self.p_out < 0:
            raise FeederError(f"pv at {self.bus}: p_out must be >= 0")
        if self.p_out > self.rating_s * (1 + 1e-9):
            raise FeederError(f"pv at {self.bus}: p_out exceeds rating_s")


@dataclass(frozen=True)
class FeederModel:
    """Immutable feeder snapshot: buses, lines, PV units.

    `detachable_buses` (an attribute, not a field) are buses that are
    de-energized in the as-built switch configuration (behind normally-open
    switches).  Switch events may re-island exactly those buses; islanding
    any other load/PV bus is an error.  The set is computed on construction
    and carried through topology events unchanged.

    The island walk, the compiled `network` and the base injections are
    cached properties, computed on first use and kept on the snapshot; none
    is a field, so equality and hashing ignore them.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    pv_units: tuple[PvUnit, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise FeederError("duplicate bus ids")
        slacks = [b for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise FeederError(f"need exactly one slack bus, found {len(slacks)}")
        known = set(ids)
        for ln in self.lines:
            if ln.from_bus not in known or ln.to_bus not in known:
                raise FeederError(f"line {ln.name}: references unknown bus")
        # a switch event operates the one line of its name
        names = [ln.name for ln in self.lines]
        if len(set(names)) < len(names):
            count = Counter(names)
            for ln, name in zip(self.lines, names):
                if ln.switch_state != "none" and count[name] > 1:
                    raise FeederError(f"switch {name}: name shared with another line")
        pv_buses = [u.bus for u in self.pv_units]
        if len(set(pv_buses)) != len(pv_buses):
            raise FeederError("multiple PV units on one bus are not supported")
        for u in self.pv_units:
            if u.bus not in known:
                raise FeederError(f"pv unit references unknown bus {u.bus}")
        # every bus must be reachable from the slack with all switches closed
        full = _walk(self.slack_id, self.bus_ids, list(self.lines))
        for bus_id in ids:
            if bus_id not in full:
                raise PowerFlowError(f"disconnected bus: {bus_id}")
        object.__setattr__(self, "detachable_buses", frozenset(ids).difference(self._island))

    @property
    def slack_id(self) -> str:
        return next(b.id for b in self.buses if b.kind == "slack")

    @property
    def slack(self) -> Bus:
        return next(b for b in self.buses if b.kind == "slack")

    @property
    def bus_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.buses)

    @property
    def pv_buses(self) -> tuple[str, ...]:
        return tuple(u.bus for u in self.pv_units)

    @cached_property
    def _island(self) -> dict[str, tuple[str, int]]:
        """`_walk` over the in-service lines: the one walk of this topology,
        which gives the island and the spanning tree the Z-bus build follows."""
        return _walk(self.slack_id, self.bus_ids, [ln for ln in self.lines if ln.in_service])

    @cached_property
    def network(self) -> CompiledNetwork:
        """This topology compiled for repeated solves."""
        return _compile(self)

    @cached_property
    def _s_base(self) -> np.ndarray:
        """Complex injections of the loads and PV units over the island."""
        net = self.network
        s = np.zeros(len(net.island), dtype=complex)
        # subtracted from zeros, so that a +0.0 load stays +0.0
        s -= np.array([complex(b.load_p, b.load_q) for b in self.buses])[net.cols]
        for u in self.pv_units:
            if u.bus in net.index:
                s[net.index[u.bus]] += complex(u.p_out, u.q_inj)
        return s

    def with_slack_voltage(self, v_pu: float) -> "FeederModel":
        buses = tuple(
            replace(b, v_set=v_pu) if b.kind == "slack" else b for b in self.buses
        )
        return self._copy(("_island", "network"), buses=buses)

    def with_scaled_loads(self, factor: float) -> "FeederModel":
        if not (math.isfinite(factor) and factor >= 0):
            raise FeederError("load scale factor must be finite and >= 0")
        buses = tuple(
            replace(b, load_p=b.load_p * factor, load_q=b.load_q * factor)
            for b in self.buses
        )
        return self._copy(("_island", "network"), buses=buses)

    def _copy(self, kept: tuple[str, ...], **changes) -> "FeederModel":
        """Copy with `changes` to its fields and this snapshot's cached
        `kept`, unchecked: the model checks read bus ids and kinds, line ends
        and names, which lines are switches, PV buses and reachability with
        all switches closed, which no caller changes.  Callers swap bus or PV
        data (each new `Bus` or `PvUnit` checks its values) or operate one switch."""
        out = object.__new__(FeederModel)
        out.__dict__.update({f.name: getattr(self, f.name) for f in fields(self)},
                            detachable_buses=self.detachable_buses, **changes)
        out.__dict__.update((k, self.__dict__[k]) for k in kept if k in self.__dict__)
        return out


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

    `island` lists the energized buses in model order and `index` maps
    each to its island position; `cols[i]` is the model index of island
    bus i.
    `lines` are the in-service lines on the island, in model order, with
    the island positions of their ends.

    A radial island of more than `SWEEP_BUSES` buses keeps its `tree` for
    the sweep and has `z` None; any other island has `tree` None and `z`,
    which is None when Y_LL is singular (only the Newton path can then
    report that).  `ybus` and `w` are built on first use: on a sweep
    island only the Newton fallback and the sensitivities read Ybus.
    """

    island: tuple[str, ...]
    index: dict[str, int]
    cols: np.ndarray
    lines: tuple[tuple[int, int, Line], ...]
    slack_idx: int
    pq: np.ndarray
    z: np.ndarray | None
    tree: RadialTree | None

    @cached_property
    def ybus(self) -> np.ndarray:
        n = len(self.island)
        ybus = np.zeros((n, n), dtype=complex)
        for i, j, ln in self.lines:
            y = 1.0 / complex(ln.resistance, ln.reactance)
            ybus[i, i] += y
            ybus[j, j] += y
            ybus[i, j] -= y
            ybus[j, i] -= y
        return ybus

    @cached_property
    def w(self) -> np.ndarray | None:
        """-Z Y_LS: the load-bus voltages per unit of slack voltage at no
        load (Z path only)."""
        return None if self.z is None else -self.z @ self.ybus[self.pq, self.slack_idx]


def _walk(
    slack_id: str, bus_ids: tuple[str, ...], lines: list[Line]
) -> dict[str, tuple[str, int]]:
    """Breadth-first walk from the slack over `lines`: each bus reached,
    in walk order, with the bus and the index of the line it was reached
    from (("", -1) for the slack)."""
    adj: dict[str, list[int]] = {b: [] for b in bus_ids}
    for k, ln in enumerate(lines):
        adj[ln.from_bus].append(k)
        adj[ln.to_bus].append(k)
    order, via = [slack_id], {slack_id: ("", -1)}
    for b in order:  # `order` grows while it is walked
        for k in adj[b]:
            nxt = lines[k].to_bus if lines[k].from_bus == b else lines[k].from_bus
            if nxt not in via:
                via[nxt] = (b, k)
                order.append(nxt)
    return via


def _compile(model: FeederModel) -> CompiledNetwork:
    bus_ids = model.bus_ids
    lines = [ln for ln in model.lines if ln.in_service]  # as `_island` walked them
    via = model._island
    island = tuple(b for b in bus_ids if b in via)
    index = {b: i for i, b in enumerate(island)}
    n = len(island)
    slack_idx = index[model.slack_id]
    pq = np.delete(np.arange(n), slack_idx)
    on_island = tuple((index[ln.from_bus], index[ln.to_bus], ln)
                      for ln in lines if ln.from_bus in index)
    tree = z = None
    if len(on_island) == n - 1 and n > SWEEP_BUSES:  # radial: the lines span the island
        tree = _radial_tree(slack_idx, on_island)
    else:
        walked = {k for _, k in via.values()}
        z = _zbus(
            n,
            [(index[a], index[b], lines[k]) for b, (a, k) in via.items() if k >= 0],
            [(index[ln.from_bus], index[ln.to_bus], ln) for k, ln in enumerate(lines)
             if k not in walked and ln.from_bus in index],
        )
        if z is not None:
            z = z[np.ix_(pq, pq)]
    return CompiledNetwork(
        island=island,
        index=index,
        cols=np.array([k for k, b in enumerate(bus_ids) if b in index], dtype=int),
        lines=on_island,
        slack_idx=slack_idx,
        pq=pq,
        z=z,
        tree=tree,
    )


def _radial_tree(slack_idx: int, lines: tuple[tuple[int, int, Line], ...]) -> RadialTree:
    """The `RadialTree` of an island whose `lines` (island positions of
    both ends, and the line) form a tree, walked depth first from the
    slack; the lines at a bus are taken in the order of `lines`."""
    adj: dict[int, list[tuple[int, Line]]] = {}
    for i, j, ln in lines:
        adj.setdefault(i, []).append((j, ln))
        adj.setdefault(j, []).append((i, ln))
    order, up, z, enter, end = [slack_idx], [], [], [], {}
    walk, leaving = [], []  # the bus of each step of the walk, and whether it leaves it
    # a tuple on the stack enters a bus; an int leaves that preorder position
    stack: list = [(j, 0, ln) for j, ln in reversed(adj.get(slack_idx, []))]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            end[item] = len(order) - 1
            walk.append(item)
            leaving.append(True)
            continue
        j, parent, ln = item
        k = len(order) - 1
        above = order[parent]
        order.append(j)
        up.append(parent)
        z.append(complex(ln.resistance, ln.reactance))
        walk.append(k)
        leaving.append(False)
        enter.append(len(walk))
        stack.append(k)
        stack.extend((c, k + 1, cl) for c, cl in reversed(adj[j]) if c != above)
    z_arr = np.array(z, dtype=complex)
    walk_z = z_arr[walk]
    return RadialTree(
        order=np.array(order[1:], dtype=int),
        up=np.array(up, dtype=int),
        z=z_arr,
        enter=np.array(enter, dtype=int),
        walk_bus=np.array(walk, dtype=int),
        walk_end=np.array([end[k] for k in walk], dtype=int),
        walk_z=np.where(leaving, -walk_z, walk_z),
    )


def _zbus(
    n: int, tree: list[tuple[int, int, Line]], loops: list[tuple[int, int, Line]]
) -> np.ndarray | None:
    """Bus impedance matrix of an island of `n` buses with the slack as
    reference (its row and column stay zero), so Z[pq, pq] = Y_LL^-1.
    Built by the Z-bus building algorithm: a `tree` line (parent, child),
    in breadth-first order, copies the row of the bus it hangs from, and a
    line that closes a loop is a rank-1 update.  That is O(n) per tree line
    and O(n^2) per loop, with no factorization.  None when a loop has zero
    impedance (Y_LL singular)."""
    zb = np.zeros((n, n), dtype=complex)
    for i, j, ln in tree:
        zb[j] = zb[i]
        zb[:, j] = zb[:, i]
        zb[j, j] = zb[i, i] + complex(ln.resistance, ln.reactance)
    for i, j, ln in loops:
        d = zb[:, i] - zb[:, j]
        den = d[i] - d[j] + complex(ln.resistance, ln.reactance)
        if den == 0:
            return None
        zb -= np.outer(d, d) / den
    return zb


def _dsbus_dv(ybus: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ibus = ybus @ v
    diag = np.diag_indices_from(ybus)
    vnorm = v / np.abs(v)
    ds_dvm = np.multiply(ybus, vnorm)
    np.multiply(v[:, None], np.conjugate(ds_dvm, out=ds_dvm), out=ds_dvm)
    ds_dvm[diag] += np.conj(ibus) * vnorm
    ds_dva = np.multiply(ybus, v)
    np.multiply(-1j * v[:, None], np.conjugate(ds_dva, out=ds_dva), out=ds_dva)
    ds_dva[diag] += 1j * v * np.conj(ibus)
    return ds_dva, ds_dvm


def _jacobian(ybus: np.ndarray, v: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Newton's Jacobian over the PQ buses: rows dP then dQ, columns dVa
    then dVm, each block written straight into the one array."""
    npq = len(pq)
    jac = np.empty((2 * npq, 2 * npq))
    for cols, ds in zip((slice(None, npq), slice(npq, None)), _dsbus_dv(ybus, v)):
        block = ds[pq][:, pq]
        jac[:npq, cols] = block.real
        jac[npq:, cols] = block.imag
    return jac


def _newton(
    net: CompiledNetwork,
    s_spec: np.ndarray,
    v_slack: float,
    v0: np.ndarray | None,
    tol: float,
) -> tuple[np.ndarray, bool, int, float]:
    """Newton-Raphson from `v0` or a flat start, on the `_fixed_point`
    contract.  It steps the polar magnitudes and angles and builds the
    phasors `v` from them before each mismatch test; a magnitude that is
    not finite and positive stops it unconverged, with `v` all NaN."""
    ybus, slack_idx, pq = net.ybus, net.slack_idx, net.pq
    n, npq = len(net.island), len(pq)
    v_mag = np.ones(n) if v0 is None else np.abs(v0)
    v_ang = np.zeros(n) if v0 is None else np.angle(v0)
    v_mag[slack_idx] = v_slack
    v_ang[slack_idx] = 0.0
    mismatch = np.inf
    for iterations in range(DEFAULT_MAX_ITER + 1):
        if not np.all(np.isfinite(v_mag)) or np.any(v_mag <= 0):
            v = np.full(n, np.nan, dtype=complex)  # a diverged step stays visibly invalid
            break
        v = v_mag * np.exp(1j * v_ang)
        s_calc = v * np.conj(ybus @ v)
        dpq = np.concatenate([s_spec.real[pq] - s_calc.real[pq],
                              s_spec.imag[pq] - s_calc.imag[pq]])
        mismatch = float(np.maximum.reduce(np.abs(dpq), initial=0.0))
        if mismatch <= tol or iterations == DEFAULT_MAX_ITER:
            break
        try:
            dx = np.linalg.solve(_jacobian(ybus, v, pq), dpq)
        except np.linalg.LinAlgError:
            break
        v_ang[pq] += dx[:npq]
        v_mag[pq] += dx[npq:]
    # every other exit follows a mismatch above `tol`
    return v, mismatch <= tol, iterations, mismatch


def _fixed_point(
    net: CompiledNetwork,
    s_spec: np.ndarray,
    v_slack: float,
    v0: np.ndarray | None,
    tol: float,
) -> tuple[np.ndarray, bool, int, float]:
    """Z-bus fixed point V_L <- w V_S + Z conj(S_L / V_L) from `v0` or the
    no-load voltages.  Converged means the last step moved no voltage by
    more than FIXED_POINT_STEP and the power mismatch is within `tol`."""
    v = np.full(len(net.island), v_slack, dtype=complex)
    if net.z is None:
        return v, False, 0, np.inf
    pq, z = net.pq, net.z
    s_l = s_spec[pq]
    v_src = net.w * v_slack
    v_l = v_src if v0 is None else v0[pq]
    step = np.inf if len(pq) else 0.0
    iterations = 0
    # on feeder-sized arrays call overhead, not arithmetic, is the cost of
    # an iteration, so the step is one direct ufunc reduction (the loop is
    # never entered with an empty `pq`)
    with np.errstate(all="ignore"):
        while iterations < DEFAULT_MAX_ITER and step > FIXED_POINT_STEP:
            v_new = v_src + z @ np.conj(s_l / v_l)
            step = np.maximum.reduce(np.abs(v_new - v_l))
            v_l = v_new
            iterations += 1
            if not math.isfinite(step):
                break
        v[pq] = v_l
        ds = s_l - v_l * np.conj((net.ybus @ v)[pq])
        # max(max|Re|, max|Im|) over the interleaved parts
        mismatch = float(np.maximum.reduce(np.abs(ds.view(np.float64)), initial=0.0))
    converged = bool(step <= FIXED_POINT_STEP and mismatch <= tol)
    return v, converged, iterations, mismatch


def _sweep(
    net: CompiledNetwork,
    s_spec: np.ndarray,
    v_slack: float,
    v0: np.ndarray | None,
    tol: float,
) -> tuple[np.ndarray, bool, int, float]:
    """`_fixed_point`'s map and stop rule on a radial island's `tree`, as
    the backward/forward sweep of Shirmohammadi et al. (1988): the current
    through each line is the sum of the injected currents below it, and
    each bus voltage is the slack voltage plus the drops (z times that
    current) of the lines on its path.  O(n) per iteration; the closing
    mismatch comes from the line currents."""
    t = net.tree
    v = np.full(len(net.island), v_slack, dtype=complex)
    s_l = s_spec[t.order]
    v_l = v[t.order] if v0 is None else v0[t.order]
    m = len(s_l)
    # running sums from 0 of the injected currents in preorder, and over
    # the walk from the slack voltage
    acc = np.zeros(m + 1, dtype=complex)
    walk = np.empty(2 * m + 1, dtype=complex)
    walk[0] = v_slack
    currents, drops = acc[1:], walk[1:]
    step = np.inf if m else 0.0
    iterations = 0
    with np.errstate(all="ignore"):
        while iterations < DEFAULT_MAX_ITER and step > FIXED_POINT_STEP:
            # backward: a line carries the currents of the subtree below it,
            # one difference of the running sum; forward: each drop joins the
            # walk's running sum on entering its bus and leaves it on leaving,
            # so the sum on entering a bus is its voltage
            np.add.accumulate(np.conj(s_l / v_l), out=currents)
            np.multiply(t.walk_z, acc[t.walk_end] - acc[t.walk_bus], out=drops)
            v_new = np.add.accumulate(walk, out=walk)[t.enter]
            step = np.maximum.reduce(np.abs(v_new - v_l))
            v_l = v_new
            iterations += 1
            if not math.isfinite(step):
                break
        # (Ybus v) at a load bus: the line currents out to the buses below
        # it less the current in from the bus above
        i_in = (np.concatenate(([v_slack], v_l))[t.up] - v_l) / t.z
        i_out = np.bincount(t.up, i_in.real, m + 1) + 1j * np.bincount(t.up, i_in.imag, m + 1)
        ds = s_l - v_l * np.conj(i_out[1:] - i_in)
        mismatch = float(np.maximum.reduce(np.abs(ds.view(np.float64)), initial=0.0))
    v[t.order] = v_l
    converged = bool(step <= FIXED_POINT_STEP and mismatch <= tol)
    return v, converged, iterations, mismatch


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
    point (the sweep on a large radial island, the Z-bus form on any
    other), then Newton-Raphson from the warm start, then, if there was
    one, Newton-Raphson from a flat start.  Non-convergence is reported
    via `converged=False`, not raised.
    """
    net = model.network
    s_spec = model._s_base
    if injections is not None:
        if not isinstance(injections, np.ndarray) or injections.shape != (len(model.buses),):
            raise PowerFlowError("injections need a P + jQ array, one entry per model bus")
        s_spec = s_spec + injections[net.cols]  # entries at dark buses are inert
    v_slack = model.slack.v_set

    v0 = v_init.v if v_init is not None and v_init.bus_ids == net.island else None
    attempts = [(_fixed_point if net.tree is None else _sweep, v0), (_newton, v0)]
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
    row per load bus.  All three come from one solve against the
    power-flow Jacobian, with a unit P and a unit Q column per PV bus and
    the substation column -dS/dV_slack.
    """
    if not solution.converged:
        raise PowerFlowError("sensitivity requires a converged operating point")
    net = model.network
    if net.island != solution.bus_ids:
        raise PowerFlowError("solution does not match the model topology")
    pq = net.pq
    pv_buses = set(model.pv_buses)
    unit = np.eye(len(pq))[:, [b in pv_buses for b in solution.load_bus_ids]]
    k = unit.shape[1]
    zero = np.zeros_like(unit)
    ds_dslack = solution.v[pq] * np.conj(net.ybus[pq, net.slack_idx])  # the slack angle is 0
    rhs = np.block([[unit, zero, -ds_dslack.real[:, None]],
                    [zero, unit, -ds_dslack.imag[:, None]]])
    try:
        x = np.linalg.solve(_jacobian(net.ybus, solution.v, pq), rhs)[len(pq):]
    except np.linalg.LinAlgError as exc:
        raise PowerFlowError(
            "singular Jacobian at operating point (near voltage collapse)"
        ) from exc
    # copies, not views: the twin's per-tick mat-vecs are faster on contiguous blocks
    return x[:, :k].copy(), x[:, k:2 * k].copy(), x[:, 2 * k].copy()


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
    target = next((ln for ln in model.lines if ln.name == switch_id), None)
    if target is None:
        raise FeederError(f"no such switch: {switch_id}")
    if target.switch_state == "none":
        raise FeederError(f"line {switch_id} is not a switch")
    lines = tuple(
        replace(ln, switch_state=new_state) if ln is target else ln for ln in model.lines
    )
    updated = model._copy((), lines=lines)
    newly_dark = set(model._island) - set(updated._island)
    illegal = sorted(newly_dark - model.detachable_buses)
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
