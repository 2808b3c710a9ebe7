"""Distribution feeder model, power flow, and voltage sensitivity.

Positive-sequence balanced model, per-unit on a single system VA base.
Models are immutable snapshots and every operation returns new objects.

Each topology is compiled once into a `CompiledNetwork`: the energized
island, its bus index maps, Ybus, the PQ index, Z = Y_LL^-1 and
w = -Z Y_LS, with Z from the Z-bus building algorithm rather than a
factorization.  `FeederModel.network` builds it on first use and keeps it;
snapshots that differ only in loads or slack voltage share it, and a switch
operation makes a model that compiles its own.  The compiled network is never
written after it is built, so snapshots stay safe to use concurrently.

`solve_power_flow` runs the Z-bus fixed point (the matrix form of the
backward/forward sweep, after Shirmohammadi et al. 1988 and Teng 2003)
V_L = w V_S + Z conj(S_L / V_L).  Z exists for any connected island, so
radial and meshed islands take the same path.  It stops once no voltage
moves by more than `FIXED_POINT_STEP` pu and then requires the Newton
mismatch test; that makes it as accurate as a Newton solve, which the
finite-difference sensitivities rely on.  Near the loadability limit the
fixed point stalls, so a solve that does not converge within
`DEFAULT_MAX_ITER` iterations falls back to Newton-Raphson, which also
supplies the Jacobian for `sensitivity_matrix`.  Z is dense, so memory
grows as O(n^2) in the island size; the design suits feeders up to about
1000 buses.
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
# mismatch-only stop leaves errors up to ~5e-9, too coarse for the
# finite-difference sensitivities
FIXED_POINT_STEP = 1e-13


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
        loads = np.array([complex(b.load_p, b.load_q) for b in self.buses])
        live = net.pos >= 0
        s[net.pos[live]] -= loads[live]
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
    """Voltages over the energized island. Buses de-energized behind open
    switches are absent."""

    bus_ids: tuple[str, ...]
    v_mag: np.ndarray
    v_ang: np.ndarray
    converged: bool
    iterations: int
    max_mismatch: float
    slack_id: str

    @property
    def load_bus_ids(self) -> tuple[str, ...]:
        return tuple(b for b in self.bus_ids if b != self.slack_id)

    @property
    def point_id(self) -> str:
        """Deterministic tag of the operating point (topology + voltages)."""
        h = hashlib.sha1()
        h.update(",".join(self.bus_ids).encode())
        h.update(np.round(self.v_mag, 10).tobytes())
        h.update(np.round(self.v_ang, 10).tobytes())
        return h.hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """One topology of a feeder, compiled for repeated solves.

    `island` lists the energized buses in model order and `index` maps
    each to its island position; `pos[k]` is the island position of model
    bus k (-1 when dark) and `cols[i]` the model index of island bus i.
    `z` is None when Y_LL is singular, which only the Newton path can then
    report.
    """

    island: tuple[str, ...]
    index: dict[str, int]
    pos: np.ndarray
    cols: np.ndarray
    ybus: np.ndarray
    slack_idx: int
    pq: np.ndarray
    z: np.ndarray | None
    w: np.ndarray | None


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
    ybus = np.zeros((n, n), dtype=complex)
    for ln in lines:
        if ln.from_bus not in index:
            continue
        y = 1.0 / complex(ln.resistance, ln.reactance)
        i, j = index[ln.from_bus], index[ln.to_bus]
        ybus[i, i] += y
        ybus[j, j] += y
        ybus[i, j] -= y
        ybus[j, i] -= y
    pos = np.array([index.get(b, -1) for b in bus_ids], dtype=int)
    slack_idx = index[model.slack_id]
    pq = np.delete(np.arange(n), slack_idx)
    tree = {k for _, k in via.values()}
    z = _zbus(
        n,
        [(index[a], index[b], lines[k]) for b, (a, k) in via.items() if k >= 0],
        [(index[ln.from_bus], index[ln.to_bus], ln) for k, ln in enumerate(lines)
         if k not in tree and ln.from_bus in index],
    )
    if z is not None:
        z = z[np.ix_(pq, pq)]
    w = None if z is None else -z @ ybus[pq, slack_idx]
    return CompiledNetwork(
        island=island,
        index=index,
        pos=pos,
        cols=np.flatnonzero(pos >= 0),
        ybus=ybus,
        slack_idx=slack_idx,
        pq=pq,
        z=z,
        w=w,
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
    ds_dvm = v[:, None] * np.conj(ybus * vnorm)
    ds_dvm[diag] += np.conj(ibus) * vnorm
    ds_dva = -1j * v[:, None] * np.conj(ybus * v)
    ds_dva[diag] += 1j * v * np.conj(ibus)
    return ds_dva, ds_dvm


def _jacobian(ybus: np.ndarray, v: np.ndarray, pq: np.ndarray) -> np.ndarray:
    ds_dva, ds_dvm = _dsbus_dv(ybus, v)
    sel = np.ix_(pq, pq)
    dva, dvm = ds_dva[sel], ds_dvm[sel]
    return np.block([[dva.real, dvm.real], [dva.imag, dvm.imag]])


def _newton(
    net: CompiledNetwork,
    s_spec: np.ndarray,
    v_slack: float,
    v0: np.ndarray | None,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, bool, int, float]:
    """Newton-Raphson in polar form from `v0` or a flat start; returns the
    voltage magnitudes and angles with the fixed point's other outputs."""
    ybus, slack_idx, pq = net.ybus, net.slack_idx, net.pq
    n = len(net.island)
    v_mag = np.ones(n) if v0 is None else np.abs(v0).copy()
    v_ang = np.zeros(n) if v0 is None else np.angle(v0).copy()
    v_mag[slack_idx] = v_slack
    v_ang[slack_idx] = 0.0
    mismatch = np.inf
    iterations = 0
    converged = False
    for _ in range(DEFAULT_MAX_ITER + 1):
        v = v_mag * np.exp(1j * v_ang)
        s_calc = v * np.conj(ybus @ v)
        dpq = np.concatenate([s_spec.real[pq] - s_calc.real[pq],
                              s_spec.imag[pq] - s_calc.imag[pq]])
        mismatch = float(np.maximum.reduce(np.abs(dpq), initial=0.0))
        if mismatch <= tol:
            converged = True
            break
        if iterations >= DEFAULT_MAX_ITER:
            break
        jac = _jacobian(ybus, v, pq)
        try:
            dx = np.linalg.solve(jac, dpq)
        except np.linalg.LinAlgError:
            break
        npq = len(pq)
        v_ang[pq] += dx[:npq]
        v_mag[pq] += dx[npq:]
        iterations += 1
        if not np.all(np.isfinite(v_mag)) or np.any(v_mag <= 0):
            break
    bad = ~np.isfinite(v_mag) | (v_mag <= 0)
    if np.any(bad):
        converged = False
    return v_mag, v_ang, converged, iterations, mismatch


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


def solve_power_flow(
    model: FeederModel,
    injections: np.ndarray | None = None,
    v_init: PowerFlowSolution | None = None,
) -> PowerFlowSolution:
    """Solve the feeder power flow over the energized island.

    `injections` are extra pu injections added on top of the model's loads
    and PV unit outputs: a complex array of P + jQ with one entry per bus
    of `model.bus_ids`.  Injections at buses off the island are ignored.
    `v_init` warm-starts the solve from a previous solution on the same
    island.  The Z-bus fixed point runs first, to a power mismatch of
    `DEFAULT_TOL`; if it does not converge within `DEFAULT_MAX_ITER`
    iterations, Newton-Raphson takes over from the warm start and then
    once more from a flat start.  Non-convergence is reported via
    `converged=False`, not raised.
    """
    net = model.network
    s_spec = model._s_base
    if injections is not None:
        if not isinstance(injections, np.ndarray) or injections.shape != net.pos.shape:
            raise PowerFlowError("injections need a P + jQ array, one entry per model bus")
        s_spec = s_spec + injections[net.cols]  # entries at dark buses are inert
    v_slack = model.slack.v_set

    v0 = None
    if v_init is not None and v_init.bus_ids == net.island:
        v0 = v_init.v_mag * np.exp(1j * v_init.v_ang)
    v, converged, iterations, mismatch = _fixed_point(net, s_spec, v_slack, v0, DEFAULT_TOL)
    if converged:
        v_mag, v_ang = np.abs(v), np.angle(v)
    else:
        v_mag, v_ang, converged, iterations, mismatch = _newton(
            net, s_spec, v_slack, v0, DEFAULT_TOL)
        if not converged and v0 is not None:
            v_mag, v_ang, converged, iterations, mismatch = _newton(
                net, s_spec, v_slack, None, DEFAULT_TOL)
    return PowerFlowSolution(
        bus_ids=net.island,
        v_mag=v_mag,
        v_ang=v_ang,
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


def sensitivity_matrix(
    model: FeederModel,
    solution: PowerFlowSolution,
    buses: tuple[str, ...] | None = None,
) -> np.ndarray:
    """Voltage sensitivity A with A[i][j] = dV_i/dQ_j at the operating point.

    Extracted from the power-flow Jacobian, reduced by default to
    `energized_pv_buses(model)` (the per-inverter matrix); pass `buses`
    for any other subset, in the order given.
    """
    if not solution.converged:
        raise PowerFlowError("sensitivity requires a converged operating point")
    net = model.network
    if net.island != solution.bus_ids:
        raise PowerFlowError("solution does not match the model topology")
    if buses is None:
        buses = energized_pv_buses(model)
    col = {b: i for i, b in enumerate(solution.load_bus_ids)}
    for b in buses:
        if b not in col:
            raise FeederError(f"bus {b} is not an energized load bus")

    pq = net.pq
    v = solution.v_mag * np.exp(1j * solution.v_ang)
    jac = _jacobian(net.ybus, v, pq)
    npq = len(pq)
    rhs = np.vstack([np.zeros((npq, npq)), np.eye(npq)])
    try:
        x = np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError as exc:
        raise PowerFlowError(
            "singular Jacobian at operating point (near voltage collapse)"
        ) from exc
    a_full = x[npq:, :]
    sel = [col[b] for b in buses]
    return a_full[np.ix_(sel, sel)]


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
