"""Sequential type specifications and implemented-object programs.

Two layers live here.  The spec factories (``register_spec`` and
friends) give deterministic sequential specifications used both for
atomic base objects and for validity checking; ``spec_of_entry``
rebuilds one from an object's registry entry.  The ``ImplProgram``
constructors package the classic constructions as step machines:
each method body is a generator that yields one base-object invocation
per step, receives the response, and returns the method's result.

Every base object is laid out in setup, before the run's first grant,
and the engine refuses allocation after that.  A body's shared state is
therefore only its own base objects: no body allocates, and none keeps
a counter that other processes bump.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from math import isqrt
from typing import Any, Callable

from .histories import ANY_RESPONSE, BOTTOM, COIN, LABELS, ObjectInfo, SeqSpec

# ---------------------------------------------------------------------------
# Sequential specifications
# ---------------------------------------------------------------------------


@functools.cache
def _defaults(make: Callable[..., SeqSpec]) -> dict[str, Any]:
    """The keyword parameters of a spec factory with their defaults."""
    params = inspect.signature(make).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def _changed(make: Callable[..., SeqSpec], *values: Any) -> tuple:
    """Keyword parameters of ``make``, valued in order, off their defaults."""
    named = zip(_defaults(make).items(), values)
    return tuple((k, v) for (k, default), v in named if v != default)


def _observe(state, process):
    return state, state


def _overwrite(state, process, v):
    return v, None


def _increment(state, process):
    return state + 1, state


def _check_domain(what: str, v: Any, domain_bound: int) -> None:
    # The multivalued register holds the integers 0..bound; floats and
    # booleans compare like integers, so rule them out by type.
    if type(v) is not int or not 0 <= v <= domain_bound:
        raise ValueError(f"{what} {v!r} outside 0..{domain_bound}")


def register_spec(initial: Any = 0, domain_bound: int | None = None) -> SeqSpec:
    """Read/write register.  With ``domain_bound`` set, writes outside
    the integers {0..domain_bound} are rejected (the multivalued SRSW
    type)."""

    def write(state, process, v):
        if domain_bound is not None:
            _check_domain("write value", v, domain_bound)
        return v, None

    ops = {"write": (1, write), "read": (0, _observe)}
    changed = _changed(register_spec, initial, domain_bound)
    return SeqSpec("register", initial, ops, changed, ignores_process=True)


def snapshot_spec(n: int, initial: int = 0) -> SeqSpec:
    """n-component snapshot; update writes the caller's own component."""

    def update(state, process, v):
        if not 0 <= process < n:
            raise ValueError(f"process {process} has no snapshot component")
        s = list(state)
        s[process] = v
        return tuple(s), None

    ops = {"update": (1, update), "scan": (0, _observe)}
    return SeqSpec("snapshot", (initial,) * n, ops, _changed(snapshot_spec, initial))


def queue_spec() -> SeqSpec:
    """FIFO queue; dequeue on empty returns the reserved empty marker."""

    def enqueue(state, process, v):
        return state + (v,), None

    def dequeue(state, process):
        if not state:
            return state, BOTTOM
        return state[1:], state[0]

    ops = {"enqueue": (1, enqueue), "dequeue": (0, dequeue)}
    return SeqSpec("queue", (), ops, ignores_process=True)


def counter_spec(initial: int = 0) -> SeqSpec:
    """Strong counter: fetch&inc / fetch&dec, both returning the prior
    value."""

    def fetch_dec(state, process):
        return state - 1, state

    ops = {"fetch_inc": (0, _increment), "fetch_dec": (0, fetch_dec),
           "read": (0, _observe)}
    changed = _changed(counter_spec, initial)
    return SeqSpec("strong-counter", initial, ops, changed, ignores_process=True)


def cas_spec(initial: Any = 0) -> SeqSpec:
    """Compare-and-swap object returning the prior value."""

    def cas(state, process, x, y):
        if state == x:
            return y, x
        return state, state

    ops = {"cas": (2, cas), "read": (0, _observe)}
    return SeqSpec("cas", initial, ops, _changed(cas_spec, initial), ignores_process=True)


def llsc_spec(initial: Any = 0) -> SeqSpec:
    """Register with LL/SC.  State is (value, linked process ids).

    SC by p succeeds iff p holds a link and no successful write or SC
    intervened since (both clear every link).  SC returns 1 or 0.
    """

    def ll(state, process):
        value, links = state
        return (value, links | {process}), value

    def sc(state, process, v):
        if process in state[1]:
            return (v, frozenset()), 1
        return state, 0

    def write(state, process, v):
        return (v, frozenset()), None

    def read(state, process):
        return state, state[0]

    ops = {"ll": (0, ll), "sc": (1, sc), "write": (1, write), "read": (0, read)}
    changed = _changed(llsc_spec, initial)
    return SeqSpec("llsc-register", (initial, frozenset()), ops, changed)


def rmw_cell_spec(initial: Any = 0) -> SeqSpec:
    """Read-modify-write cell: read, write, fetch&set, fetch&inc."""

    def fetch_set(state, process, v):
        return v, state

    ops = {"read": (0, _observe), "write": (1, _overwrite),
           "fetch_set": (1, fetch_set), "fetch_inc": (0, _increment)}
    changed = _changed(rmw_cell_spec, initial)
    return SeqSpec("rmw-cell", initial, ops, changed, ignores_process=True)


def test_and_set_spec() -> SeqSpec:
    """One-shot test&set bit returning the prior value (0 means won)."""

    def test_set(state, process):
        return 1, state

    ops = {"test_set": (0, test_set), "read": (0, _observe)}
    return SeqSpec("test-and-set", 0, ops, ignores_process=True)


def coin_spec() -> SeqSpec:
    """Per-process coin; any recorded outcome validates."""

    def flip(state, process):
        return state, ANY_RESPONSE

    return SeqSpec(COIN, None, {"flip": (0, flip)}, ignores_process=True)


#: Every sequential type by name.  The registry entry of an atomic or
#: implemented object names its type here.
SPECS: dict[str, Callable[..., SeqSpec]] = {
    "register": register_spec,
    "snapshot": snapshot_spec,
    "queue": queue_spec,
    "strong-counter": counter_spec,
    "cas": cas_spec,
    "llsc-register": llsc_spec,
    "rmw-cell": rmw_cell_spec,
    "test-and-set": test_and_set_spec,
    COIN: coin_spec,
}


def spec_of_entry(info: ObjectInfo, processes: tuple[int, ...]) -> SeqSpec:
    """The spec an entry names, built from its params other than its
    LABELS; a snapshot is as wide as the process list.  ValueError for an
    unknown type or parameter."""
    make = SPECS.get(info.type_name)
    if make is None:
        raise ValueError(f"no specification for type {info.type_name!r}")
    args = {k: v for k, v in info.params if k not in LABELS}
    unknown = args.keys() - _defaults(make).keys()
    if unknown:
        raise ValueError(f"type {info.type_name!r} has no parameter {min(unknown)!r}")
    if make is snapshot_spec:
        return make(max(len(processes), 1), **args)
    return make(**args)


# ---------------------------------------------------------------------------
# Implemented objects
# ---------------------------------------------------------------------------

#: alloc(spec, type_name, params) -> base object id, provided by the engine.
Allocator = Callable[[SeqSpec, str, tuple], int]


@dataclass(frozen=True)
class ImplProgram:
    """An implemented object: a target type plus deterministic method
    bodies over its own base objects.

    ``setup(alloc)`` lays out every base object the implementation
    uses, whose immutable specs every run shares, and returns the
    instance state (one engine run owns it); the allocator raises
    EngineError once set-up is over.  ``body(state, p, op, args)``
    returns a generator yielding ("invoke", oid, op, args) actions; its
    return value is the method response.  A body issues no base
    operation for an op it does not implement, and the engine rejects
    that call.
    """

    impl_name: str
    target_spec: SeqSpec
    setup: Callable[[Allocator], Any]
    body: Callable[[Any, int, str, tuple], Any]


def _read(oid):
    return ("invoke", oid, "read", ())


def _write(oid, v):
    return ("invoke", oid, "write", (v,))


def vidyasankar_register(domain_bound: int, initial: int) -> ImplProgram:
    """Multivalued SRSW register from atomic bits.

    Write sets the target bit then zeroes everything below it; read
    scans upward to the first set bit, then downward, returning the
    lowest set bit it saw on the way back.
    """
    _check_domain("initial", initial, domain_bound)

    bit_specs = [
        register_spec(1 if i == initial else 0, domain_bound=1)
        for i in range(domain_bound + 1)
    ]

    def setup(alloc):
        bits = tuple(
            alloc(spec, "bit-register", (("index", i),))
            for i, spec in enumerate(bit_specs)
        )
        return {"bits": bits}

    def body(state, p, op, args):
        bits = state["bits"]
        if op == "write":
            (v,) = args
            _check_domain("write value", v, domain_bound)
            yield _write(bits[v], 1)
            for j in range(v - 1, -1, -1):
                yield _write(bits[j], 0)
            return None
        if op == "read":
            i = 0
            while True:
                b = yield _read(bits[i])
                if b == 1:
                    break
                i += 1
            val = i
            for j in range(i - 1, -1, -1):
                b = yield _read(bits[j])
                if b == 1:
                    val = j
            return val

    return ImplProgram(
        "vidyasankar-register",
        register_spec(initial, domain_bound=domain_bound),
        setup,
        body,
    )


def aadgms_snapshot(n: int) -> ImplProgram:
    """Single-writer snapshot with double collects and borrowed views.

    Each component register holds (value, sequence number, embedded
    view).  A scan repeats collects until two successive ones agree, or
    until some writer's sequence number is seen to change twice, in
    which case the scan borrows that writer's embedded view from the
    latest collect (lowest component index on ties).  An update runs an
    inner scan and then publishes (value, next seq, that view) in one
    write; only the updater writes its cell, so the scan's last collect
    holds its current sequence number.
    """
    if n < 1:
        raise ValueError("need at least one component")

    cell = register_spec((0, 0, (0,) * n))

    def setup(alloc):
        cells = tuple(
            alloc(cell, "snapshot-cell", (("component", i),)) for i in range(n)
        )
        return {"cells": cells}

    def scan_views(cells):
        # The view, and the last collect, which an update reads its own
        # sequence number from.
        prev = None
        changes = [0] * n
        while True:
            cur = []
            for j in range(n):
                cur.append((yield _read(cells[j])))
            if prev is not None:
                if cur == prev:
                    return tuple(entry[0] for entry in cur), cur
                for j in range(n):
                    if cur[j][1] != prev[j][1]:
                        changes[j] += 1
                for j in range(n):
                    if changes[j] >= 2:
                        return tuple(cur[j][2]), cur
            prev = cur

    def body(state, p, op, args):
        cells = state["cells"]
        if op == "scan":
            view, _ = yield from scan_views(cells)
            return view
        if op == "update":
            (v,) = args
            if not 0 <= p < n:
                raise ValueError(f"process {p} has no snapshot component")
            view, seen = yield from scan_views(cells)
            yield _write(cells[p], (v, seen[p][1] + 1, view))
            return None

    return ImplProgram("aadgms-snapshot", snapshot_spec(n), setup, body)


def vitanyi_awerbuch_mrsw() -> ImplProgram:
    """Two-reader MRSW register from six SRSW registers, initially 0.

    Processes 1 and 2 read; a read by any other process is a ValueError.
    The writer bumps a local sequence number and publishes (value, seq)
    to one register per reader.  A reader collects the writer's cell
    and both reader-to-reader cells, adopts the pair with the highest
    sequence number (source order writer, reader 1, reader 2 breaks
    ties), republishes it to both reader-to-reader cells for its index,
    and returns the value.
    """
    link = register_spec((0, 0))

    def setup(alloc):
        def reg(tag):
            return alloc(link, "srsw-register", (("link", tag),))

        wr = (reg("w-r1"), reg("w-r2"))
        rr = (
            (reg("r1-r1"), reg("r1-r2")),
            (reg("r2-r1"), reg("r2-r2")),
        )
        return {"wr": wr, "rr": rr, "wseq": 0}

    def body(state, p, op, args):
        if op == "write":
            (v,) = args
            state["wseq"] += 1
            pair = (v, state["wseq"])
            yield _write(state["wr"][0], pair)
            yield _write(state["wr"][1], pair)
            return None
        if op == "read":
            if p not in (1, 2):
                raise ValueError(f"process {p} is not a reader (1 or 2)")
            i = p - 1
            sources = (state["wr"][i], state["rr"][0][i], state["rr"][1][i])
            seen = []
            for oid in sources:
                seen.append((yield _read(oid)))
            best = seen[0]
            for entry in seen[1:]:
                if entry[1] > best[1]:
                    best = entry
            yield _write(state["rr"][i][0], best)
            yield _write(state["rr"][i][1], best)
            return best[0]

    return ImplProgram("vitanyi-awerbuch-mrsw", register_spec(), setup, body)


#: The queue's item cells and the compare-and-swap construction's blocks.
CAPACITY = 16


def herlihy_wing_queue() -> ImplProgram:
    """The classic array queue of CAPACITY cells: enqueue reserves a slot
    with fetch&inc and writes it; dequeue sweeps the array with
    fetch&set, swapping in the empty marker, and retries forever while
    everything reads empty.  An enqueue past the last cell is a
    ValueError.
    """

    counter, empty = rmw_cell_spec(0), rmw_cell_spec(BOTTOM)

    def setup(alloc):
        tail = alloc(counter, "tail-counter")
        items = tuple(
            alloc(empty, "item-cell", (("index", i),)) for i in range(CAPACITY)
        )
        return {"tail": tail, "items": items}

    def body(state, p, op, args):
        tail, items = state["tail"], state["items"]
        if op == "enqueue":
            (v,) = args
            pos = yield ("invoke", tail, "fetch_inc", ())
            if pos >= CAPACITY:
                raise ValueError(f"queue capacity {CAPACITY} exceeded")
            yield _write(items[pos], v)
            return None
        if op == "dequeue":
            while True:
                limit = yield _read(tail)
                for i in range(min(limit, CAPACITY)):
                    v = yield ("invoke", items[i], "fetch_set", (BOTTOM,))
                    if v != BOTTOM:
                        return v

    return ImplProgram("hw-queue", queue_spec(), setup, body)


def _llsc_loop(oid, delta):
    while True:
        v = yield ("invoke", oid, "ll", ())
        ok = yield ("invoke", oid, "sc", (v + delta,))
        if ok:
            return v


def llsc_strong_counter() -> ImplProgram:
    """Lock-free strong counter over one LL/SC register.  The first
    shared access of every operation is the LL."""

    reg = llsc_spec(0)

    def setup(alloc):
        return {"reg": alloc(reg, "llsc-register")}

    def body(state, p, op, args):
        if op == "fetch_inc":
            return (yield from _llsc_loop(state["reg"], 1))
        if op == "fetch_dec":
            return (yield from _llsc_loop(state["reg"], -1))

    return ImplProgram("llsc-counter", counter_spec(0), setup, body)


def writefirst_strong_counter(n: int) -> ImplProgram:
    """Strong counter whose first shared access is a write: announce
    into a small shared pool (collisions intended), then install via
    the same LL/SC loop."""
    if n < 1:
        raise ValueError("need at least one process")
    pool_size = max(1, isqrt(n))

    reg, cell = llsc_spec(0), register_spec(0)

    def setup(alloc):
        pool = tuple(
            alloc(cell, "announce-cell", (("index", i),)) for i in range(pool_size)
        )
        return {"reg": alloc(reg, "llsc-register"), "pool": pool}

    def body(state, p, op, args):
        if op in ("fetch_inc", "fetch_dec"):
            yield _write(state["pool"][p % pool_size], p)
            delta = 1 if op == "fetch_inc" else -1
            return (yield from _llsc_loop(state["reg"], delta))

    return ImplProgram("writefirst-counter", counter_spec(0), setup, body)


def cas_from_registers(initial: Any = 0) -> ImplProgram:
    """Compare-and-swap from reads, writes and per-block test&set.

    State lives in CAPACITY blocks, each a (value register, election
    bit, signal register) triple; a pointer register names the current
    block.  A CAS that sees the expected value in block b races for its
    election bit, unless it would write that value back, in which case
    it returns at once, as a mismatch does.  The winner publishes the
    new value in block b + 1, swings the pointer, then signals the
    losers, which spin on the signal register and return the signalled
    value.  Each block has one winner and only it moves the pointer, so
    installs fill the blocks in order; an install past the last block is
    a ValueError.
    """

    first, zero, bit, empty = (
        register_spec(initial), register_spec(0), test_and_set_spec(), register_spec(BOTTOM)
    )

    def setup(alloc):
        blocks = tuple(
            (
                alloc(first if k == 0 else zero, "block-value", (("block", k),)),
                alloc(bit, "block-election", (("block", k),)),
                alloc(empty, "block-signal", (("block", k),)),
            )
            for k in range(CAPACITY)
        )
        return {"cur": alloc(zero, "current-block"), "blocks": blocks}

    def body(state, p, op, args):
        if op == "read":
            b = yield _read(state["cur"])
            v = yield _read(state["blocks"][b][0])
            return v
        if op == "cas":
            x, y = args
            b = yield _read(state["cur"])
            val_reg, election, signal = state["blocks"][b]
            v = yield _read(val_reg)
            if v != x or x == y:
                return v
            lost = yield ("invoke", election, "test_set", ())
            if not lost:
                if b + 1 == CAPACITY:
                    raise ValueError(f"cas capacity {CAPACITY} blocks exceeded")
                yield _write(state["blocks"][b + 1][0], y)
                yield _write(state["cur"], b + 1)
                yield _write(signal, y)
                return x
            while True:
                s = yield _read(signal)
                if s != BOTTOM:
                    return s

    return ImplProgram("cas-from-registers", cas_spec(initial), setup, body)


def mutex_wrapped(spec: SeqSpec) -> ImplProgram:
    """Any sequential type behind a test-and-set style LL/SC lock.

    The single write to the state register is the linearization point;
    it is statically the same line for every operation.
    """

    lock, cell = llsc_spec(0), register_spec(spec.initial_state)

    def setup(alloc):
        return {"lock": alloc(lock, "lock"), "cell": alloc(cell, "state-cell")}

    def body(state, p, op, args):
        while True:
            held = yield ("invoke", state["lock"], "ll", ())
            if held:
                continue
            ok = yield ("invoke", state["lock"], "sc", (1,))
            if ok:
                break
        s = yield _read(state["cell"])
        s2, resp = spec.transition(s, op, args, p)
        yield _write(state["cell"], s2)
        yield _write(state["lock"], 0)
        return resp

    return ImplProgram(f"mutex-wrapped-{spec.type_name}", spec, setup, body)


#: Every construction by name: experiments._mutex_counter_runs picks the
#: mutex-wrapped counter here, and the tests cover each entry.
CATALOG: dict[str, Callable[..., ImplProgram]] = {
    "vidyasankar-register": vidyasankar_register,
    "aadgms-snapshot": aadgms_snapshot,
    "vitanyi-awerbuch-mrsw": vitanyi_awerbuch_mrsw,
    "hw-queue": herlihy_wing_queue,
    "llsc-counter": llsc_strong_counter,
    "writefirst-counter": writefirst_strong_counter,
    "cas-from-registers": cas_from_registers,
    "mutex-wrapped-counter": lambda: mutex_wrapped(counter_spec(0)),
}
