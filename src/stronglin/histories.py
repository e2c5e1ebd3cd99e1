"""Histories of shared-memory executions and the operations on them.

A history is a flat sequence of invocation/response steps across all
processes and objects.  Steps carry a ``level`` tag: ``"interpreted"``
steps are the outer boundaries of implemented-object method calls,
``"base"`` steps belong to base objects (atomic registers, counters,
coins and so on).  Interpretation erases the base steps that fall inside
a method call of the same process, which turns a low-level history into
the history of the same program run against atomic objects.  Pairing
steps into operations, the happens-before order on them (the one rule
every checker uses) and replay against sequential specifications live
here too.

Everything in this module is a pure function over immutable values.
The interchange format is JSON Lines: a header line with the object
registry followed by one step per line, with a canonical field order so
that serialize -> parse -> serialize is byte-identical.  The decoders
are the input boundary of the command line: they reject a malformed
record with HistoryError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Container, Iterable, Mapping, NamedTuple

INV = "inv"
RSP = "rsp"
BASE = "base"
INTERPRETED = "interpreted"

#: Reserved sentinel for "empty" responses (for example a dequeue finding
#: nothing).  It lives outside the integer payload domain on purpose.
BOTTOM = "⊥"

FLIP = "flip"

#: The type name of a coin, every process's source of randomness.
COIN = "coin"


class HistoryError(Exception):
    """Base class for errors raised by history operations."""


class MalformedHistoryError(HistoryError):
    """The step sequence violates per-process well-formedness."""


class NotSequentialError(HistoryError):
    """A sequential history was required but an overlap was found."""


class UnknownIdError(HistoryError):
    """An object id has no specification to replay against."""


class Step(NamedTuple):
    """One invocation or response.

    ``payload`` is the argument tuple for invocations and the return
    value for responses.  Payloads are integers, tuples of payloads,
    ``BOTTOM`` or ``None``.  A named tuple, because runs build one per
    invocation and response: fields are read-only, and the hash is that
    of the field tuple.
    """

    kind: str
    process: int
    obj: int
    op: str
    payload: Any
    level: str

    def is_inv(self) -> bool:
        return self.kind == INV

    def is_rsp(self) -> bool:
        return self.kind == RSP


#: Params that label a registry entry rather than parametrize its type:
#: the program's name for the object, the implemented object owning a base
#: object, the process flipping a coin.
LABELS = ("key", "owner", "process")


@dataclass(frozen=True, slots=True)
class ObjectInfo:
    """Registry entry: what kind of object an id denotes."""

    type_name: str
    level: str
    params: tuple[tuple[str, Any], ...] = ()
    impl: str | None = None

    @property
    def is_coin(self) -> bool:
        return self.type_name == COIN

    def label(self, name: str) -> Any:
        """The value of one of the LABELS, None when absent."""
        for k, v in self.params:
            if k == name:
                return v
        return None


@dataclass(frozen=True, slots=True)
class OperationInstance:
    """A paired invocation/response (response absent while pending)."""

    inv_index: int
    rsp_index: int | None
    process: int
    obj: int
    op: str
    args: tuple
    ret: Any

    @property
    def complete(self) -> bool:
        return self.rsp_index is not None


#: An operation still open: (its position among the operations, the
#: position of its invocation step, that step).
OpenOp = tuple[int, int, Step]


def pair_steps(
    steps: Iterable[Step],
    ops: tuple[OperationInstance, ...] = (),
    open_ops: tuple[OpenOp, ...] = (),
    start: int = 0,
) -> tuple[tuple[OperationInstance, ...], tuple[OpenOp, ...]]:
    """Pair invocations with responses, per process and per level.

    The one pairing rule.  ``steps`` continue, from step position
    ``start``, a history whose earlier steps paired to ``ops`` with
    ``open_ops`` still open.  An operation takes its place in ``ops`` at
    its invocation, pending until its response completes it, so ``ops``
    stay in invocation order.  A process has at most one open operation
    per level (an open method call may contain one open base operation).
    Returns the extended (ops, open_ops); MalformedHistoryError when
    pairing is impossible.
    """
    ops = list(ops)
    open_at = {(e[2].process, e[2].level): e for e in open_ops}
    for i, s in enumerate(steps, start):
        key = (s.process, s.level)
        if s.kind == INV:
            if key in open_at:
                raise MalformedHistoryError(
                    f"process {s.process} invokes at step {i} with an open "
                    f"{s.level} operation"
                )
            open_at[key] = (len(ops), i, s)
            ops.append(None)
        else:
            entry = open_at.pop(key, None)
            if entry is None:
                raise MalformedHistoryError(f"response at step {i} has no open invocation")
            pos, j, inv = entry
            if inv.obj != s.obj or inv.op != s.op:
                raise MalformedHistoryError(
                    f"response at step {i} does not match invocation at {j}"
                )
            ops[pos] = OperationInstance(j, i, s.process, s.obj, s.op, inv.payload, s.payload)
    # an operation invoked by these steps and still open is built pending
    for pos, j, inv in open_at.values():
        if ops[pos] is None:
            ops[pos] = OperationInstance(j, None, inv.process, inv.obj, inv.op, inv.payload, None)
    return tuple(ops), tuple(open_at.values())


@dataclass(frozen=True)
class History:
    """An ordered step sequence plus the process/object registries.

    The index of a step is its position.
    """

    steps: tuple[Step, ...] = ()
    processes: tuple[int, ...] = ()
    objects: Mapping[int, ObjectInfo] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.steps)

    def with_steps(self, steps: Iterable[Step]) -> "History":
        return History(tuple(steps), self.processes, self.objects)

    def operations(self) -> tuple[OperationInstance, ...]:
        """Pair invocations with responses (``pair_steps``), in
        invocation order; MalformedHistoryError when pairing is
        impossible."""
        return pair_steps(self.steps)[0]


# ---------------------------------------------------------------------------
# Interpretation and happens-before
# ---------------------------------------------------------------------------


def interpret(h: History) -> History:
    """Erase base steps inside implemented method calls (the Gamma map).

    Method boundary steps and top-level atomic steps (including coin
    flips) survive: a base step is kept only when its process is inside
    no method call.  Idempotent.
    """
    depth: dict[int, int] = {}
    kept: list[Step] = []
    for s in h.steps:
        if s.level == INTERPRETED:
            kept.append(s)
            depth[s.process] = depth.get(s.process, 0) + (1 if s.is_inv() else -1)
        elif depth.get(s.process, 0) == 0:
            kept.append(s)
    return h.with_steps(kept)


def is_flip_response(objects: Mapping[int, ObjectInfo], s: Step | None) -> bool:
    """True iff ``s`` is a response on a coin, whatever its payload (a
    null one included)."""
    if s is None or s.kind != RSP:
        return False
    info = objects.get(s.obj)
    return info is not None and info.is_coin


def happens_before(a: OperationInstance, b: OperationInstance) -> bool:
    """True iff a completed and responded before b was invoked.

    Both operations must come from one history, whose step positions
    their indices are; every checker orders operations by this rule.
    """
    return a.rsp_index is not None and a.rsp_index < b.inv_index


# ---------------------------------------------------------------------------
# Sequential specifications and validity
# ---------------------------------------------------------------------------

#: The response of a coin flip: every recorded outcome is acceptable.
ANY_RESPONSE = object()


@dataclass(frozen=True)
class SeqSpec:
    """Deterministic sequential type specification.

    ``ops`` maps each operation to (arity, step), where ``step(state,
    process, *args)`` gives (new_state, response).  ``params`` are the
    factory arguments off their defaults, which registry entries carry.
    ``ignores_process`` declares that no step reads its ``process``, so
    two invocations with equal arguments in equal states go alike.
    """

    type_name: str
    initial_state: Any
    ops: Mapping[str, tuple[int, Callable[..., tuple[Any, Any]]]]
    params: tuple[tuple[str, Any], ...] = ()
    ignores_process: bool = False

    def transition(self, state: Any, op: str, args: tuple, process: int) -> tuple:
        """(new_state, response) of one invocation; ValueError for an
        operation the type does not declare or a wrong argument count."""
        arity, step = self.ops.get(op, (None, None))
        if step is None:
            raise ValueError(f"{self.type_name} does not support {op!r}")
        if len(args) != arity:
            raise ValueError(f"{op} takes {arity} argument(s), got {len(args)}")
        return step(state, process, *args)


def validate_sequential(h: History, specs: Mapping[int, SeqSpec]) -> bool:
    """Replay a sequential history against per-object specifications.

    Returns True iff every recorded response is reproduced.  Raises
    NotSequentialError for non-sequential input (distinct from False):
    an operation is atomic when its response follows its invocation, or
    when it is pending at the last step.
    """
    ops = h.operations()
    last = len(h.steps) - 1
    if not all(
        op.rsp_index == op.inv_index + 1 if op.complete else op.inv_index == last
        for op in ops
    ):
        raise NotSequentialError("history contains a non-atomic operation")
    states: dict[int, Any] = {}
    for op in ops:
        if op.obj not in specs:
            raise UnknownIdError(f"no specification for object {op.obj}")
        spec = specs[op.obj]
        state = states.get(op.obj, spec.initial_state)
        state, expected = spec.transition(state, op.op, op.args, op.process)
        states[op.obj] = state
        if op.complete and expected is not ANY_RESPONSE and expected != op.ret:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON Lines interchange
# ---------------------------------------------------------------------------


def _encode_payload(v: Any) -> Any:
    if isinstance(v, tuple):
        return [_encode_payload(x) for x in v]
    return v


def _decode_payload(v: Any) -> Any:
    try:
        return _tuples(v)
    except RecursionError:
        raise HistoryError("payload nested too deeply") from None


def _tuples(v: Any) -> Any:
    if isinstance(v, list):
        return tuple(_tuples(x) for x in v)
    if isinstance(v, dict):
        raise HistoryError("a JSON object is not a payload value")
    return v


_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True)


def _dumps(obj: Any) -> str:
    return _ENCODER.encode(obj)


def _fields(doc: Any, keys: tuple[str, ...], what: str) -> list:
    if not isinstance(doc, dict):
        raise HistoryError(f"{what} is not a JSON object")
    try:
        return [doc[k] for k in keys]
    except KeyError as exc:
        raise HistoryError(f"{what} has no {exc.args[0]!r}") from None


_STEP_KEYS = ("kind", "process", "object", "op", "payload", "level")
_KINDS = (INV, RSP)
_LEVELS = (BASE, INTERPRETED)


def _is_id(v: Any) -> bool:
    # JSON true/false decode to bool, which is an int subclass.
    return type(v) is int


def step_doc(s: Step) -> dict[str, Any]:
    """A step as a JSON object, fields in canonical order."""
    return {
        "kind": s.kind,
        "process": s.process,
        "object": s.obj,
        "op": s.op,
        "payload": _encode_payload(s.payload),
        "level": s.level,
    }


def step_from_doc(
    doc: Any, objects: Mapping[int, ObjectInfo], processes: Container[int]
) -> Step:
    """Inverse of step_doc; HistoryError on a non-object, a missing key,
    a field of the wrong type, a process missing from ``processes``, an
    object id missing from ``objects``, a level other than its object's,
    a payload holding a JSON object or an invocation whose payload is
    not an argument list."""
    kind, process, obj, op, payload, level = _fields(doc, _STEP_KEYS, "step")
    if kind not in _KINDS:
        raise HistoryError(f"step kind {kind!r} is not 'inv' or 'rsp'")
    if level not in _LEVELS:
        raise HistoryError(f"step level {level!r} is not 'base' or 'interpreted'")
    if not (_is_id(process) and _is_id(obj) and isinstance(op, str)):
        raise HistoryError("step process and object must be integers, op a string")
    if process not in processes:
        raise HistoryError(f"step process {process} is not in the process list")
    info = objects.get(obj)
    if info is None:
        raise HistoryError(f"step object {obj} is not in the registry")
    if level != info.level:
        raise HistoryError(f"step level {level!r} differs from object {obj}'s {info.level!r}")
    if kind == INV and not isinstance(payload, list):
        raise HistoryError("an invocation payload must be a list of arguments")
    return Step(kind, process, obj, op, _decode_payload(payload), level)


def objects_doc(objects: Mapping[int, ObjectInfo]) -> dict[str, Any]:
    """An object registry as a JSON object keyed by id, ids ascending."""
    return {
        str(oid): {
            "type": info.type_name,
            "level": info.level,
            "params": {k: _encode_payload(v) for k, v in info.params},
            "impl": info.impl,
        }
        for oid, info in sorted(objects.items())
    }


def objects_from_doc(doc: Any) -> dict[int, ObjectInfo]:
    """Inverse of objects_doc; HistoryError on a malformed entry."""
    if not isinstance(doc, dict):
        raise HistoryError("object registry is not a JSON object")
    out = {}
    for oid, entry in doc.items():
        what = f"object {oid}"
        if not (oid.isdecimal() and str(int(oid)) == oid):
            raise HistoryError(f"object id {oid!r} is not an integer in canonical decimal")
        type_name, level, params = _fields(entry, ("type", "level", "params"), what)
        impl = entry.get("impl")
        if not (isinstance(type_name, str) and (impl is None or isinstance(impl, str))):
            raise HistoryError(f"{what} type must be a string, impl a string or null")
        if level not in _LEVELS:
            raise HistoryError(f"{what} level {level!r} is not 'base' or 'interpreted'")
        if not isinstance(params, dict):
            raise HistoryError(f"{what} params are not a JSON object")
        out[int(oid)] = ObjectInfo(
            type_name,
            level,
            tuple((k, _decode_payload(v)) for k, v in params.items()),
            impl,
        )
    return out


def processes_from_doc(doc: Any) -> tuple[int, ...]:
    """A process list; HistoryError unless it is a list of distinct
    integers (a repeated id would count as another process)."""
    if not isinstance(doc, list) or not all(_is_id(p) for p in doc):
        raise HistoryError("processes must be a list of integers")
    if len(set(doc)) != len(doc):
        raise HistoryError("processes must not repeat an id")
    return tuple(doc)


def _exact(v: Any) -> bool:
    # Equal values of these exact types encode alike; 1 == True == 1.0
    # and (1,) == (True,) do not, and they hash alike.
    if type(v) is tuple:
        return all(map(_exact, v))
    return type(v) is int or type(v) is str or v is None


def _body(s: Step) -> str:
    # The canonical line of ``s`` at index i is '{"index":i,' + body.
    return _dumps(step_doc(s))[1:]


def to_jsonl(h: History) -> str:
    """Serialize with canonical field order (byte-exact round trips).

    Step ``i`` is the line '{"index":i,' followed by its step's body,
    ``step_doc`` as canonical JSON without its opening brace.  Each
    distinct step is encoded once per call and its body reused for the
    equal steps after it, so the cost grows with the distinct steps.
    A step is reused only when its process and object are exact
    ``int`` (not ``bool``), its kind, op and level exact ``str``, and
    its payload ``None``, an exact ``int``, or a ``str`` or tuple whose
    scalars are of those types: equal values of those types encode
    alike.  The fields are tested directly, the payload's tuples alone
    recursively.  Any other step (a ``True`` or ``1.0`` field, say,
    which equals ``1``) is encoded every time.
    """
    header = {"objects": objects_doc(h.objects), "processes": list(h.processes)}
    lines = [_dumps(header)]
    bodies: dict[Step, str] = {}
    for i, s in enumerate(h.steps):
        kind, process, obj, op, payload, level = s
        if not (
            type(process) is int
            and type(obj) is int
            and type(kind) is str
            and type(op) is str
            and type(level) is str
            and (payload is None or type(payload) is int or _exact(payload))
        ):
            body = _body(s)
        elif (body := bodies.get(s)) is None:
            body = bodies[s] = _body(s)
        lines.append('{"index":%d,' % i + body)
    return "\n".join(lines) + "\n"


def _json_line(n: int, line: str) -> Any:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise HistoryError(f"line {n}: {exc.msg}: column {exc.colno}") from None
    except RecursionError:
        raise HistoryError(f"line {n}: JSON nested too deeply") from None


def from_jsonl(text: str) -> History:
    """Inverse of to_jsonl; HistoryError naming the file line of the first
    record that is not JSON or not a well-formed step.

    Each distinct step line is parsed and checked once per call.  A
    line that is exactly '{"index":i,' (``i`` its step's position)
    followed by the body of a line already accepted is that line's
    step.  A body is admitted to this memo only when it holds no
    ``index`` member.  The prefix leaves the parser inside the object,
    waiting for a key, whatever ``i`` is, so the body reads alike after
    any index; JSON keeps the last of two equal keys, so without an
    ``index`` member of its own the body decodes to the same step with
    the new line's index.  A body with neither a backslash nor the text
    ``"index"`` cannot hold one: a key is ``index`` only when written
    so, or with an escape.  Such a body is admitted without more work,
    so a body with its keys in another order, other spacing or a
    trailing ``\\r`` is memoized too.  Any other body is admitted only
    when it is the canonical ``to_jsonl`` body of its step, which has
    no ``index`` member (escaped text such as ``BOTTOM``, written
    ``"\\u22a5"``, takes this path).  Every line outside the memo is
    decoded and checked in full, so every error keeps its text and line
    number.  Equal decoded steps are one ``Step`` object.
    """
    lines = [(n, ln) for n, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not lines:
        raise HistoryError("empty input")
    header = _json_line(*lines[0])
    objects, processes = _fields(header, ("objects", "processes"), "header")
    objects = objects_from_doc(objects)
    processes = processes_from_doc(processes)
    listed = frozenset(processes)
    steps = []
    decoded: dict[str, Step] = {}
    for i, (n, ln) in enumerate(lines[1:]):
        prefix = '{"index":%d,' % i
        body = ln[len(prefix):] if ln.startswith(prefix) else None
        step = decoded.get(body)
        if step is None:
            rec = _json_line(n, ln)
            try:
                step = step_from_doc(rec, objects, listed)
            except HistoryError as exc:
                raise HistoryError(f"line {n}: {exc}") from None
            if not _is_id(rec.get("index")) or rec["index"] != i:
                raise HistoryError(f"non-consecutive step index at line {n}")
            if body is not None and (
                ("\\" not in body and '"index"' not in body) or body == _body(step)
            ):
                decoded[body] = step
        steps.append(step)
    return History(tuple(steps), processes, objects)
