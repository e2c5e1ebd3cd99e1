"""History pairing, happens-before, interpretation, sequential validity and
serialization."""

import collections
import itertools
import random
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from stronglin import histories as hs
from stronglin.cli import main
from stronglin.engine import PerProcessCoins, run
from stronglin.histories import (
    ANY_RESPONSE,
    BASE,
    BOTTOM,
    INTERPRETED,
    INV,
    RSP,
    History,
    HistoryError,
    MalformedHistoryError,
    NotSequentialError,
    ObjectInfo,
    SeqSpec,
    Step,
    UnknownIdError,
    from_jsonl,
    happens_before,
    interpret,
    is_flip_response,
    objects_from_doc,
    to_jsonl,
    validate_sequential,
)
from stronglin.loadbalance import loadbalance_algorithm, round_robin_policy

REGISTRY = {
    0: ObjectInfo("register", BASE, (("initial", 0),)),
    1: ObjectInfo("register", INTERPRETED, (("initial", 0),), impl="demo"),
    2: ObjectInfo("register", BASE, (("initial", 0),)),
    10: ObjectInfo("coin", BASE),
    11: ObjectInfo("coin", BASE),
    12: ObjectInfo("coin", BASE),
}


def inv(p, obj, op, args=(), level=BASE):
    return Step(INV, p, obj, op, args, level)


def rsp(p, obj, op, ret=None, level=BASE):
    return Step(RSP, p, obj, op, ret, level)


@st.composite
def histories(draw):
    """Random well-formed histories over REGISTRY, built by interleaving
    per-process scripts (top-level base ops, flips, and method calls on
    the implemented object 1 whose bodies touch base object 2)."""
    nproc = draw(st.integers(min_value=1, max_value=3))
    scripts = []
    for p in range(nproc):
        items = draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("base"), st.integers(0, 1)),
                    st.just(("flip",)),
                    st.tuples(st.just("method"), st.integers(1, 3)),
                ),
                max_size=4,
            )
        )
        scripts.append(list(items))
    steps = []
    # Per-process expansion state: a queue of raw steps still to emit.
    queues = {p: [] for p in range(nproc)}

    def refill(p):
        if queues[p] or not scripts[p]:
            return
        item = scripts[p].pop(0)
        if item[0] == "base":
            queues[p] = [inv(p, 0, "write", (item[1],)), rsp(p, 0, "write")]
        elif item[0] == "flip":
            queues[p] = [inv(p, 10 + p, "flip"), rsp(p, 10 + p, "flip", 1)]
        else:
            body = []
            for _ in range(item[1]):
                body += [inv(p, 2, "read"), rsp(p, 2, "read", 0)]
            queues[p] = (
                [inv(p, 1, "get", (), INTERPRETED)]
                + body
                + [rsp(p, 1, "get", 0, INTERPRETED)]
            )

    for p in range(nproc):
        refill(p)
    while any(queues.values()):
        ready = [p for p in range(nproc) if queues[p]]
        p = draw(st.sampled_from(ready))
        steps.append(queues[p].pop(0))
        refill(p)
        if draw(st.booleans()) and draw(st.booleans()) and draw(st.booleans()):
            break  # truncate, leaving pending operations
    return History(tuple(steps), tuple(range(nproc)), REGISTRY)


@given(histories())
def test_well_formed_by_construction(h):
    h.operations()  # raises MalformedHistoryError on a pairing failure


@given(histories())
def test_interpret_idempotent(h):
    g = interpret(h)
    assert interpret(g) == g


@given(histories())
def test_interpret_commutes_with_process_projection(h):
    def only(h, p):
        return h.with_steps(s for s in h.steps if s.process == p)

    for p in h.processes:
        assert only(interpret(h), p) == interpret(only(h, p))


@given(histories())
def test_interpret_keeps_boundaries_and_top_level_steps(h):
    g = interpret(h)
    kept = set()
    open_method = set()
    for i, s in enumerate(h.steps):
        if s.level == INTERPRETED:
            kept.add(i)
            if s.is_inv():
                open_method.add(s.process)
            else:
                open_method.discard(s.process)
        elif s.process not in open_method:
            kept.add(i)
    assert list(g.steps) == [h.steps[i] for i in sorted(kept)]


@given(histories())
def test_operations_indices_match_steps(h):
    ops = h.operations()
    invs = [i for i, s in enumerate(h.steps) if s.is_inv()]
    rsps = [i for i, s in enumerate(h.steps) if s.is_rsp()]
    # one operation per invocation, in invocation order, and each
    # response completes exactly one of them
    assert [o.inv_index for o in ops] == invs
    assert sorted(o.rsp_index for o in ops if o.complete) == rsps
    pending = []
    for o in ops:
        s = h.steps[o.inv_index]
        assert (s.kind, s.process, s.obj, s.op, s.payload) == (INV, o.process, o.obj, o.op, o.args)
        if o.complete:
            r = h.steps[o.rsp_index]
            assert (r.kind, r.process, r.obj, r.op, r.level) == (RSP, o.process, o.obj, o.op, s.level)
            assert r.payload == o.ret
            assert o.inv_index < o.rsp_index
        else:
            # pending: no later step of its process and level, which would
            # either have answered it or invoked over it
            assert o.ret is None
            later = h.steps[o.inv_index + 1:]
            assert all((t.process, t.level) != (s.process, s.level) for t in later)
            pending.append((s.process, s.level))
    assert len(set(pending)) == len(pending)


@given(histories())
def test_happens_before_is_a_strict_partial_order(h):
    ops = [o for o in h.operations() if h.steps[o.inv_index].level == BASE]
    for a in ops:
        assert not (a.complete and happens_before(a, a))
    for a, b, c in itertools.product(ops, repeat=3):
        if happens_before(a, b) and happens_before(b, c):
            assert happens_before(a, c)


def test_happens_before_total_iff_sequential():
    h = History(
        (
            inv(0, 0, "write", (1,)),
            rsp(0, 0, "write"),
            inv(1, 0, "read"),
            rsp(1, 0, "read", 1),
        ),
        (0, 1),
        REGISTRY,
    )
    a, b = h.operations()
    assert happens_before(a, b) and not happens_before(b, a)
    overlapping = History(
        (
            inv(0, 0, "write", (1,)),
            inv(1, 0, "read"),
            rsp(0, 0, "write"),
            rsp(1, 0, "read", 1),
        ),
        (0, 1),
        REGISTRY,
    )
    a, b = overlapping.operations()
    assert not happens_before(a, b)
    assert not happens_before(b, a)


def test_pairing_rejects_double_invocation_and_orphan_response():
    bad = History((inv(0, 0, "read"), inv(0, 0, "read")), (0,), REGISTRY)
    with pytest.raises(MalformedHistoryError, match="^process 0 invokes at step 1 with an open base operation$"):
        bad.operations()
    bad = History((rsp(0, 0, "read", 0),), (0,), REGISTRY)
    with pytest.raises(MalformedHistoryError, match="^response at step 0 has no open invocation$"):
        bad.operations()
    bad = History((inv(0, 0, "read"), rsp(0, 0, "write")), (0,), REGISTRY)
    with pytest.raises(MalformedHistoryError, match="^response at step 1 does not match invocation at 0$"):
        bad.operations()


# ---------------------------------------------------------------------------
# Sequential validity, checked exhaustively against an independent replay
# ---------------------------------------------------------------------------


def register_spec(initial=0):
    def write(state, process, v):
        return v, None

    def read(state, process):
        return state, state

    return SeqSpec("register", initial, {"write": (1, write), "read": (0, read)})


def oracle_register_run(choices):
    """Replay (op, value) choices directly; True iff all reads match."""
    val = 0
    for op, x in choices:
        if op == "write":
            val = x
        elif x != val:
            return False
    return True


def history_from_choices(choices):
    steps = []
    for op, x in choices:
        if op == "write":
            steps += [inv(0, 0, "write", (x,)), rsp(0, 0, "write")]
        else:
            steps += [inv(0, 0, "read"), rsp(0, 0, "read", x)]
    return History(tuple(steps), (0,), REGISTRY)


def test_validate_sequential_matches_replay_oracle_exhaustively():
    alphabet = [("write", 0), ("write", 1), ("read", 0), ("read", 1)]
    specs = {0: register_spec()}
    for n in range(7):
        for choices in itertools.product(alphabet, repeat=n):
            h = history_from_choices(choices)
            assert validate_sequential(h, specs) == oracle_register_run(choices)


def test_validate_sequential_errors_are_not_false():
    overlapping = History(
        (inv(0, 0, "read"), inv(1, 0, "read"), rsp(0, 0, "read", 0)),
        (0, 1),
        REGISTRY,
    )
    with pytest.raises(NotSequentialError, match="^history contains a non-atomic operation$"):
        validate_sequential(overlapping, {0: register_spec()})
    h = history_from_choices([("read", 0)])
    with pytest.raises(UnknownIdError, match="^no specification for object 0$"):
        validate_sequential(h, {})


def test_validate_sequential_pairs_its_history_once(monkeypatch):
    # One pairing serves both the atomicity check and the replay.
    calls = []
    pair_steps = hs.pair_steps

    def counting(*args, **kwargs):
        calls.append(1)
        return pair_steps(*args, **kwargs)

    monkeypatch.setattr(hs, "pair_steps", counting)
    h = history_from_choices([("write", 1), ("read", 1)])
    assert validate_sequential(h, {0: register_spec()})
    assert len(calls) == 1


def test_validate_sequential_ignores_trailing_pending_and_any_response():
    coin = SeqSpec("coin", None, {"flip": (0, lambda s, p: (s, ANY_RESPONSE))})
    h = History(
        (
            inv(0, 10, "flip"),
            rsp(0, 10, "flip", 7),
            inv(0, 0, "write", (1,)),
        ),
        (0,),
        REGISTRY,
    )
    assert validate_sequential(h, {0: register_spec(), 10: coin})


def test_flip_response_is_a_response_on_a_coin_whatever_its_payload():
    assert is_flip_response(REGISTRY, rsp(0, 10, "flip", None))
    assert is_flip_response(REGISTRY, rsp(0, 10, "flip", 1))
    assert not is_flip_response(REGISTRY, inv(0, 10, "flip"))
    assert not is_flip_response(REGISTRY, rsp(0, 0, "read", 0))
    assert not is_flip_response(REGISTRY, None)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def plain_to_jsonl(h):
    """The encoder with no memo: every line encoded in full.  The oracle
    of to_jsonl's byte identity."""
    header = {"objects": hs.objects_doc(h.objects), "processes": list(h.processes)}
    lines = [hs._dumps(header)]
    for i, s in enumerate(h.steps):
        lines.append(hs._dumps({"index": i, **hs.step_doc(s)}))
    return "\n".join(lines) + "\n"


def plain_from_jsonl(text):
    """The decoder with no memo: every line parsed and checked in full.
    The oracle of from_jsonl's steps and error texts."""
    lines = [(n, ln) for n, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not lines:
        raise HistoryError("empty input")
    header = hs._json_line(*lines[0])
    objects, processes = hs._fields(header, ("objects", "processes"), "header")
    objects = objects_from_doc(objects)
    processes = hs.processes_from_doc(processes)
    listed = frozenset(processes)
    steps = []
    for i, (n, ln) in enumerate(lines[1:]):
        rec = hs._json_line(n, ln)
        try:
            steps.append(hs.step_from_doc(rec, objects, listed))
        except HistoryError as exc:
            raise HistoryError(f"line {n}: {exc}") from None
        if not hs._is_id(rec.get("index")) or rec["index"] != i:
            raise HistoryError(f"non-consecutive step index at line {n}")
    return History(tuple(steps), processes, objects)


def decoded(decode, text):
    # repr tells True and 1.0 from 1, which == does not.
    try:
        return repr(decode(text))
    except HistoryError as exc:
        return f"HistoryError: {exc}"


@given(histories())
def test_jsonl_round_trip_is_byte_exact(h):
    text = to_jsonl(h)
    assert text == plain_to_jsonl(h)
    h2 = from_jsonl(text)
    assert h2 == h
    assert h2.steps == plain_from_jsonl(text).steps
    assert to_jsonl(h2) == text


class Alias:
    """Equal to a string and hashed as it, but not a ``str``."""

    def __init__(self, s):
        self.s = s

    def __eq__(self, other):
        return other == self.s

    def __hash__(self):
        return hash(self.s)


def test_equal_steps_that_encode_differently_keep_their_own_text():
    # 1 == True == 1.0, (1,) == (True,) and 0 == False == -0.0, and equal
    # values hash alike, so a memo keyed on the step alone would write
    # the first one's text for all of them.
    groups = [(1, True, 1.0), ((1,), (True,), ((1,),), ((True,),)), (0, False, -0.0)]
    steps = []
    for group in groups:
        for v in group:
            steps += [inv(0, 0, "write", (v,)), rsp(0, 0, "write"),
                      inv(0, 0, "read"), rsp(0, 0, "read", v)]
    h = History(tuple(steps), (0, 1), REGISTRY)
    text = to_jsonl(h)
    assert text == plain_to_jsonl(h)
    for v in ("true", "1.0", "[true]", "[[1]]", "[[true]]", "false", "-0.0"):
        assert f'"payload":[{v}]' in text and f'"payload":{v},' in text
    # Decoding keeps each line's own types, however often a value repeats.
    assert decoded(from_jsonl, text) == decoded(plain_from_jsonl, text)
    assert to_jsonl(from_jsonl(text)) == text
    # The guard covers every field, not just the payload: each twin
    # follows an exact step it equals.
    read = rsp(1, 0, "read", 1)
    for field, twin, want in [("process", True, '"process":true'),
                              ("obj", False, '"object":false'),
                              ("obj", 0.0, '"object":0.0')]:
        h = History((read, read._replace(**{field: twin})), (0, 1), REGISTRY)
        assert to_jsonl(h) == plain_to_jsonl(h)
        assert want in to_jsonl(h).splitlines()[-1]
    # A string field has no twin that JSON writes otherwise, but one that
    # it cannot write at all must be refused as the oracle refuses it.
    for field in ("kind", "op", "level"):
        h = History((read, read._replace(**{field: Alias(getattr(read, field))})), (0, 1), REGISTRY)
        with pytest.raises(TypeError, match="Alias is not JSON serializable"):
            plain_to_jsonl(h)
        with pytest.raises(TypeError, match="Alias is not JSON serializable"):
            to_jsonl(h)


EDITS = ("reorder", "escape", "second index last", "second index first",
         "escaped second index", "index", "trailing", "payload scalar",
         "escaped payload", "index payload", "crlf")


def _edited(kind, i, j, line):
    """Step line ``i``, canonical, with one edit; ``j`` is another index."""
    prefix = '{"index":%d,' % i
    body = line[len(prefix):]
    if kind == "reorder":
        return "{" + body[:-1] + ',"index":%d}' % i
    if kind == "escape":
        return line.replace('{"index"', '{"\\u0069ndex"', 1)
    if kind == "second index last":
        return line[:-1] + ',"index":%d}' % j
    if kind == "escaped second index":
        return line[:-1] + ',"\\u0069ndex":%d}' % j
    if kind == "second index first":
        return '{"index":%d,"index":%d,' % (i, j) + body
    if kind == "index":
        return '{"index":%d,' % j + body
    if kind == "trailing":
        return line + (" ", "  ", "\r", " \r")[i % 4]
    if kind == "crlf":
        return line + "\r"
    if kind in ("escaped payload", "index payload"):
        # The payload, or its argument list, as one string: BOTTOM as
        # to_jsonl writes it, or the text "index".
        text = '"\\u22a5"' if kind == "escaped payload" else '"index"'
        head, sep, tail = line.partition('"payload":')
        rest = tail[tail.rindex(',"level":'):]
        return head + sep + (f"[{text}]" if tail.startswith("[") else text) + rest
    # One integer of the payload, as true or as a float.
    head, sep, tail = line.partition('"payload":')
    m = re.search(r"-?\d+", tail[: tail.rindex(',"level":')])
    if m is None:
        return line
    new = "true" if i % 2 else m.group() + ".0"
    return head + sep + tail[: m.start()] + new + tail[m.end():]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(histories())
def test_decoder_matches_the_plain_decoder_on_edited_canonical_text(h):
    # Canonical text is the only text whose lines the decoder's memo
    # answers, so the edits start from it.  Each edit goes to the lines
    # of one body, the first of them or not, with each line's other
    # index ``j`` read one way: its own, its neighbours' or the first
    # line's.  So an edited line that is accepted is followed by lines
    # with the same text after their index, which must not be answered
    # from it.
    lines = to_jsonl(h).splitlines()
    by_body = {}
    for i, ln in enumerate(lines[1:]):
        by_body.setdefault(ln[len('{"index":%d,' % i):], []).append(i)
    group = max(by_body.values(), key=len, default=[])
    for kind, anchor, first in itertools.product(
        EDITS, ("own", "previous", "next", "first"), (True, False)
    ):
        edited = list(lines)
        for i in group[0 if first else 1:]:
            j = {"own": i, "previous": i - 1, "next": i + 1, "first": group[0]}[anchor]
            edited[i + 1] = _edited(kind, i, j, lines[i + 1])
        text = "\n".join(edited) + "\n"
        assert decoded(from_jsonl, text) == decoded(plain_from_jsonl, text), (kind, anchor, first)


def _round_robin_llsc_history(n=16):
    alg = loadbalance_algorithm(n, "llsc")
    rng = random.Random(f"codec:{n}")
    coins = {q: (rng.randrange(len(alg.omega)),) for q in alg.processes}
    return run(alg, round_robin_policy(n), PerProcessCoins(coins)).history


def _simulated_hw_queue_history():
    result = CliRunner().invoke(main, ["simulate", "--alg", "hw-queue", "--coins", "1"])
    assert result.exit_code == 0
    return from_jsonl(result.output)


@pytest.mark.parametrize("make", [_round_robin_llsc_history, _simulated_hw_queue_history])
def test_codecs_work_once_per_distinct_step(monkeypatch, make):
    # Counts, not timings: the work of each codec grows with the distinct
    # steps, and decoding re-encodes only bodies with an escape in them.
    h = make()
    calls = collections.Counter()

    def counted(name):
        f = getattr(hs, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in ("_body", "_json_line"):
        monkeypatch.setattr(hs, name, counted(name))
    text = to_jsonl(h)
    assert calls["_body"] == len(set(h.steps)) < len(h)
    bodies = {ln[len('{"index":%d,' % i):] for i, ln in enumerate(text.splitlines()[1:])}
    escaped = {b for b in bodies if "\\" in b}
    assert bool(escaped) == (make is _simulated_hw_queue_history)
    calls.clear()
    assert from_jsonl(text) == h
    assert calls["_json_line"] == 1 + len(bodies)
    assert calls["_body"] == len(escaped)


@pytest.mark.parametrize("oid", ["00", "٣", "-1", "+1", " 1", "x"])
def test_registry_ids_are_canonical_decimals(oid):
    # "00" or "٣" would read as 0 or 3 and could overwrite another entry.
    entry = {"type": "register", "level": BASE, "params": {}, "impl": None}
    with pytest.raises(HistoryError, match=re.escape(f"object id {oid!r} is not an integer in canonical decimal")):
        objects_from_doc({oid: entry})
    assert objects_from_doc({"3": entry}).keys() == {3}


def test_jsonl_encodes_tuples_and_bottom():
    h = History(
        (
            inv(0, 0, "write", ((1, 2), "⊥")),
            rsp(0, 0, "write", None),
        ),
        (0,),
        {0: ObjectInfo("register", BASE, (("initial", (0, 0)),))},
    )
    h2 = from_jsonl(to_jsonl(h))
    assert h2.steps[0].payload == ((1, 2), "⊥")
    assert h2.objects[0].params == (("initial", (0, 0)),)


def test_step_is_a_read_only_record_hashed_as_its_field_tuple():
    s = Step(INV, 3, 7, "write", (1, (2, BOTTOM)), BASE)
    for name in ("kind", "process", "obj", "op", "payload", "level"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
    # Set orders, and so report bytes under any PYTHONHASHSEED, rest on
    # the hash of the field tuple.
    assert hash(s) == hash((s.kind, s.process, s.obj, s.op, s.payload, s.level))
    # Error messages quote steps.
    assert repr(s) == (
        "Step(kind='inv', process=3, obj=7, op='write', "
        "payload=(1, (2, '⊥')), level='base')"
    )
    # The positional and keyword constructors build the same record.
    assert s == Step(
        kind=INV, process=3, obj=7, op="write", payload=(1, (2, BOTTOM)), level=BASE
    )
    assert s.is_inv() and not s.is_rsp()
    r = Step(RSP, 3, 7, "write", None, BASE)
    assert r.is_rsp() and not r.is_inv()
    assert s != r and len({s, r, Step(INV, 3, 7, "write", (1, (2, BOTTOM)), BASE)}) == 2
