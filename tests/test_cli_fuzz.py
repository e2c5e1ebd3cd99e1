"""The input boundary of check-lin and check-strong-lin under hypothesis.

Each case runs the command in-process on arbitrary text or on a valid
document with a few fields mutated.  Whatever the input, the exit code
is 0, 1 or 2, nothing but SystemExit escapes, and exit 1 ("no
linearization/witness") happens only for input the codec accepted.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stronglin.checkers import HistoryTree, project_tree
from stronglin.cli import main
from stronglin.engine import VectorCoins, run
from stronglin.experiments import (
    EXAMPLES,
    counter_race_tree,
    hw_atomic_dequeue_tree,
    mutex_counter_tree,
    queue_counter_tree,
)
from stronglin.histories import from_jsonl, to_jsonl

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["inv", "rsp", "base", "interpreted", "coin", "flip", "⊥"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _trees():
    # The last is a projection, which branches at a dequeue response.
    return [counter_race_tree(), mutex_counter_tree(), hw_atomic_dequeue_tree(),
            queue_counter_tree(), project_tree(queue_counter_tree(), 0)[0]]


def _histories():
    # One leaf of each tree, plus the pinned implemented run of each
    # example: raw histories whose base steps sit inside method calls and
    # whose registries carry spec arguments.
    raws = []
    for _name, make in sorted(EXAMPLES.items()):
        ex = make()
        raws.append(run(ex.implemented, ex.schedule, VectorCoins(ex.omega[:1])).history)
    return [t.history_of(t.leaves()[0]) for t in _trees()] + raws


BASE_HISTORIES = [[json.loads(ln) for ln in to_jsonl(h).splitlines()] for h in _histories()]
BASE_TREES = [json.loads(t.to_json()) for t in _trees()]


def _scalars(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _scalars(item)]
    return [doc]


@st.composite
def _mutated(draw, doc):
    """``doc`` with one to three fields replaced or deleted, each at the
    end of a random path through its objects and lists.  A replacement
    is an arbitrary JSON value or a value found elsewhere in the
    document, which is well typed more often and so gets further in."""
    values = JSON_VALUES | st.sampled_from(_scalars(doc))
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.integers(0, 3)):
                node = child
                continue
            if draw(st.integers(0, 3)):
                node[key] = draw(values)
            else:
                del node[key]
            break
    return doc


def _jsonl(records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


HISTORY_TEXTS = st.text() | st.sampled_from(BASE_HISTORIES).flatmap(_mutated).map(_jsonl)
TREE_TEXTS = st.text() | st.sampled_from(BASE_TREES).flatmap(_mutated).map(json.dumps)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(workdir, command, text, decode):
    src = workdir / "input"
    src.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, [command, str(src)])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exc_info
    )
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        decode(text)  # raises unless the codec accepted the input
    return result.exit_code


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@FUZZ
@given(text=HISTORY_TEXTS)
def test_check_lin_exit_codes_on_arbitrary_input(workdir, text):
    _exit_code(workdir, "check-lin", text, from_jsonl)


@FUZZ
@given(text=TREE_TEXTS)
def test_check_strong_lin_exit_codes_on_arbitrary_input(workdir, text):
    _exit_code(workdir, "check-strong-lin", text, HistoryTree.from_json)


@pytest.mark.parametrize(
    "command, texts",
    [
        ("check-lin", [_jsonl(r) for r in BASE_HISTORIES]),
        ("check-strong-lin", [json.dumps(d) for d in BASE_TREES]),
    ],
)
def test_unmutated_inputs_are_accepted(workdir, command, texts):
    # The documents the mutations start from decode and check, so a
    # rejection of a mutated one is the mutation's doing.  Every history
    # linearizes; the trees include one without a witness.
    codes = [_exit_code(workdir, command, text, lambda _t: None) for text in texts]
    assert 2 not in codes
    if command == "check-lin":
        assert set(codes) == {0}
