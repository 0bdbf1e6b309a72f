"""Tests for events and the tag supply."""

import pickle

from repro.c11.events import Event, fresh_tag, init_events, init_write
from repro.lang.actions import rd, rda, upd, wr, wrr


def test_event_accessors_lift_action():
    e = Event(1, upd("x", 2, 4), 3)
    assert e.tag == 1 and e.tid == 3
    assert e.var == "x" and e.rdval == 2 and e.wrval == 4
    assert e.is_read and e.is_write and e.is_update
    assert e.is_acquire and e.is_release


def test_event_class_predicates():
    assert Event(1, wrr("x", 1), 1).is_release
    assert not Event(1, wr("x", 1), 1).is_release
    assert Event(1, rda("x", 1), 1).is_acquire
    assert not Event(1, rd("x", 1), 1).is_acquire


def test_init_write_is_thread_zero_relaxed():
    w = init_write("x", 0, -1)
    assert w.is_init and w.tid == 0
    assert w.is_write and not w.is_release
    assert w.wrval == 0 and w.tag == -1


def test_non_init_event():
    assert not Event(1, wr("x", 1), 2).is_init


def test_init_events_one_per_variable_negative_tags():
    ws = list(init_events({"b": 2, "a": 1}))
    assert [w.var for w in ws] == ["a", "b"]  # sorted for determinism
    assert [w.wrval for w in ws] == [1, 2]
    assert all(w.tag < 0 for w in ws)
    assert len({w.tag for w in ws}) == 2


def test_fresh_tags_are_distinct():
    tags = {fresh_tag() for _ in range(100)}
    assert len(tags) == 100


def test_events_are_value_objects():
    a = Event(1, wr("x", 1), 2)
    b = Event(1, wr("x", 1), 2)
    assert a == b and hash(a) == hash(b)
    assert a != Event(2, wr("x", 1), 2)


def test_event_pickles_by_value_without_its_cached_hash():
    e = Event(3, wr("x", 1), 2)
    hash(e)  # fill the cached hash
    clone = pickle.loads(pickle.dumps(e))
    assert "_hash" not in vars(clone)  # a salted hash never crosses
    assert clone == e and hash(clone) == hash(e)


def test_event_str_mentions_thread_and_tag():
    s = str(Event(7, rda("f", 1), 2))
    assert "rdA(f,1)" in s and "2" in s and "7" in s
