from collections import Counter

import pytest

from perfbench.stream import READ, UPDATE, OpStream, digest

KNOWN = {user: {user % 7, (user + 3) % 11} for user in range(50)}


def make(seed=1, update_every=None, reads=60, updates=6, zipf=0.7):
    return OpStream(50, 40, KNOWN, seed=seed, zipf=zipf,
                    update_every=update_every, prefix_reads=reads,
                    prefix_updates=updates)


def take(stream, n):
    ops = []
    for op in stream:
        ops.append(op)
        if len(ops) == n:
            return ops


def test_same_seed_same_sequence_including_continuation():
    assert take(make(seed=3), 200) == take(make(seed=3), 200)
    assert digest(make(seed=3).prefix) == digest(make(seed=3).prefix)


def test_different_seed_different_sequence():
    assert digest(make(seed=3).prefix) != digest(make(seed=4).prefix)


def test_phased_prefix_reads_then_updates_then_reads():
    stream = make(update_every=None, reads=60, updates=6)
    kinds = [op.kind for op in take(stream, 100)]
    assert kinds[:60] == [READ] * 60
    assert kinds[60:66] == [UPDATE] * 6
    assert set(kinds[66:]) == {READ}


def test_interleaved_blocks_continue_past_the_prefix():
    stream = make(update_every=10, reads=60, updates=6)
    kinds = [op.kind for op in take(stream, 110)]
    assert stream.prefix_len == 66
    for index, kind in enumerate(kinds):
        assert kind == (UPDATE if index % 11 == 10 else READ)


def test_interleaved_prefix_must_be_whole_blocks():
    with pytest.raises(ValueError, match="whole blocks"):
        make(update_every=10, reads=55, updates=6)


def test_update_items_are_fresh_and_distinct():
    stream = make(update_every=2, reads=400, updates=200)
    seen = set()
    for op in take(stream, 600):
        if op.kind != UPDATE:
            continue
        assert 0 <= op.item < 40
        assert op.item not in KNOWN[op.user]
        assert (op.user, op.item) not in seen
        seen.add((op.user, op.item))
    assert len(seen) == 200


def test_reads_are_skewed():
    counts = Counter(op.user for op in take(make(zipf=0.8, reads=5000,
                                                 updates=0), 5000))
    ranked = [count for _, count in counts.most_common()]
    assert ranked[0] > 5 * ranked[len(ranked) // 2]


def test_popularity_is_fixed_across_seeds():
    hottest = [Counter(op.user for op in take(make(seed=seed, reads=3000,
                                                   updates=0), 3000))
               .most_common(1)[0][0] for seed in (1, 2, 3)]
    assert len(set(hottest)) == 1


def test_update_users_cover_everyone_before_repeating():
    stream = make(update_every=1, reads=100, updates=100)
    users = [op.user for op in take(stream, 200) if op.kind == UPDATE]
    assert sorted(users[:50]) == list(range(50))
    assert sorted(users[50:]) == list(range(50))
