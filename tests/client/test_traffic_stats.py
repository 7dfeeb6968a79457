"""ClientTrafficStats: every counter is written under its lock."""

from __future__ import annotations

import sys
import threading
import time

from repro.client.sync_client import ClientTrafficStats

THREADS = 8
ROUNDS = 20_000


def test_concurrent_increments_are_not_lost():
    stats = ClientTrafficStats()
    start = threading.Barrier(THREADS)

    def hammer():
        start.wait()
        for _ in range(ROUNDS):
            stats.add_notification()
            stats.add_conflict()
            stats.add_commit()

    # Switch threads as often as the interpreter allows.  Whether an
    # unlocked ``+= 1`` can drop an update depends on the interpreter; the
    # tests below pin that every write takes the lock.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    scraped = stats.scrape()
    assert scraped["notifications_received"] == THREADS * ROUNDS
    assert scraped["conflicts"] == THREADS * ROUNDS
    assert scraped["commits_sent"] == THREADS * ROUNDS


def test_increments_wait_for_the_lock():
    """A scrape holding the lock never sees a half-applied write."""
    stats = ClientTrafficStats()
    for add in (stats.add_notification, stats.add_conflict, stats.add_commit):
        with stats._lock:
            writer = threading.Thread(target=add)
            writer.start()
            writer.join(timeout=0.05)
            assert writer.is_alive()  # blocked until the lock is released
        writer.join(timeout=5)
    assert stats.scrape()["notifications_received"] == 1
    assert stats.scrape()["conflicts"] == 1
    assert stats.scrape()["commits_sent"] == 1


def test_client_counts_notifications_under_the_lock(testbed):
    reader = testbed.client(device_id="r")
    writer = testbed.client(device_id="w")
    with reader.stats._lock:
        meta = writer.put_file("a.txt", b"hello")
        time.sleep(0.2)  # the push arrives, but its count must wait
        assert reader.stats.notifications_received == 0
    assert reader.wait_for_version(meta.item_id, meta.version, timeout=10)
    assert reader.stats.scrape()["notifications_received"] >= 1
