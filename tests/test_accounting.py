import random
import threading
import time

import pytest

from pakit import accounting
from pakit.accounting import AccountingRegistry
from pakit.errors import ContractFault, DomainFault


def test_register_counts_blocks_and_bytes():
    reg = AccountingRegistry()
    reg.register(16)
    assert reg.totals() == (1, 16)


def test_zero_size_block_still_counts():
    reg = AccountingRegistry()
    reg.register(0)
    assert reg.totals() == (1, 0)


def test_registers_are_additive():
    reg = AccountingRegistry()
    reg.register(16)
    reg.register(24)
    assert reg.totals() == (2, 40)


def test_resize_adjusts_bytes_only():
    reg = AccountingRegistry()
    token = reg.register(16)
    reg.resize(token, 32)
    assert reg.totals() == (1, 32)
    reg.resize(token, 0)
    assert reg.totals() == (1, 0)
    reg.resize(token, 0)
    assert reg.totals() == (1, 0)


def test_release_returns_to_zero():
    reg = AccountingRegistry()
    token = reg.register(16)
    reg.release(token)
    assert reg.totals() == (0, 0)


def test_release_one_of_two():
    reg = AccountingRegistry()
    first = reg.register(8)
    reg.register(8)
    reg.release(first)
    assert reg.totals() == (1, 8)


def test_release_uses_current_size_after_resize():
    reg = AccountingRegistry()
    token = reg.register(16)
    other = reg.register(100)
    reg.resize(token, 32)
    reg.release(token)
    assert reg.totals() == (1, 100)
    reg.release(other)
    assert reg.totals() == (0, 0)


def test_empty_registry_totals():
    assert AccountingRegistry().totals() == (0, 0)


def test_many_registers_and_releases_net_zero():
    reg = AccountingRegistry()
    tokens = [reg.register(1) for _ in range(100)]
    assert reg.totals() == (100, 100)
    for token in tokens:
        reg.release(token)
    assert reg.totals() == (0, 0)


def test_double_release_faults():
    reg = AccountingRegistry()
    token = reg.register(4)
    reg.release(token)
    with pytest.raises(ContractFault):
        reg.release(token)


def test_resize_after_release_faults():
    reg = AccountingRegistry()
    token = reg.register(4)
    reg.release(token)
    with pytest.raises(ContractFault):
        reg.resize(token, 8)


def test_resize_after_release_leaves_the_lock_free():
    reg = AccountingRegistry()
    token = reg.register(4)
    reg.release(token)
    with pytest.raises(ContractFault):
        reg.resize(token, 8)
    assert reg._lock.locked() is False


def test_negative_sizes_fault():
    reg = AccountingRegistry()
    with pytest.raises(DomainFault):
        reg.register(-1)
    token = reg.register(4)
    with pytest.raises(DomainFault):
        reg.resize(token, -2)
    reg.release(token)


def test_matches_shadow_ledger_over_random_operations():
    # Oracle: a plain dict of live token -> size, summed from scratch.
    reg = AccountingRegistry()
    ledger = {}
    rng = random.Random(20_0)
    for _ in range(10_000):
        action = rng.random()
        if action < 0.45 or not ledger:
            token = reg.register(rng.randrange(0, 512))
            ledger[token] = token.size
        elif action < 0.75:
            token = rng.choice(list(ledger))
            new_size = rng.randrange(0, 512)
            reg.resize(token, new_size)
            ledger[token] = new_size
        else:
            token = rng.choice(list(ledger))
            reg.release(token)
            del ledger[token]
        assert reg.totals() == (len(ledger), sum(ledger.values()))
    for token in ledger:
        reg.release(token)
    assert reg.totals() == (0, 0)


def test_concurrent_updates_stay_consistent():
    reg = AccountingRegistry()

    def churn():
        tokens = [reg.register(8) for _ in range(500)]
        for token in tokens:
            reg.resize(token, 16)
        for token in tokens:
            reg.release(token)

    threads = [threading.Thread(target=churn) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert reg.totals() == (0, 0)


def test_module_level_registry_is_shared():
    before = accounting.totals()
    token = accounting.register(12)
    assert accounting.totals() == (before[0] + 1, before[1] + 12)
    accounting.release(token)
    assert accounting.totals() == before


class _YieldingLock:
    """A lock that sleeps before it acquires, so racing threads all reach it together."""

    def __init__(self):
        self._lock = threading.Lock()

    def __enter__(self):
        time.sleep(0.001)
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()


def test_racing_releases_of_one_token_succeed_once():
    threads = 8
    for _ in range(20):
        reg = AccountingRegistry()
        reg._lock = _YieldingLock()
        keep = reg.register(7)
        token = reg.register(16)
        barrier = threading.Barrier(threads)
        outcomes = []

        def release():
            barrier.wait(timeout=10)
            try:
                reg.release(token)
                outcomes.append("released")
            except ContractFault:
                outcomes.append("fault")

        workers = [threading.Thread(target=release) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert sorted(outcomes) == ["fault"] * (threads - 1) + ["released"]
        assert reg.totals() == (1, 7)
        reg.release(keep)
        assert reg.totals() == (0, 0)
