"""Nat elements with coordinates near 10**12.

Each operation here costs O(1) in the length of the prefix 1..k, so it
returns at once.  An implementation that lists the prefix would need about
10**12 integers: under the memory cap the block then fails with a
MemoryError instead of exhausting the machine, and where the ``unlisted``
fixture is in force, listing any exception set fails the test outright.
"""

import contextlib
import os
import resource

import pytest

from isomon import NatIsometry, Token, Word, decompose, evaluate, parse
from isomon.natmonoid import identity, natural_le

N = 10 ** 12


@contextlib.contextmanager
def _memory_cap(extra=256 << 20):
    """Let the block grow this process's address space by ``extra`` bytes
    at most; where the current size cannot be read, impose no cap."""
    if not os.path.exists("/proc/self/statm"):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        used = int(fh.read().split()[0]) * resource.getpagesize()
    cap = used + extra if hard == resource.RLIM_INFINITY else min(used + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def unlisted(monkeypatch):
    """Reading any nat element's exception set fails the test."""
    def refuse(g):
        raise AssertionError("an exception set was listed")
    monkeypatch.setattr(NatIsometry, "exceptions", property(refuse))


def test_far_up_then_down_shift_is_the_identity():
    with _memory_cap():
        g = evaluate(parse(f"a^{N} b^{N}"))
    assert g == identity()


def test_inverse_of_a_far_shift_has_its_markers_at_once():
    with _memory_cap():
        markers = NatIsometry(N).inverse().markers()
    assert markers == (N + 1, N + 1, 1, 1)


def test_gap_and_decompose_of_a_far_down_shift_list_no_holes(unlisted):
    with _memory_cap():
        g = evaluate(parse(f"b^{N}"))
        gap, word = g.gap(), decompose(g)
    assert gap == 0
    assert word == Word([Token("b", N)])


def test_natural_order_compares_prefixes_of_different_lengths(unlisted):
    with _memory_cap():
        y = evaluate(parse(f"b^{N}"))                  # holes 1..N
        x = evaluate(parse(f"b^{N + 5} a^5"))          # holes 1..N+5
        near = evaluate(parse(f"e[{N + 3}] b^{N}"))    # holes 1..N and N+3
        far = evaluate(parse(f"e[{N + 7}] b^{N}"))     # holes 1..N and N+7
    assert x.shift == y.shift == near.shift == far.shift == -N
    assert natural_le(x, y) and not natural_le(y, x)
    assert natural_le(x, near) and natural_le(near, y) and not natural_le(y, near)
    assert not natural_le(x, far) and natural_le(far, y)
