"""The two-stage contract of :class:`~repro.runtime.GracefulShutdown`.

Signals are raised in the main thread with :func:`signal.raise_signal`,
so the real handlers run exactly as they do under an operator's Ctrl-C.
"""

from __future__ import annotations

import signal

import pytest

from repro.runtime import GracefulShutdown


@pytest.fixture
def default_sigint():
    """Run with Python's own SIGINT handler, restoring whatever the test
    runner had installed afterwards."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def test_first_sigint_only_requests_a_stop(default_sigint):
    with GracefulShutdown() as stop:
        assert not stop.requested
        signal.raise_signal(signal.SIGINT)
        assert stop.requested and stop()


def test_second_sigint_raises_keyboard_interrupt(default_sigint):
    with GracefulShutdown() as stop:
        signal.raise_signal(signal.SIGINT)
        assert stop.requested
        with pytest.raises(KeyboardInterrupt):
            signal.raise_signal(signal.SIGINT)
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_previous_handlers_are_restored_on_exit(default_sigint):
    def sentinel(signum, frame):  # pragma: no cover — never delivered
        raise AssertionError("sentinel handler ran")

    previous_term = signal.signal(signal.SIGTERM, sentinel)
    try:
        signal.signal(signal.SIGINT, sentinel)
        with GracefulShutdown():
            assert signal.getsignal(signal.SIGINT) is not sentinel
            assert signal.getsignal(signal.SIGTERM) is not sentinel
        assert signal.getsignal(signal.SIGINT) is sentinel
        assert signal.getsignal(signal.SIGTERM) is sentinel
    finally:
        signal.signal(signal.SIGTERM, previous_term)
