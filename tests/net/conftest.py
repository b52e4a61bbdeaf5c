"""Invariants every wire-transport test is held to."""

import pytest


@pytest.fixture(autouse=True)
def no_tcp_thread_outlives_its_network(tcp_threads_joined):
    yield
