"""Shared service fixtures.

A test module defines a module-scoped ``service`` fixture (an
:class:`AnalysisService` configured for what it checks); ``client``
serves it over a real socket through the asyncio front-end on a private
loop thread and hands back a :class:`ServiceClient` for it.
"""

import pytest

from repro.service import AsyncServerThread, ServiceClient


@pytest.fixture(scope="module")
def client(service):
    server = AsyncServerThread(service)
    yield ServiceClient(server.url, timeout=120.0)
    server.stop()
