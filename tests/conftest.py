import hashlib

import pytest

import fedlora.federation


@pytest.fixture
def fingerprint():
    """A function from a backbone to a SHA-256 digest of its frozen arrays,
    to check that nothing wrote to them."""

    def digest(backbone) -> str:
        h = hashlib.sha256()
        for arr in (backbone.embedding, backbone.trunk, backbone.tag_head, backbone.rel_head):
            h.update(arr.tobytes())
        return h.hexdigest()

    return digest


@pytest.fixture
def local_updates(monkeypatch):
    """The argument tuple of every call the round loop makes to
    ``fedlora.federation.local_update`` from here on."""
    calls = []
    train = fedlora.federation.local_update

    def recording(*args, **kwargs):
        calls.append(args)
        return train(*args, **kwargs)

    monkeypatch.setattr(fedlora.federation, "local_update", recording)
    return calls
