import hashlib

import pytest


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
