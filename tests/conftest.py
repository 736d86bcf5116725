import hashlib
import itertools
from typing import NamedTuple

import pytest

import fedlora.federation


@pytest.fixture
def fingerprint():
    """A function from a backbone to a SHA-256 digest of its frozen arrays
    and its cached E W0, to check that nothing wrote to them."""

    def digest(backbone) -> str:
        h = hashlib.sha256()
        for arr in (backbone.embedding, backbone.trunk, backbone.tag_head, backbone.rel_head,
                    backbone.base_hidden):
            h.update(arr.tobytes())
        return h.hexdigest()

    return digest


class Lane(NamedTuple):
    """One lane of a ``local_update`` call: the call's number, the lane's
    start model, its pack and its shuffle seed."""

    call: int
    model: object
    pack: object
    seed: int


@pytest.fixture
def local_updates(monkeypatch):
    """Every lane of every call the round loop makes to
    ``fedlora.federation.local_update`` from here on, as ``Lane``s."""
    lanes = []
    calls = itertools.count()
    train = fedlora.federation.local_update

    def recording(models, dataset, sgd, seeds):
        call = next(calls)
        lanes.extend(Lane(call, *lane) for lane in zip(models, dataset.packs, seeds))
        return train(models, dataset, sgd, seeds)

    monkeypatch.setattr(fedlora.federation, "local_update", recording)
    return lanes
