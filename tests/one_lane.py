"""The batched entry points with one member: ``local_update`` on one
client, the lane form with a single lane, and ``run_federation`` on one
strategy."""

from fedlora.federation import run_federation
from fedlora.model import Lanes, local_update


def train_alone(model, pack, sgd, seed):
    """``model``'s adapters after seeded SGD on ``pack``, trained as the
    one lane of a ``local_update`` call."""
    (adapters,) = local_update([model], Lanes((pack,)), sgd, [seed])
    return adapters


def run_alone(config, sites, val_set, backbone):
    """The result of ``config``'s strategy run by itself."""
    (result,) = run_federation([config], sites, val_set, backbone)
    return result
