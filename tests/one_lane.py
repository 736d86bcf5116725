"""``local_update`` on one client: the lane form with a single lane."""

from fedlora.model import Lanes, local_update


def train_alone(model, data, sgd, seed):
    """``model``'s adapters after seeded SGD on ``data`` (examples or a
    pack), trained as the one lane of a ``local_update`` call."""
    (adapters,) = local_update([model], Lanes.of([data]), sgd, [seed])
    return adapters
