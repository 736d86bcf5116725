"""Hand-built packs: a tagging example is ``(tokens, tags)`` and a relation
example is ``(head token, tail token, relation)``."""

from fedlora.model import Pack


def packed(examples) -> Pack:
    """``examples``, in order, as one pack."""
    tagged = [ex for ex in examples if len(ex) == 2]
    pairs = [ex for ex in examples if len(ex) == 3]
    return Pack.build(
        [len(ex) == 2 for ex in examples],
        tokens=[t for tokens, _ in tagged for t in tokens],
        counts=[len(tokens) for tokens, _ in tagged],
        tags=[t for _, tags in tagged for t in tags],
        heads=[head for head, _, _ in pairs],
        tails=[tail for _, tail, _ in pairs],
        relations=[relation for _, _, relation in pairs],
    )
