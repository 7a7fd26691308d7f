"""Tile the bundled brigade world K times side by side.

Entity k-copies move right by 50·k map units and get the id and
``member_of`` suffix ``#k``; each terrain row is repeated K times and the
width multiplied by K, so every copy sits on the same terrain as the
original.  Models, tables, actions and ``control`` are unchanged.
"""

from __future__ import annotations

import copy

TILE_DX = 50.0


def tile_scenario(raw: dict, k: int) -> dict:
    """Return a new scenario document holding ``k`` copies of the world."""
    if k < 1:
        raise ValueError(f"tile count must be >= 1, got {k}")
    doc = copy.deepcopy(raw)
    world = doc["world"]
    entities = []
    for i in range(k):
        for ent in raw["world"]["entities"]:
            rec = dict(ent, id=f"{ent['id']}#{i}", x=ent["x"] + TILE_DX * i)
            if ent.get("member_of") is not None:
                rec["member_of"] = f"{ent['member_of']}#{i}"
            entities.append(rec)
    world["entities"] = entities
    terrain = world["terrain"]
    terrain["cells"] = [list(row) * k for row in terrain["cells"]]
    terrain["width"] = terrain["width"] * k
    return doc
