"""Seeded benchmark inputs: triple files and the record selections.

The graphs are generated here, from the workload seed alone, and handed to
the program only as ``train.txt``/``valid.txt``/``test.txt`` triple files.
Each later file holds only the edges its layer adds, so the layers the
program builds are cumulative.
"""

from __future__ import annotations

import os

import numpy as np


def uniform_edges(seed: int, entities: int, relations: int, edges: int) -> np.ndarray:
    """Distinct ``(head, relation, tail)`` rows drawn uniformly, no self-loops."""
    rng = np.random.default_rng([seed, 0])
    return _distinct_edges(
        edges, entities, relations,
        lambda n: rng.integers(entities, size=n),
        lambda n: rng.integers(relations, size=n),
    )


def zipf_edges(seed: int, entities: int, relations: int, edges: int) -> np.ndarray:
    """Distinct edges whose heads, tails and relations follow Zipf laws (exponent 1).

    Frequency ranks are shuffled over the ids, except that the most frequent
    entity and relation take the largest ids, so the universe size read back
    from the files is exactly ``entities``/``relations``.
    """
    rng = np.random.default_rng([seed, 1])

    def ranked(n):
        p = 1.0 / np.arange(1, n + 1)
        ids = rng.permutation(n)
        top = int(np.flatnonzero(ids == n - 1)[0])
        ids[[0, top]] = ids[[top, 0]]
        return p / p.sum(), ids

    pe, ent_ids = ranked(entities)
    pr, rel_ids = ranked(relations)
    return _distinct_edges(
        edges, entities, relations,
        lambda n: ent_ids[rng.choice(entities, size=n, p=pe)],
        lambda n: rel_ids[rng.choice(relations, size=n, p=pr)],
    )


def _distinct_edges(edges, entities, relations, draw_entity, draw_relation) -> np.ndarray:
    keys = np.empty(0, dtype=np.int64)
    for _ in range(100):
        n = (edges - keys.size) * 2 + 1000
        h, r, t = draw_entity(n), draw_relation(n), draw_entity(n)
        keep = h != t
        new = (h[keep].astype(np.int64) * relations + r[keep]) * entities + t[keep]
        keys = np.concatenate([keys, new])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]  # first occurrence order keeps the draw order
        if keys.size >= edges:
            break
    else:
        raise ValueError(f"could not draw {edges} distinct edges")
    keys = keys[:edges]
    heads, rest = np.divmod(keys, relations * entities)
    rels, tails = np.divmod(rest, entities)
    return np.stack([heads, rels, tails], axis=1)


def write_split(edges: np.ndarray, sizes: tuple[int, int, int], directory) -> None:
    """Write consecutive slices of ``edges`` as the three layer files.

    ``edges`` is already in random draw order, so the slices are a random
    split of the given sizes.
    """
    if sum(sizes) != len(edges):
        raise ValueError(f"split sizes {sizes} do not add up to {len(edges)} edges")
    os.makedirs(directory, exist_ok=True)
    start = 0
    for name, size in zip(("train", "valid", "test"), sizes):
        rows = edges[start : start + size]
        start += size
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows.tolist()))


# -- record selections --------------------------------------------------------


def exact_pairs(records, pairs: int) -> list:
    """Records of one type whose train answer sets add up to ``pairs``.

    Of the subsets that reach the largest reachable sum not above ``pairs``,
    the one found first in sampled order is taken. Records with no train
    answer give no training pair and are never taken.
    """
    best: dict[int, list[int]] = {0: []}  # reachable sum -> record indices
    for i, record in enumerate(records):
        size = len(record.train_answers)
        if not size:
            continue
        for total, chosen in list(best.items()):
            if total + size <= pairs and total + size not in best:
                best[total + size] = chosen + [i]
        if pairs in best:
            break
    return [records[i] for i in best[max(best)]]


def closest_size(records, count: int, size: int) -> list:
    """The ``count`` records whose train answer set size is nearest ``size``.

    Ties go to the earlier record; the chosen records keep sampled order.
    """
    ranked = sorted(range(len(records)), key=lambda i: (abs(len(records[i].train_answers) - size), i))
    return [records[i] for i in sorted(ranked[:count])]
