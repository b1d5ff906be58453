"""Frozen references: the ``csv``-module dataset writer and reader and the
row-by-row top-K accuracy.

Test-only. The writer and reader go through ``csv.writer``/``csv.reader`` one
field at a time; ``BeamDataset.save_csv`` must write the same bytes and
``BeamDataset.load_csv`` must read back the same arrays. The top-K loop walks
each row to its leaf, ranks that leaf's class counts and the row's gains, and
asks whether the two top-k sets meet; ``ai.topk_accuracy`` must return the
same fraction.
"""

from __future__ import annotations

import csv

import numpy as np

from skycell.ai import BeamDataset, predict_topk


def save_csv(dataset: BeamDataset, path) -> None:
    header = ["x", "y", "z", "los", "best_pair"] + [f"g{i}" for i in range(dataset.gains.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.positions[i]]
            row += [str(dataset.los[i]), str(int(dataset.best_pair[i]))]
            row += [repr(float(g)) for g in dataset.gains[i]]
            writer.writerow(row)


def load_csv(path) -> BeamDataset:
    """The columns as read, with no check on them."""
    positions, los, best, gains = [], [], [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for rec in reader:
            positions.append((float(rec[0]), float(rec[1]), float(rec[2])))
            los.append(rec[3])
            best.append(int(rec[4]))
            gains.append(np.array([float(v) for v in rec[5:]], dtype=float))
    n_pairs = len(header) - 5
    return BeamDataset(
        positions=np.array(positions, dtype=float).reshape(len(los), 3),
        los=np.array(los, dtype=object),
        best_pair=np.array(best, dtype=np.int64),
        gains=np.array(gains, dtype=float).reshape(len(los), n_pairs),
    )


def truth_topk(gains, k: int) -> np.ndarray:
    """The k best pair indices by gain, ties toward the lower index."""
    gains = np.asarray(gains)
    return np.lexsort((np.arange(gains.shape[0]), -gains))[:k]


def topk_accuracy(model, eval_ds: BeamDataset, k: int) -> float:
    hits = 0
    for i in range(len(eval_ds)):
        pred = predict_topk(model, eval_ds.positions[i], k)
        best = set(int(j) for j in truth_topk(eval_ds.gains[i], k))
        if any(p in best for p in pred):
            hits += 1
    return hits / len(eval_ds)
