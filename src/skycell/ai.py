"""Beam-pair classification: CART decision tree, top-K ranking and policies.

The tree is plain greedy CART over the UAV coordinates (x, y, z) with Gini
impurity and midpoint thresholds, trained on NLOS rows only. Baselines are a
uniform random pair picker and the full-sweep oracle. The pair count is the
width of the sweep gains each function is handed, never a constant.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .phy import pair_index

logger = logging.getLogger(__name__)

TOPK_GRID = (1, 2, 3, 4, 5, 10, 25, 50, 75, 100)
LOS_CLASSES = ("LOS", "NLOS", "outage")
POLICY_KINDS = ("random", "tree", "oracle")
CSV_HEADER = ["x", "y", "z", "los", "best_pair"]  # then g0..g{n-1}, one per beam pair


@dataclass
class BeamDataset:
    """One row per retained snapshot: position, LOS class, best pair, sweep gains."""

    positions: np.ndarray  # (n, 3)
    los: np.ndarray  # (n,) str
    best_pair: np.ndarray  # (n,) int
    gains: np.ndarray  # (n, n_pairs)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def subset(self, idx) -> "BeamDataset":
        return BeamDataset(
            positions=self.positions[idx],
            los=self.los[idx],
            best_pair=self.best_pair[idx],
            gains=self.gains[idx],
        )

    @classmethod
    def from_rows(cls, rows) -> "BeamDataset":
        if not rows:  # no sweep seen, so no gain columns
            return cls._checked(np.zeros((0, 3)), [], [], np.zeros((0, 0)))
        return cls._checked(
            np.array([r[0] for r in rows], dtype=float),
            [r[1] for r in rows],
            [r[2] for r in rows],
            np.array([r[3] for r in rows], dtype=float),
        )

    @classmethod
    def _checked(cls, positions, los, best, gains) -> "BeamDataset":
        """The dataset of these columns; a ValueError names the first row a CSV cannot hold.

        ``best`` holds integers of any size, each checked before it is stored as int64.
        """
        for i, c in enumerate(los):
            if c not in LOS_CLASSES:
                raise ValueError(f"row {i}: los {c!r} is not one of {LOS_CLASSES}")
        for i, b in enumerate(best):
            if not 0 <= b < gains.shape[1]:
                raise ValueError(
                    f"row {i}: best_pair {b} is outside the {gains.shape[1]} gain columns"
                )
        for name, values in (("position", positions), ("gain", gains)):
            bad = ~np.isfinite(values).all(axis=1)
            if bad.any():
                raise ValueError(f"row {int(np.argmax(bad))}: a {name} is not a finite number")
        return cls(positions, np.array(los, dtype=object), np.array(best, dtype=np.int64), gains)

    def save_csv(self, path) -> None:
        """Header, then one ``\\r\\n`` line per row, floats as their shortest ``repr``.

        Byte for byte what ``csv.writer`` writes for these rows: no field
        holds a comma, a quote or a line break, so none is quoted.
        """
        header = CSV_HEADER + [f"g{i}" for i in range(self.gains.shape[1])]
        positions = np.asarray(self.positions, dtype=np.float64)
        gains = np.asarray(self.gains, dtype=np.float64)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for i in range(len(self)):  # by row: the whole matrix as floats would take ~12 MB
                row = [
                    *map(repr, positions[i].tolist()),
                    str(self.los[i]),
                    str(int(self.best_pair[i])),
                    *map(repr, gains[i].tolist()),
                ]
                fh.write(",".join(row) + "\r\n")

    @classmethod
    def load_csv(cls, path) -> "BeamDataset":
        """Read a ``save_csv`` file, ``\\r\\n`` or ``\\n`` lines, one line at a time.

        A header other than ``x,y,z,los,best_pair,g0..g{n-1}``, a row without
        5 + n fields, a field that is not a number, a non-finite number or a
        ``los`` outside ``LOS_CLASSES`` is a ``ValueError`` naming the row.
        """
        positions, los, best, gains = [], [], [], []
        with open(path, "r", newline="", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            n_pairs = len(header) - len(CSV_HEADER)
            if header != CSV_HEADER + [f"g{i}" for i in range(n_pairs)]:
                raise ValueError(f"unexpected dataset header in {path}")
            for i, line in enumerate(fh):
                fields = line.rstrip("\r\n").split(",")
                if len(fields) != len(header):
                    raise ValueError(f"row {i}: {len(fields)} fields, the header has {len(header)}")
                try:
                    positions.append((float(fields[0]), float(fields[1]), float(fields[2])))
                    best.append(int(fields[4]))
                    gains.append(np.array(fields[5:], dtype=np.float64))
                except ValueError as exc:
                    raise ValueError(f"row {i}: {exc}") from exc
                los.append(fields[3])
        return cls._checked(
            np.array(positions, dtype=float).reshape(len(los), 3),
            los,
            best,
            np.array(gains, dtype=float).reshape(len(los), n_pairs),
        )


def filter_nlos(dataset: BeamDataset) -> BeamDataset:
    """Keep NLOS rows only; LOS and outage rows are dropped."""
    keep = np.array([c == "NLOS" for c in dataset.los], dtype=bool)
    out = dataset.subset(keep)
    if len(out) == 0:
        logger.warning("NLOS filter produced an empty dataset")
    return out


def split_dataset(dataset: BeamDataset, train_frac: float = 0.7, seed: int = 0):
    """Seeded shuffle, then split into (train, validation); disjoint by construction."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(train_frac * n))
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


# ---------------------------------------------------------------------------
# CART
# ---------------------------------------------------------------------------


class TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "counts")

    def __init__(self, feature=-1, threshold=0.0, left=None, right=None, counts=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.counts = counts

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None


@dataclass
class DecisionTreeModel:
    root: TreeNode
    max_depth: int
    n_classes: int

    def leaf_for(self, position) -> TreeNode:
        node = self.root
        while not node.is_leaf:
            node = node.left if position[node.feature] <= node.threshold else node.right
        return node

    def to_json(self) -> str:
        def encode(node):
            if node.is_leaf:
                nz = np.nonzero(node.counts)[0]
                return {"counts": {str(int(i)): int(node.counts[i]) for i in nz}}
            return {
                "feature": int(node.feature),
                "threshold": float(node.threshold),
                "left": encode(node.left),
                "right": encode(node.right),
            }

        return json.dumps(
            {"max_depth": self.max_depth, "n_classes": self.n_classes, "root": encode(self.root)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, n_pairs: int | None = None,
                  of: str = "") -> "DecisionTreeModel":
        """Decode and check a model document. With n_pairs, the pair count of the
        arrays or dataset named by ``of``, a model over another count is refused once
        the document is checked and before any leaf's counts are laid out, so
        ``n_classes`` alone cannot make the load allocate."""
        doc = json.loads(text)
        if type(doc) is not dict:
            raise ValueError(f"model file must hold a JSON object, got {text.strip()[:40]}")
        if "n_classes" not in doc:
            raise ValueError("model file lacks n_classes, the pair count it was trained on")
        n_classes = doc["n_classes"]
        if type(n_classes) is not int or n_classes < 1:
            raise ValueError(f"model n_classes must be an integer >= 1, got {json.dumps(n_classes)}")
        leaves = []  # each leaf holds its {class: count} until the pair count is checked

        def decode(d) -> TreeNode:
            if "counts" in d:
                counts = {}
                for k, v in d["counts"].items():
                    if not 0 <= int(k) < n_classes:
                        raise ValueError(f"model leaf class {k} is outside its {n_classes} pairs")
                    if type(v) is not int or not 0 <= v < 2**63:
                        raise ValueError(f"model leaf count of class {k} must be an integer in "
                                         f"[0, 2**63), got {json.dumps(v)}")
                    counts[int(k)] = v
                # a leaf ranks pairs by its counts; with none, every pair ties
                if not any(counts.values()):
                    raise ValueError(f"model leaf counts no sample, got {json.dumps(d['counts'])}")
                leaves.append(TreeNode(counts=counts))
                return leaves[-1]
            feature, threshold = d["feature"], d["threshold"]
            # a node splits on one coordinate of the UE position
            if type(feature) is not int or not 0 <= feature <= 2:
                raise ValueError(f"model node feature must be 0, 1 or 2, got {json.dumps(feature)}")
            if not (type(threshold) is int or type(threshold) is float and math.isfinite(threshold)):
                raise ValueError(f"model node threshold must be a finite number, got "
                                 f"{json.dumps(threshold)}")
            return TreeNode(feature, threshold, decode(d["left"]), decode(d["right"]))

        try:
            max_depth = doc["max_depth"]
            if type(max_depth) is not int or max_depth < 1:
                raise ValueError(f"model max_depth must be an integer >= 1, got "
                                 f"{json.dumps(max_depth)}")
            root = decode(doc["root"])
        except KeyError as exc:
            raise ValueError(f"model file lacks key {exc}") from exc
        except (TypeError, AttributeError) as exc:  # a non-object where a node belongs
            raise ValueError(f"malformed model file: {exc}") from exc
        if n_pairs is not None and n_classes != n_pairs:
            raise ValueError(f"tree model has {n_classes} pairs, {of} {n_pairs}")
        for leaf in leaves:
            counts = np.zeros(n_classes, dtype=np.int64)
            counts[list(leaf.counts)] = list(leaf.counts.values())
            leaf.counts = counts
        return cls(root=root, max_depth=max_depth, n_classes=n_classes)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path, n_pairs: int | None = None, of: str = "") -> "DecisionTreeModel":
        """The model of a file, checked as from_json checks it."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read(), n_pairs, of)


def _best_split(x, y, n_classes, min_leaf):
    """Lowest weighted-Gini split; ties go to the lowest feature, then threshold.

    Returns (weighted_gini, feature, threshold) or None when no valid split
    exists.
    """
    n = x.shape[0]
    best = None
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        onehot = np.zeros((n, n_classes), dtype=np.float64)
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)  # cum[k-1] = class counts of first k rows
        total = cum[-1]
        ks = np.arange(min_leaf, n - min_leaf + 1)
        if ks.size == 0:
            continue
        distinct = xs[ks - 1] < xs[ks]
        ks = ks[distinct]
        if ks.size == 0:
            continue
        left = cum[ks - 1]
        right = total[None, :] - left
        kf = ks.astype(np.float64)
        gini_l = 1.0 - np.sum((left / kf[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / (n - kf)[:, None]) ** 2, axis=1)
        weighted = (kf * gini_l + (n - kf) * gini_r) / n
        i = int(np.argmin(weighted))
        thr = 0.5 * (xs[ks[i] - 1] + xs[ks[i]])
        cand = (float(weighted[i]), f, float(thr))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def train_tree(train: BeamDataset, max_depth: int, min_leaf: int) -> DecisionTreeModel:
    """Greedy CART fit, one class per gain column; deterministic given the row order."""
    if len(train) == 0:
        raise ValueError("cannot train on an empty dataset")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    x = np.asarray(train.positions, dtype=np.float64)
    y = np.asarray(train.best_pair, dtype=np.int64)
    n_classes = train.gains.shape[1]

    def build(idx, depth) -> TreeNode:
        ys = y[idx]
        counts = np.bincount(ys, minlength=n_classes)
        if depth >= max_depth or idx.size <= min_leaf or np.unique(ys).size == 1:
            return TreeNode(counts=counts)
        split = _best_split(x[idx], ys, n_classes, min_leaf)
        if split is None:
            return TreeNode(counts=counts)
        weighted, feature, threshold = split
        if weighted >= 1.0 - np.sum((counts / idx.size) ** 2) - 1e-12:  # no Gini gain
            return TreeNode(counts=counts)
        mask = x[idx, feature] <= threshold
        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=build(idx[mask], depth + 1),
            right=build(idx[~mask], depth + 1),
        )

    root = build(np.arange(len(train)), 0)
    return DecisionTreeModel(root=root, max_depth=max_depth, n_classes=n_classes)


def _rank_desc(values) -> np.ndarray:
    """Indices sorted by value descending, ties toward the lower index."""
    values = np.asarray(values)
    return np.lexsort((np.arange(values.shape[0]), -values))


def predict_topk(model: DecisionTreeModel, position, k: int) -> list:
    """Top-k pair indices by leaf class frequency; unseen classes pad by index."""
    if not 1 <= k <= model.n_classes:
        raise ValueError(f"k must be in [1, {model.n_classes}]")
    counts = model.leaf_for(position).counts
    return [int(i) for i in _rank_desc(counts)[:k]]


def _rows_by_leaf(model: DecisionTreeModel, positions):
    """(leaf, row indices) for each leaf some row reaches, rows routed as ``leaf_for`` does."""
    stack = [(model.root, np.arange(positions.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            yield node, rows
            continue
        left = positions[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[left]))
        stack.append((node.right, rows[~left]))


def topk_accuracy(model: DecisionTreeModel, eval_ds: BeamDataset, k: int) -> float:
    """Fraction of rows whose predicted top-k meets the gains' true top-k.

    A row's true ranking is its gains in descending order, ties toward the
    lower index; a leaf's top-k is ``predict_topk``'s, computed once per leaf.
    """
    if len(eval_ds) == 0:
        raise ValueError("evaluation dataset is empty")
    n, n_pairs = eval_ds.gains.shape
    if n_pairs != model.n_classes:
        raise ValueError(f"dataset has {n_pairs} pairs, model {model.n_classes}")
    if not 1 <= k <= n_pairs:
        raise ValueError(f"k must be in [1, {n_pairs}]")
    ranked = np.argsort(-eval_ds.gains, axis=1, kind="stable")
    in_truth = np.zeros((n, n_pairs), dtype=bool)
    in_truth[np.arange(n)[:, None], ranked[:, :k]] = True
    hits = 0
    for leaf, rows in _rows_by_leaf(model, eval_ds.positions):
        pred = _rank_desc(leaf.counts)[:k]
        hits += int(np.count_nonzero(in_truth[np.ix_(rows, pred)].any(axis=1)))
    return hits / n


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


@dataclass
class Policy:
    kind: str  # one of POLICY_KINDS
    model: DecisionTreeModel | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "tree" and self.model is None:
            raise ValueError("tree policy requires a trained model")


def policy_decide(policy: Policy, position, gains, rng) -> int:
    """Flat pair index in the (n_rx, n_tx) gains grid: uniform random, tree top-1 or oracle."""
    if policy.kind == "tree":
        return predict_topk(policy.model, position, 1)[0]
    if gains is None:
        raise ValueError(f"{policy.kind} policy requires the snapshot's gains grid")
    if policy.kind == "random":
        n_rx, n_tx = gains.shape
        return pair_index(int(rng.integers(0, n_rx)), int(rng.integers(0, n_tx)), n_tx, n_rx)
    return int(np.argmax(gains))
