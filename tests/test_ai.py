import json

import numpy as np
import pytest

from skycell.ai import (
    TOPK_GRID,
    BeamDataset,
    DecisionTreeModel,
    Policy,
    TreeNode,
    _best_split,
    filter_nlos,
    policy_decide,
    predict_topk,
    split_dataset,
    topk_accuracy,
    train_tree,
    truth_topk,
)

N_PAIRS = 256  # the shipped 8x8 transmit and 2x2 receive codebooks


def _top1(model, position):
    return predict_topk(model, position, 1)[0]


def _dataset(positions, labels, gains=None, los=None):
    n = len(labels)
    positions = np.asarray(positions, dtype=float)
    if gains is None:
        gains = np.zeros((n, N_PAIRS))
        for i, lab in enumerate(labels):
            gains[i, lab] = 1.0
    if los is None:
        los = np.array(["NLOS"] * n, dtype=object)
    return BeamDataset(positions=positions,
                       los=np.asarray(los, dtype=object),
                       best_pair=np.asarray(labels, dtype=np.int64),
                       gains=np.asarray(gains, dtype=float))


def _cluster_dataset(n_per=50, seed=0):
    # x<0 -> pair 5, x>0 -> pair 9
    rng = np.random.default_rng(seed)
    xs = np.concatenate([rng.uniform(-10, -1, n_per), rng.uniform(1, 10, n_per)])
    pos = np.stack([xs, rng.uniform(0, 1, 2 * n_per), np.full(2 * n_per, 40.0)], axis=1)
    labels = np.array([5] * n_per + [9] * n_per)
    return _dataset(pos, labels)


def test_filter_nlos():
    ds = _dataset([[0, 0, 0]] * 5, [1] * 5, los=["LOS", "NLOS", "outage", "NLOS", "LOS"])
    kept = filter_nlos(ds)
    assert len(kept) == 2
    all_los = _dataset([[0, 0, 0]] * 3, [1] * 3, los=["LOS"] * 3)
    assert len(filter_nlos(all_los)) == 0  # warning, not failure


def test_filter_partition():
    los = np.array(["LOS", "NLOS", "outage", "NLOS"], dtype=object)
    ds = _dataset([[i, 0, 0] for i in range(4)], [0, 1, 2, 3], los=los)
    kept = filter_nlos(ds)
    removed = ds.subset(np.array([c != "NLOS" for c in ds.los], dtype=bool))
    ids = sorted(list(kept.positions[:, 0]) + list(removed.positions[:, 0]))
    assert ids == [0.0, 1.0, 2.0, 3.0]


def test_split_sizes_and_disjointness():
    ds = _dataset([[i, 0, 0] for i in range(1000)], [i % 7 for i in range(1000)])
    train, val = split_dataset(ds, train_frac=0.7, seed=3)
    assert len(train) == 700 and len(val) == 300
    ids = set(train.positions[:, 0]) | set(val.positions[:, 0])
    assert len(ids) == 1000
    t2, v2 = split_dataset(ds, train_frac=0.7, seed=3)
    assert np.array_equal(train.positions, t2.positions)
    with pytest.raises(ValueError):
        split_dataset(_dataset([[0, 0, 0]], [1]), seed=0)
    with pytest.raises(ValueError):
        split_dataset(ds, train_frac=1.0, seed=0)


def test_single_class_yields_single_leaf():
    ds = _dataset([[i, 0, 0] for i in range(10)], [4] * 10)
    model = train_tree(ds, max_depth=15, min_leaf=1)
    assert model.root.is_leaf
    assert _top1(model, (3.0, 0.0, 0.0)) == 4


def test_separable_clusters_reach_perfect_train_accuracy():
    ds = _cluster_dataset()
    model = train_tree(ds, max_depth=1, min_leaf=1)
    hits = sum(_top1(model, p) == y for p, y in zip(ds.positions, ds.best_pair))
    assert hits == len(ds)
    assert model.root.feature == 0  # splits on x


def test_deeper_trees_never_hurt_train_accuracy():
    rng = np.random.default_rng(8)
    pos = rng.uniform(-50, 50, size=(300, 3))
    labels = ((pos[:, 0] > 0).astype(int) * 2 + (pos[:, 1] > 0).astype(int) * 3
              + (np.sin(pos[:, 0] / 5) > 0).astype(int))
    ds = _dataset(pos, labels)

    def train_acc(depth):
        model = train_tree(ds, max_depth=depth, min_leaf=1)
        return np.mean([_top1(model, p) == y for p, y in zip(ds.positions, ds.best_pair)])

    assert train_acc(15) >= train_acc(1)


def test_deterministic_training():
    ds = _cluster_dataset(seed=5)
    a = train_tree(ds, max_depth=15, min_leaf=1).to_json()
    b = train_tree(ds, max_depth=15, min_leaf=1).to_json()
    assert a == b


def _depth(node) -> int:
    return 0 if node.is_leaf else 1 + max(_depth(node.left), _depth(node.right))


def test_depth_respects_max():
    rng = np.random.default_rng(0)
    pos = rng.uniform(-1, 1, size=(200, 3))
    labels = rng.integers(0, 256, size=200)
    ds = _dataset(pos, labels)
    for depth in (1, 3, 15):
        assert _depth(train_tree(ds, max_depth=depth, min_leaf=1).root) <= depth


def test_predict_topk_from_leaf_histogram():
    counts = np.zeros(N_PAIRS, dtype=np.int64)
    counts[7], counts[3] = 10, 2
    model = DecisionTreeModel(root=TreeNode(counts=counts), max_depth=1, n_classes=N_PAIRS)
    assert predict_topk(model, (0, 0, 0), 2) == [7, 3]
    assert predict_topk(model, (0, 0, 0), 1) == [int(np.argmax(counts))]
    # padding by ascending unseen index after the seen classes
    assert predict_topk(model, (0, 0, 0), 5) == [7, 3, 0, 1, 2]
    full = predict_topk(model, (0, 0, 0), 256)
    assert sorted(full) == list(range(256))
    with pytest.raises(ValueError):
        predict_topk(model, (0, 0, 0), 0)
    with pytest.raises(ValueError):
        predict_topk(model, (0, 0, 0), 257)


def test_leaf_tie_breaks_toward_lower_index():
    counts = np.zeros(N_PAIRS, dtype=np.int64)
    counts[20] = counts[10] = 5
    model = DecisionTreeModel(root=TreeNode(counts=counts), max_depth=1, n_classes=N_PAIRS)
    assert predict_topk(model, (0, 0, 0), 2) == [10, 20]


def test_truth_topk_tie_breaks_toward_lower_index():
    gains = np.zeros(N_PAIRS)
    gains[100] = gains[50] = 1.0
    assert list(truth_topk(gains, 2)) == [50, 100]


def test_topk_accuracy_saturates_and_monotone():
    ds = _cluster_dataset(seed=9)
    model = train_tree(ds, max_depth=15, min_leaf=1)
    accs = [topk_accuracy(model, ds, k) for k in TOPK_GRID]
    assert all(a2 >= a1 for a1, a2 in zip(accs, accs[1:]))
    assert topk_accuracy(model, ds, 256) == 1.0
    assert topk_accuracy(model, ds, 1) == 1.0  # separable, perfect model


def test_model_json_round_trip():
    ds = _cluster_dataset(seed=2)
    model = train_tree(ds, max_depth=4, min_leaf=1)
    clone = DecisionTreeModel.from_json(model.to_json())
    for p in ds.positions:
        assert _top1(model, p) == _top1(clone, p)
    assert clone.to_json() == model.to_json()


def test_gini_split_beats_random_alternatives():
    rng = np.random.default_rng(17)
    pos = rng.uniform(-10, 10, size=(120, 3))
    labels = (pos[:, 0] > 1.5).astype(int) * 30 + (pos[:, 2] > 0).astype(int)
    x = pos
    y = labels.astype(np.int64)
    best = _best_split(x, y, N_PAIRS, min_leaf=1)
    assert best is not None
    weighted, feature, threshold = best

    def weighted_gini(f, thr):
        mask = x[:, f] <= thr
        out = 0.0
        for side in (mask, ~mask):
            if side.sum() == 0:
                return np.inf
            counts = np.bincount(y[side], minlength=N_PAIRS)
            out += side.sum() * (1 - np.sum((counts / side.sum()) ** 2))
        return out / len(y)

    assert weighted == pytest.approx(weighted_gini(feature, threshold), rel=1e-12)
    for _ in range(50):
        f = int(rng.integers(0, 3))
        thr = float(rng.uniform(-10, 10))
        assert weighted <= weighted_gini(f, thr) + 1e-12


def test_policy_random_rx_frequencies():
    rng = np.random.default_rng(123)
    policy = Policy(kind="random")
    draws = 10**6
    counts = np.zeros(4, dtype=np.int64)
    grid = np.zeros((4, 64))
    for _ in range(draws):
        pair = policy_decide(policy, None, grid, rng)
        counts[pair // 64] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.25) <= 0.01)


def test_policy_oracle_equals_argmax():
    rng = np.random.default_rng(0)
    grid = rng.random((4, 64))
    assert policy_decide(Policy(kind="oracle"), None, grid, rng) == int(np.argmax(grid))
    assert grid.ravel()[int(np.argmax(grid))] == grid.max()
    for kind in ("oracle", "random"):
        with pytest.raises(ValueError):
            policy_decide(Policy(kind=kind), None, None, rng)


def test_policy_tree_on_training_row():
    ds = _cluster_dataset(seed=21)
    model = train_tree(ds, max_depth=15, min_leaf=1)
    policy = Policy(kind="tree", model=model)
    rng = np.random.default_rng(0)
    for i in (0, 10, 60, 99):
        decided = policy_decide(policy, ds.positions[i], None, rng)
        assert decided == ds.best_pair[i]


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy(kind="greedy")
    with pytest.raises(ValueError):
        Policy(kind="tree")


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    gains = rng.random((6, N_PAIRS)) * 1e-6
    labels = gains.argmax(axis=1)
    ds = _dataset(rng.uniform(0, 100, size=(6, 3)), labels, gains=gains,
                  los=["NLOS", "LOS", "NLOS", "outage", "NLOS", "LOS"])
    path = tmp_path / "ds.csv"
    ds.save_csv(path)
    loaded = BeamDataset.load_csv(path)
    assert np.array_equal(loaded.best_pair, ds.best_pair)
    assert np.array_equal(loaded.positions, ds.positions)
    assert np.array_equal(loaded.gains, ds.gains)
    assert list(loaded.los) == list(ds.los)
    assert np.array_equal(loaded.gains.argmax(axis=1), loaded.best_pair)


def test_pair_count_follows_gains_width(tmp_path):
    # a 4x4 transmit array with the 2x2 receive array: 64 pairs, not 256
    rng = np.random.default_rng(41)
    gains = rng.random((40, 64))
    ds = _dataset(rng.uniform(-10, 10, size=(40, 3)), gains.argmax(axis=1), gains=gains)
    path = tmp_path / "ds.csv"
    ds.save_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[5:] == [f"g{i}" for i in range(64)]
    loaded = BeamDataset.load_csv(path)
    assert loaded.gains.shape == (40, 64)
    model = train_tree(loaded, max_depth=3, min_leaf=1)
    assert model.n_classes == 64
    assert all(leaf_counts.shape == (64,) for leaf_counts in _leaf_counts(model.root))
    assert json.loads(model.to_json())["n_classes"] == 64
    assert DecisionTreeModel.from_json(model.to_json()).n_classes == 64
    assert topk_accuracy(model, loaded, 64) == 1.0


def _leaf_counts(node):
    if node.is_leaf:
        return [node.counts]
    return _leaf_counts(node.left) + _leaf_counts(node.right)


def test_empty_dataset_has_no_gain_columns(tmp_path):
    ds = BeamDataset.from_rows([])
    assert len(ds) == 0 and ds.gains.shape == (0, 0)
    ds.save_csv(tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text().strip() == "x,y,z,los,best_pair"


@pytest.mark.parametrize("best", [2, 3, -1])
def test_best_pair_must_index_a_gain_column(best):
    rows = [((0.0, 0.0, 0.0), "NLOS", 1, np.zeros(2)), ((1.0, 0.0, 0.0), "NLOS", best, np.zeros(2))]
    with pytest.raises(ValueError, match=f"row 1: best_pair {best} is outside the 2 gain"):
        BeamDataset.from_rows(rows)


def test_topk_accuracy_rejects_other_pair_count():
    ds = _cluster_dataset(seed=4)
    model = train_tree(ds, max_depth=2, min_leaf=1)
    narrow = _dataset(ds.positions, ds.best_pair, gains=ds.gains[:, :64])
    with pytest.raises(ValueError, match="64 pairs, model 256"):
        topk_accuracy(model, narrow, 1)
