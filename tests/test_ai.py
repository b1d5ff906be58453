import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ai_oracle
from ai_oracle import truth_topk
from skycell.ai import (
    LOS_CLASSES,
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
    # the same tie in topk_accuracy: pair 50 is the true top-1, pair 100 is not
    ds = _dataset([[0, 0, 0]], [50], gains=gains[None, :])
    for pick, acc in ((50, 1.0), (100, 0.0)):
        counts = np.zeros(N_PAIRS, dtype=np.int64)
        counts[pick] = 1
        model = DecisionTreeModel(root=TreeNode(counts=counts), max_depth=1, n_classes=N_PAIRS)
        assert topk_accuracy(model, ds, 1) == acc
        assert topk_accuracy(model, ds, 2) == 1.0


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


# ---------------------------------------------------------------------------
# the fast paths against the frozen csv-module and row-by-row oracles
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 1e-05, 5e-324, 2.2250738585072014e-308, 1e-310, 0.1 + 0.2, 1 / 3,
                1.7976931348623157e308, 123456789.12345679, 1e16, 1e-7]
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))


@st.composite
def _datasets(draw):
    n = draw(st.integers(0, 6))
    n_pairs = draw(st.integers(1, 5))
    cells = st.lists(_finite, min_size=n * (3 + n_pairs), max_size=n * (3 + n_pairs))
    values = np.array(draw(cells), dtype=float)
    return BeamDataset(
        positions=values[: 3 * n].reshape(n, 3),
        los=np.array(draw(st.lists(st.sampled_from(LOS_CLASSES), min_size=n, max_size=n)),
                     dtype=object),
        best_pair=np.array(draw(st.lists(st.integers(0, n_pairs - 1), min_size=n, max_size=n)),
                           dtype=np.int64),
        gains=values[3 * n:].reshape(n, n_pairs),
    )


def _same_columns(a, b):
    assert a.positions.shape == b.positions.shape and a.gains.shape == b.gains.shape
    assert a.positions.tobytes() == b.positions.tobytes()
    assert a.gains.tobytes() == b.gains.tobytes()
    assert a.best_pair.tobytes() == b.best_pair.tobytes()
    assert list(a.los) == list(b.los)


@settings(max_examples=150, deadline=None)
@given(ds=_datasets())
def test_save_csv_writes_the_csv_module_bytes(tmp_path_factory, ds):
    tmp = tmp_path_factory.mktemp("csv")
    ds.save_csv(tmp / "fast.csv")
    ai_oracle.save_csv(ds, tmp / "oracle.csv")
    assert (tmp / "fast.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(ds=_datasets(), newline=st.sampled_from(["\r\n", "\n"]))
def test_load_csv_reads_what_the_csv_module_reads(tmp_path_factory, ds, newline):
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    ai_oracle.save_csv(ds, path)
    path.write_bytes(path.read_bytes().replace(b"\r\n", newline.encode()))
    loaded = BeamDataset.load_csv(path)
    _same_columns(loaded, ai_oracle.load_csv(path))
    _same_columns(loaded, ds)


def _random_tree(rng, n_pairs, depth):
    if depth == 0 or rng.random() < 0.3:
        # few distinct counts, so leaves tie often; some leaves see no class at all
        return TreeNode(counts=rng.integers(0, 3, n_pairs) * int(rng.random() < 0.9))
    return TreeNode(feature=int(rng.integers(3)), threshold=float(rng.integers(0, 8)) / 2,
                    left=_random_tree(rng, n_pairs, depth - 1),
                    right=_random_tree(rng, n_pairs, depth - 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40),
       n_pairs=st.sampled_from([1, 3, 8, 100, 130]), levels=st.integers(1, 4))
def test_topk_accuracy_matches_the_row_loop(seed, n_rows, n_pairs, levels):
    rng = np.random.default_rng(seed)
    model = DecisionTreeModel(root=_random_tree(rng, n_pairs, 4), max_depth=4, n_classes=n_pairs)
    # positions on the half-integer thresholds' grid, gains from a few levels: ties everywhere
    ds = _dataset(rng.integers(0, 8, (n_rows, 3)) / 2, rng.integers(0, n_pairs, n_rows),
                  gains=rng.integers(0, levels, (n_rows, n_pairs)) / levels)
    for k in (k for k in TOPK_GRID if k <= n_pairs):
        assert topk_accuracy(model, ds, k) == ai_oracle.topk_accuracy(model, ds, k)
