import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aeloc.grnn import (
    PrototypeSet,
    basis_weights,
    compute_sigmas,
    estimate,
    load_prototypes,
    save_prototypes,
)
from aeloc.pipeline import load_database
from aeloc.signals import BandpassFilter, FilterSpec
from aeloc.util import fmt

# ------------------------------------------------------------------ sigmas


def test_sigmas_two_prototypes():
    assert np.array_equal(compute_sigmas([0.0, 2.0]), [1.0, 1.0])


def test_sigmas_three_prototypes():
    assert np.array_equal(compute_sigmas([0.0, 1.0, 5.0]), [0.5, 0.5, 2.0])


def test_sigmas_uniform_delay_spacing():
    # 200 mm prototype pitch at 1.7 km/s: delay pitch 2*200/1.7e6 s, sigma is half that
    positions = np.array([900.0 + 200.0 * k for k in range(12)])
    delays = (2.0 * positions - 4000.0) / 1.7e6
    sigmas = compute_sigmas(delays)
    assert np.allclose(sigmas, 0.5 * 400.0 / 1.7e6, rtol=1e-9)
    assert sigmas[0] == pytest.approx(117.647e-6, rel=1e-4)


def test_sigmas_single_prototype_rejected():
    with pytest.raises(ValueError, match="single prototype"):
        compute_sigmas([1.0])


def test_sigmas_duplicate_only_neighbors_rejected():
    with pytest.raises(ValueError, match="prototype 0"):
        compute_sigmas([3.0, 3.0])


def oracle_sigmas(given):
    """Exhaustive pairwise scan, written independently of the implementation."""
    g = np.asarray(given, dtype=np.float64)
    if g.ndim == 1:
        g = g[:, None]
    out = []
    for i in range(g.shape[0]):
        best = math.inf
        for j in range(g.shape[0]):
            if j == i:
                continue
            acc = 0.0
            for k in range(g.shape[1]):
                diff = g[j, k] - g[i, k]
                acc += diff * diff
            dist = math.sqrt(acc)
            if dist != 0.0 and dist < best:
                best = dist
        out.append(0.5 * best)
    return np.array(out)


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 12), st.integers(1, 3)),
        # rounding keeps squared component differences clear of denormal underflow
        elements=st.floats(-50, 50, allow_nan=False).map(lambda x: round(x, 6)),
    )
)
def test_sigmas_match_pairwise_oracle(given_matrix):
    rows = {tuple(row) for row in given_matrix}
    if len(rows) < 2:
        return  # all prototypes coincide; covered by the duplicate-rejection test
    sigmas = compute_sigmas(given_matrix)
    assert np.array_equal(sigmas, oracle_sigmas(given_matrix))


# ------------------------------------------------------------------ weights


def test_weights_hand_computed():
    pset = PrototypeSet([0.0, 1.0], [[0.0], [1000.0]], [0.5, 0.5])
    weights, fell_back = basis_weights(pset, [0.25])
    b1 = math.exp(-0.125) / (math.exp(-0.125) + math.exp(-1.125))
    assert not fell_back
    assert weights[0] == pytest.approx(b1, rel=1e-12)
    assert weights[1] == pytest.approx(1.0 - b1, rel=1e-12)
    assert b1 == pytest.approx(0.731, abs=5e-4)


def test_weight_dominance_at_well_separated_prototype():
    pset = PrototypeSet([0.0, 10.0, 20.0], [[0.0], [1.0], [2.0]], [1.0, 1.0, 1.0])
    weights, _ = basis_weights(pset, [10.0])
    assert weights[1] > 0.999


def test_midpoint_query_splits_evenly():
    pset = PrototypeSet([0.0, 2.0], [[0.0], [1.0]], [0.7, 0.7])
    weights, _ = basis_weights(pset, [1.0])
    assert weights == pytest.approx([0.5, 0.5], rel=1e-12)


def test_underflow_fallback_is_one_hot_nearest():
    # at 1e300 both distances are exactly 1e300, a tie that goes to the lowest index;
    # at 1e200 both squared distances overflow to inf, yet 1e190 is the nearer one
    cases = (
        ([0.0, 1000.0], 300.0, [1.0, 0.0]),
        ([0.0, 1000.0], 1e300, [1.0, 0.0]),
        ([0.0, 1e190], 1e200, [0.0, 1.0]),
    )
    for given, query, expected in cases:
        pset = PrototypeSet(given, [[0.0], [1.0]], [1e-3, 1e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, fell_back = basis_weights(pset, [query])
        assert fell_back
        assert np.array_equal(weights, expected), (given, query)


def test_underflow_tie_breaks_to_lowest_index():
    pset = PrototypeSet([-500.0, 500.0], [[0.0], [1.0]], [1e-3, 1e-3])
    weights, fell_back = basis_weights(pset, [0.0])
    assert fell_back
    assert np.array_equal(weights, [1.0, 0.0])


# ----------------------------------------------------------------- estimate


def test_single_prototype_always_returns_its_hidden():
    pset = PrototypeSet([0.5], [[42.0, -3.0]], [2.0])
    for query in (-100.0, 0.5, 17.0):
        est = estimate(pset, [query])
        assert np.array_equal(est.hidden, [42.0, -3.0])
        assert est.weights[0] == 1.0


def test_estimate_hand_computed():
    pset = PrototypeSet([0.0, 1.0], [[0.0], [1000.0]], [0.5, 0.5])
    est = estimate(pset, [0.25])
    b2 = math.exp(-1.125) / (math.exp(-0.125) + math.exp(-1.125))
    assert est.hidden[0] == pytest.approx(1000.0 * b2, rel=1e-12)
    assert est.hidden[0] == pytest.approx(269.0, abs=0.5)


def test_estimate_at_prototype_with_wide_separation():
    pset = PrototypeSet([0.0, 10.0, 20.0], [[5.0], [7.0], [9.0]], [1.0, 1.0, 1.0])
    est = estimate(pset, [10.0])
    assert est.hidden[0] == pytest.approx(7.0, rel=1e-3)
    assert est.effective_support >= 1


def test_estimate_dimension_mismatch():
    pset = PrototypeSet([[0.0, 1.0]], [[1.0]], [1.0])
    with pytest.raises(ValueError, match="dimension"):
        estimate(pset, [0.0])


# --------------------------------------------------------------- properties

finite_sets = st.integers(0, 2**31 - 1)


def random_set(seed, max_n=20):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    s = int(rng.integers(1, 4))
    d = int(rng.integers(1, 4))
    given = rng.normal(size=(n, s))
    hidden = rng.normal(size=(n, d)) * 10.0
    sigmas = rng.uniform(0.5, 2.0, size=n)
    query = rng.normal(size=s) * 1.5
    return PrototypeSet(given, hidden, sigmas), query


@settings(max_examples=150, deadline=None)
@given(finite_sets)
def test_weights_normalized_and_bounded(seed):
    pset, query = random_set(seed)
    weights, fell_back = basis_weights(pset, query)
    assert not fell_back
    assert abs(weights.sum() - 1.0) <= 1e-9
    assert np.all(weights >= 0.0) and np.all(weights <= 1.0)


@settings(max_examples=150, deadline=None)
@given(finite_sets)
def test_estimate_stays_in_convex_hull(seed):
    pset, query = random_set(seed)
    est = estimate(pset, query)
    lo, hi = pset.hidden.min(axis=0), pset.hidden.max(axis=0)
    slack = 1e-12 * (np.abs(pset.hidden).max() + 1.0)
    assert np.all(est.hidden >= lo - slack)
    assert np.all(est.hidden <= hi + slack)


@settings(max_examples=150, deadline=None)
@given(finite_sets)
def test_permutation_invariance(seed):
    pset, query = random_set(seed)
    perm = np.random.default_rng(seed + 1).permutation(len(pset))
    shuffled = PrototypeSet(pset.given[perm], pset.hidden[perm], pset.sigmas[perm])
    a = estimate(pset, query).hidden
    b = estimate(shuffled, query).hidden
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * (np.abs(a).max() + 1.0))


@settings(max_examples=150, deadline=None)
@given(finite_sets)
def test_translation_equivariance(seed):
    pset, query = random_set(seed)
    c = float(np.random.default_rng(seed + 2).uniform(-5.0, 5.0))
    moved = PrototypeSet(pset.given + c, pset.hidden, pset.sigmas)
    w0, _ = basis_weights(pset, query)
    w1, _ = basis_weights(moved, query + c)
    assert np.allclose(w0, w1, rtol=1e-12, atol=1e-12)
    a = estimate(pset, query).hidden
    b = estimate(moved, query + c).hidden
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * (np.abs(a).max() + 1.0))


@settings(max_examples=150, deadline=None)
@given(finite_sets)
def test_shrinking_sigma_reaches_nearest_neighbor(seed):
    # stated for a uniform width: with per-prototype widths the shrinking limit
    # selects argmin(d/sigma) instead of the raw nearest prototype
    pset, query = random_set(seed)
    d2 = ((pset.given - query) ** 2).sum(axis=1)
    order = np.argsort(d2)
    if d2[order[1]] - d2[order[0]] < 1e-3:
        return  # nearest prototype not unique enough for the limit statement
    uniform = np.full(len(pset), float(pset.sigmas[0]))
    shrunk = PrototypeSet(pset.given, pset.hidden, uniform * 1e-3)
    est = estimate(shrunk, query)
    assert np.allclose(est.hidden, pset.hidden[order[0]], rtol=1e-9, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(finite_sets)
def test_growing_sigma_reaches_plain_mean(seed):
    pset, query = random_set(seed)
    widened = PrototypeSet(pset.given, pset.hidden, pset.sigmas * 1e3)
    est = estimate(widened, query)
    spread = np.ptp(pset.hidden, axis=0) + 1e-9
    assert np.all(np.abs(est.hidden - pset.hidden.mean(axis=0)) <= 1e-3 * spread)


def test_prototype_set_is_immutable():
    pset = PrototypeSet([0.0, 1.0], [[1.0], [2.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        pset.given[0, 0] = 5.0


def test_prototype_set_validation():
    with pytest.raises(ValueError, match="sigma"):
        PrototypeSet([0.0, 1.0], [[1.0], [2.0]], [1.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        PrototypeSet([0.0, np.inf], [[1.0], [2.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="number of prototypes"):
        PrototypeSet([0.0, 1.0], [[1.0]], [1.0, 1.0])


# ------------------------------------------------------------------ database


def test_database_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    pset = PrototypeSet(rng.normal(size=(7, 2)), rng.normal(size=(7, 1)), rng.uniform(0.1, 2, 7))
    path = tmp_path / "proto.db"
    save_prototypes(path, pset)
    assert path.read_text().splitlines()[0] == "# given_dim=2 hidden_dim=1"
    loaded = load_prototypes(path)
    assert np.array_equal(loaded.given, pset.given)
    assert np.array_equal(loaded.hidden, pset.hidden)
    assert np.array_equal(loaded.sigmas, pset.sigmas)
    # a second save emits identical bytes
    twice = tmp_path / "proto2.db"
    save_prototypes(twice, loaded)
    assert twice.read_bytes() == path.read_bytes()


_ESTIMATOR = BandpassFilter(FilterSpec(35000.0, 45000.0, 4), 1e6, 0.0025)
_HEADER = ("# given_dim=1 hidden_dim=1 f_low_hz=35000.0 f_high_hz=45000.0 order=4 "
           "max_delay_s=0.0025 sample_rate_hz=1000000.0")
_ROWS = "0.0,1.0,1.0\n1.0,2.0,1.0\n"


def test_database_header_fields_round_trip_with_their_kind(tmp_path):
    # grnn stores the text; the estimator reader gives each field its kind
    header = {key: fmt(value) for key, value in _ESTIMATOR.fields().items()}
    pset = PrototypeSet([0.0, 1.0], [[1.0], [2.0]], [1.0, 1.0], header)
    path = tmp_path / "proto.db"
    save_prototypes(path, pset)
    assert path.read_text().splitlines()[0] == _HEADER
    assert dict(load_prototypes(path).header) == header
    loaded, filt = load_database(path)
    assert filt == _ESTIMATOR
    assert type(filt.spec.order) is int and type(filt.max_delay_s) is float
    with pytest.raises(TypeError):
        loaded.header["order"] = "8"  # read-only, like the arrays


def test_database_carries_a_field_it_does_not_read(tmp_path):
    path = tmp_path / "proto.db"
    path.write_text(f"{_HEADER} prototype_kind=discrete-burst\n{_ROWS}")
    assert load_prototypes(path).header["prototype_kind"] == "discrete-burst"
    pset, filt = load_database(path)
    assert filt == _ESTIMATOR
    copy = tmp_path / "copy.db"
    save_prototypes(copy, pset)
    assert copy.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "field, message",
    [
        ("order=", "first line must be"),
        ("order", "first line must be"),
        ("order=4 order=8", r"proto\.db:1: header field 'order' appears twice"),
        ("given_dim=2", r"proto\.db:1: header field 'given_dim' appears twice"),
    ],
    ids=["empty-value", "no-value", "repeated", "repeats-dim"],
)
def test_database_rejects_a_malformed_header_field(tmp_path, field, message):
    path = tmp_path / "proto.db"
    path.write_text(f"# given_dim=1 hidden_dim=1 {field}\n{_ROWS}")
    with pytest.raises(ValueError, match=message):
        load_prototypes(path)


@pytest.mark.parametrize(
    "field, message",
    [
        ("f_high_hz=nan", "f_high_hz: number must be finite, got 'nan'"),
        ("max_delay_s=-inf", "max_delay_s: number must be finite, got '-inf'"),
        ("f_low_hz=35kHz", "f_low_hz: could not convert string to float: '35kHz'"),
        ("max_delay_s=-1e-3", "max_delay_s must be positive, got '-1e-3'"),
        ("sample_rate_hz=-1E+6", "sample_rate_hz must be positive, got '-1E+6'"),
    ],
    ids=["nan", "inf", "not-a-number", "negative-exponent", "negative-capital-exponent"],
)
def test_database_estimator_field_errors_quote_the_file(tmp_path, field, message):
    # a complete header in which only ``field`` is bad
    key = field.partition("=")[0]
    good = next(token for token in _HEADER.split() if token.startswith(f"{key}="))
    path = tmp_path / "proto.db"
    path.write_text(f"{_HEADER.replace(good, field)}\n{_ROWS}")
    with pytest.raises(ValueError) as info:
        load_database(path)
    assert str(info.value) == f"{path}:1: {message}"


@pytest.mark.parametrize(
    "key, text",
    [("note", ""), ("note", "two words"), ("note", "tab\tinside"), ("note", " lead"),
     ("note", 4), ("prototype-kind", "burst")],
)
def test_database_save_refuses_a_header_field_it_would_not_read_back(tmp_path, key, text):
    pset = PrototypeSet([0.0, 1.0], [[1.0], [2.0]], [1.0, 1.0], {key: text})
    path = tmp_path / "proto.db"
    with pytest.raises(ValueError) as info:
        save_prototypes(path, pset)
    assert str(info.value) == f"{path}: header field {key}={text!r} would not read back"
    assert not path.exists()


def test_database_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.db"
    bad.write_text("no header\n1,2,3\n")
    with pytest.raises(ValueError, match="given_dim"):
        load_prototypes(bad)
    bad.write_text("# given_dim=1 hidden_dim=1\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="fields"):
        load_prototypes(bad)
