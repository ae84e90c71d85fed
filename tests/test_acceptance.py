"""Acceptance suite: the numbered behavioral guarantees, one test each.

Checks 1-6 are dataset-independent properties of the numeric core: gradient
correctness, the MC reduction contract, score and credit formulas, threshold
calibration, the masked reconstruction objective, and the entropy bookkeeping.
Checks 7-11 rerun the three experiment pipelines at full desk scale on three
seeds each and hold a majority vote on the headline comparisons. A final
check covers the latent-separation claim of the reporting layer.

Each test prints one pass/fail line (visible under pytest -s, or in the
failure output otherwise). The desk-scale fixtures retrain from scratch, so
the whole file takes a minute or two; everything is seeded and every rerun
produces identical numbers.
"""

import time

import numpy as np
import pytest

from gradcheck import gradient_check, param_pairs
from oodfdd import data, detect, experiments, model, nncore, report, train, uncertainty
from oodfdd.model import ModelKind
from shapes import arch

SEEDS = (0, 1, 2)


def _line(tag: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    msg = f"[acceptance {tag}] {verdict}  {detail}"
    print(msg, flush=True)
    assert ok, msg


# ---------------------------------------------------------------------------
# 1-6: numeric-core properties


def test_c01_gradients_match_finite_differences():
    start = time.monotonic()
    rng = nncore.make_rng(101)
    worst = 0.0
    for trial in range(4):
        n_classes = int(rng.integers(2, 4))
        input_dim = int(rng.integers(3, 6))
        net = model.build(ModelKind.AUGMENTED, arch(
            input_dim=input_dim, latent_dim=2,
            encoder_widths=[int(rng.integers(3, 6)) for _ in range(int(rng.integers(0, 3)))] + [2],
            head_widths=[int(rng.integers(2, 5))], n_classes=n_classes), trial)
        # central differences need smooth activations
        for stack in (net.encoder, net.head, net.decoder):
            if stack is None:
                continue
            for layer in stack.dense_layers():
                if layer.activation == "relu":
                    layer.activation = "sigmoid"
        x = rng.normal(0.0, 1.0, (5, input_dim))
        y = rng.integers(0, n_classes, 5)
        beta = float(rng.uniform(0.3, 1.0))

        def loss_fn():
            net.grads.fill(0.0)
            clf_loss, rec_loss = train.joint_batch_gradients(net, x, y, beta)
            return clf_loss + beta * rec_loss, [net.grads.copy()]

        worst = max(worst, gradient_check([net.params], loss_fn))
    elapsed = time.monotonic() - start
    _line("01 gradient check", worst < 1e-4 and elapsed < 10.0,
          f"max relative error {worst:.2e} over 4 randomized networks in {elapsed:.1f}s")


def test_c02_mc_statistics_recompute_bitwise():
    net = model.build(ModelKind.AUGMENTED, arch(input_dim=6, latent_dim=2, dropout_rate=0.2), 7)
    x = nncore.make_rng(42).normal(0.0, 1.0, (1, 6))

    def replay(samples):
        """Independent replay of the documented sequential reduction."""
        mean = np.zeros_like(samples[0])
        m2 = np.zeros_like(samples[0])
        for k in range(samples.shape[0]):
            delta = samples[k] - mean
            mean = mean + delta / (k + 1)
            m2 = m2 + delta * (samples[k] - mean)
        return mean, np.maximum(m2, 0.0) / samples.shape[0]

    result = uncertainty.mc_samples(net, x, t=25, rng=nncore.make_rng(43))
    moments = uncertainty.mc_moments(net, x, t=25, rng=nncore.make_rng(43))
    # the pipeline's statistic is the replay, bitwise
    mean, var = replay(result.clf)
    ok = np.array_equal(mean, moments.clf_mean) and np.array_equal(var, moments.clf_var)
    for samples in (result.clf, result.rec):
        mean, var = replay(samples)
        # and the closed-form definitions these implement
        naive_mean = samples.mean(axis=0)
        naive_var = ((samples - naive_mean) ** 2).mean(axis=0)
        ok = ok and np.allclose(mean, naive_mean, atol=1e-12)
        ok = ok and np.allclose(var, naive_var, atol=1e-12)
    # constant samples must give exactly zero variance: with every parameter
    # 0 each pass outputs sigmoid(0) = 0.5 and a zero reconstruction
    net.params[...] = 0.0
    const = uncertainty.mc_moments(net, x, t=9, rng=nncore.make_rng(44))
    ok = ok and np.all(const.clf_var == 0.0) and np.all(const.clf_mean == 0.5)
    rec = uncertainty.mc_samples(net, x, t=9, rng=nncore.make_rng(44)).rec
    ok = ok and np.all(replay(rec)[1] == 0.0) and np.all(replay(rec)[0] == 0.0)
    _line("02 mc statistics", ok,
          "sequential mean/variance reproduce bitwise; match closed forms at 1e-12")


def test_c03_score_and_diagnostic_credit_oracles():
    grid = np.round(np.arange(0.0, 1.0001, 0.1), 1)
    ok = True
    # every (mu, var) grid pair in every channel slot of a 4-channel output,
    # one row per grid point
    means, variances = [], []
    for j in range(4):
        for mu in grid:
            mean = np.array([0.2, 0.3, 0.4, 0.1])
            for var in grid:
                variance = np.array([0.0, 0.1, 0.2, 0.3])
                mean[j], variance[j] = mu, var
                means.append(mean.copy())
                variances.append(variance.copy())
    scores = detect.clf_anomaly_scores(np.array(means), np.array(variances))
    for mean, variance, row in zip(means, variances, scores):
        expect = mean + variance
        expect[0] = 1.0 - mean[0] + variance[0]
        ok = ok and np.array_equal(row, expect)
    # a lone sigmoid output expands first (mu0 = 1 - mu), then the channel
    # formulas apply; the two entries agree by algebra (to rounding)
    pairs = [(mu, var) for mu in grid for var in grid]
    scores = detect.clf_anomaly_scores(np.array([[mu] for mu, _ in pairs]),
                                       np.array([[var] for _, var in pairs]))
    ok = ok and scores.shape == (len(pairs), 2)
    for (mu, var), s in zip(pairs, scores):
        ok = ok and s[0] == 1.0 - (1.0 - mu) + var and s[1] == mu + var
        ok = ok and abs(s[0] - s[1]) < 1e-12
    # diagnostic credit over every label subset of size <= 3 from {0,1,2,3},
    # one flag row built from each subset
    import itertools
    subsets = [set(c) for r in range(4)
               for c in itertools.combinations(range(4), r)]
    assert len(subsets) == 15
    b = np.array([[j in y_pred for j in range(4)] for y_pred in subsets])
    for y_true in (1, 2, 3):
        got = detect.diagnostic_accuracies(b, np.full(len(subsets), y_true))
        for y_pred, g in zip(subsets, got):
            if y_true not in y_pred:
                want = 0.0
            else:
                want = 1.0 / len([j for j in y_pred if j != 0])
            ok = ok and g == want
    ok = ok and bool(np.all(np.isnan(detect.diagnostic_accuracies(b, np.zeros(15, int)))))
    _line("03 score/credit oracles", ok,
          "channel scores and diagnostic credit match exhaustive tables exactly")


def test_c04_calibrated_flag_rate_tracks_alpha():
    rng = nncore.make_rng(404)
    cal_clf = rng.lognormal(0.0, 0.6, (2000, 3))
    cal_rec = rng.lognormal(-1.0, 0.5, 2000)
    fresh_clf = rng.lognormal(0.0, 0.6, (2000, 3))
    fresh_rec = rng.lognormal(-1.0, 0.5, 2000)
    ok = True
    details = []
    for alpha in (0.05, 0.1):
        clf_thr, rec_thr = detect.calibrate_thresholds(cal_clf, alpha, rec_scores=cal_rec)
        rates = list((fresh_clf > clf_thr[None, :]).mean(axis=0))
        rates.append(float((fresh_rec > rec_thr).mean()))
        ok = ok and all(abs(r - alpha) <= 0.02 for r in rates)
        details.append(f"alpha={alpha}: rates {[f'{r:.3f}' for r in rates]}")
    _line("04 calibration", ok, "; ".join(details) + " (each within 2 points)")


def test_c05_fault_rows_leave_decoder_gradients_unchanged():
    net = model.build(ModelKind.AUGMENTED, arch(input_dim=6, latent_dim=2), 15)
    rng = nncore.make_rng(16)
    x = rng.normal(0.0, 1.0, (10, 6))
    y = np.array([0, 1, 0, 0, 1, 0, 1, 0, 0, 1])
    net.grads.fill(0.0)
    train.joint_batch_gradients(net, x, y, 1.0)
    full = [g.copy() for _, g in param_pairs(net.decoder)]
    # same pass with the fault rows removed; the loss keeps its 1/batch
    # weight, so rescale to the original base before comparing
    normals = x[y == 0]
    net.grads.fill(0.0)
    train.joint_batch_gradients(net, normals, np.zeros(len(normals), int), 1.0)
    scale = len(normals) / len(x)
    diff = max(np.max(np.abs(gf - gn * scale))
               for gf, (_, gn) in zip(full, param_pairs(net.decoder)))
    # and a batch of only fault rows drives the decoder not at all
    net.grads.fill(0.0)
    train.joint_batch_gradients(net, x, np.ones(len(x), int), 1.0)
    all_zero = all(np.all(g == 0.0) for _, g in param_pairs(net.decoder))
    _line("05 masked objective", diff < 1e-12 and all_zero,
          f"decoder gradient difference {diff:.2e}; fault-only batch gives zero")


def test_c06_entropy_totals_and_partition():
    rng = nncore.make_rng(606)
    probs = rng.dirichlet(np.ones(4), 60)
    entropies = uncertainty.predictive_entropy(probs)
    tags = (["normal"] * 20 + ["fault:1"] * 10 + ["fault:2"] * 10
            + ["incipient:1:0.5"] * 10 + ["unknown"] * 10)
    d = uncertainty.decompose_entropies(entropies, tags)
    ok = abs(d.total - (d.P0 + d.P1_in + d.P1_ood)) < 1e-9
    # every example lands in exactly one bucket and the buckets exhaust the set
    ones = uncertainty.decompose_entropies(np.ones(len(tags)), tags)
    counts = [ones.P0, ones.P1_in, ones.P1_ood]
    ok = ok and counts == [20.0, 20.0, 20.0] and ones.total == len(tags)
    ok = ok and abs(d.total - sum(entropies)) < 1e-9
    with pytest.raises(ValueError):
        uncertainty.decompose_entropies([0.1], ["mystery"])
    _line("06 entropy identity", ok,
          f"total {d.total:.6f} = {d.P0:.6f} + {d.P1_in:.6f} + {d.P1_ood:.6f}; "
          f"partition counts {counts}")


# ---------------------------------------------------------------------------
# 7-11: desk-scale reproductions, three seeds, majority vote


@pytest.fixture(scope="module")
def thyroid_runs(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("accept_thyroid"))
    data.write_thyroid_surrogate(d, seed=0)
    rows = []
    for seed in SEEDS:
        r = experiments.run_experiment(experiments.thyroid_config(seed=seed), data_dir=d)
        aug, clf = r.evals["augmented"], r.evals["classifier"]
        in_dist = np.array([not data.is_ood_tag(g) for g in r.eval_ds.group])
        x, y = r.eval_ds.X[in_dist], r.eval_ds.y[in_dist]
        rows.append({
            "sub_aug": aug.clf_binary["incipient:1:1"],
            "sub_clf": clf.clf_binary["incipient:1:1"],
            "norm_aug": aug.clf_binary["normal"],
            "dis_aug": aug.clf_binary["fault:1"],
            "thr_aug": aug.thresholds.clf_thresholds[1],
            "thr_clf": clf.thresholds.clf_thresholds[1],
            "P0_aug": aug.entropy.P0,
            "P0_clf": clf.entropy.P0,
            "H_aug": aug.ood_mean_entropy,
            "H_clf": clf.ood_mean_entropy,
            "sep_aug": report.separation_statistic(
                r.nets["augmented"].encoder.forward(x), y),
            "sep_ae": report.separation_statistic(
                r.nets["autoencoder"].encoder.forward(x), y),
        })
    return rows


@pytest.fixture(scope="module")
def chiller_runs():
    rows = []
    for seed in SEEDS:
        r = experiments.run_experiment(experiments.chiller_config(seed=seed))
        rows.append(r.extras["severity_detection"])
    return rows


@pytest.fixture(scope="module")
def mnist_runs(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("accept_mnist"))
    data.write_mnist_surrogate(d, seed=0)
    rows = []
    for seed in SEEDS:
        r = experiments.run_experiment(experiments.mnist_config(seed=seed), data_dir=d)
        rows.append({
            "amb_aug": r.extras["ambiguous_diag"]["augmented"],
            "amb_clf": r.extras["ambiguous_diag"]["classifier"],
            "unk": r.extras["unknown_detection"]["augmented"],
        })
    return rows


def test_c07_heldout_class_detection_gap(thyroid_runs):
    passes, details = 0, []
    for seed, row in zip(SEEDS, thyroid_runs):
        ok = (row["sub_aug"] >= row["sub_clf"] + 0.10
              and 0.85 <= row["norm_aug"] <= 0.95
              and row["dis_aug"] >= 0.95)
        passes += ok
        details.append(f"seed {seed}: held-out {row['sub_aug']:.3f} vs {row['sub_clf']:.3f}, "
                       f"normal {row['norm_aug']:.3f}, diseased {row['dis_aug']:.3f}")
    _line("07 detection gap", passes >= 2,
          f"{passes}/3 seeds ({'; '.join(details)})")


def test_c08_joint_training_tightens_thresholds(thyroid_runs):
    passes, details = 0, []
    for seed, row in zip(SEEDS, thyroid_runs):
        passes += row["thr_aug"] < row["thr_clf"]
        details.append(f"seed {seed}: {row['thr_aug']:.5f} vs {row['thr_clf']:.5f}")
    _line("08 threshold direction", passes >= 2,
          f"{passes}/3 seeds ({'; '.join(details)})")


def spearman(x, y) -> float:
    """Rank correlation; ties get midranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("spearman needs two equal-length vectors of size >= 2")

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size, dtype=float)
        r[order] = np.arange(1, v.size + 1, dtype=float)
        # average ranks within tied groups
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("spearman undefined for constant input")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def test_spearman_basics():
    assert spearman([1, 2, 3, 4], [0.1, 0.2, 0.5, 0.9]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # monotone in rank, not in value
    assert spearman([1, 2, 3], [10, 100, 101]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])


def test_spearman_ties_use_midranks():
    got = spearman([1, 2, 2, 4], [1, 2, 3, 4])
    assert 0.9 < got < 1.0


def test_c09_severity_monotone_and_early_detection(chiller_runs):
    levels = np.array([1.0, 2.0, 3.0, 4.0])
    passes, details = 0, []
    for seed, sev in zip(SEEDS, chiller_runs):
        aug = np.array([sev["augmented"][q] for q in (1, 2, 3, 4)])
        clf_sl1 = sev["classifier"][1]
        rho = spearman(levels, aug)
        ok = rho > 0 and aug[0] >= clf_sl1
        passes += ok
        details.append(f"seed {seed}: rho {rho:+.2f}, SL1 {aug[0]:.3f} vs {clf_sl1:.3f}")
    _line("09 severity ordering", passes >= 2,
          f"{passes}/3 seeds ({'; '.join(details)})")


def test_c10_ambiguous_diagnosis_and_unknown_detection(mnist_runs):
    passes, details = 0, []
    for seed, row in zip(SEEDS, mnist_runs):
        ok = (row["amb_aug"] > row["amb_clf"]
              and row["unk"]["clf"] >= 0.95 and row["unk"]["rec"] >= 0.95)
        passes += ok
        details.append(f"seed {seed}: ambiguous {row['amb_aug']:.3f} vs {row['amb_clf']:.3f}, "
                       f"unknown clf {row['unk']['clf']:.3f} rec {row['unk']['rec']:.3f}")
    _line("10 ambiguous/unknown", passes >= 2,
          f"{passes}/3 seeds ({'; '.join(details)})")


def test_c11_entropy_shifts_toward_out_of_distribution(thyroid_runs):
    passes, details = 0, []
    for seed, row in zip(SEEDS, thyroid_runs):
        ok = row["P0_aug"] <= row["P0_clf"] and row["H_aug"] > row["H_clf"]
        passes += ok
        details.append(f"seed {seed}: P0 {row['P0_aug']:.1f} vs {row['P0_clf']:.1f}, "
                       f"ood entropy {row['H_aug']:.3f} vs {row['H_clf']:.3f}")
    _line("11 entropy direction", passes >= 2,
          f"{passes}/3 seeds ({'; '.join(details)})")


def test_latent_separation_beats_reconstruction_only(thyroid_runs):
    passes, details = 0, []
    for seed, row in zip(SEEDS, thyroid_runs):
        passes += row["sep_aug"] >= row["sep_ae"]
        details.append(f"seed {seed}: {row['sep_aug']:.3f} vs {row['sep_ae']:.3f}")
    _line("latent separation", passes >= 2,
          f"{passes}/3 seeds ({'; '.join(details)})")
