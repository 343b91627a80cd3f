"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is pinned here; the bundled synthetic dataset makes all runs
offline and reproducible.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from blbayes import demo
from blbayes.backtest import ModelSettings, run_model
from blbayes.cli import main as cli_main
from blbayes.config import RunConfig
from blbayes.inverse_wishart import IwConfig, gibbs_augmented, gibbs_nonsquare
from blbayes.linalg import matrix_log_spd, vec_star
from blbayes.log_sigma import (
    LogSigmaConfig,
    build_G,
    build_Q,
    exact_log_target,
    gibbs_log_sigma,
)
from blbayes.original_bl import (
    EquilibriumInputs,
    bl_posterior,
    equilibrium_returns,
    optimal_weights,
    weight_decomposition,
)
from blbayes.sampling import rng_stream, sample_mvn
from blbayes.views import ViewSet, augment_to_invertible
from conftest import random_spd
from oracles import (
    StructuralDesign,
    complete_square,
    mu_conditional,
    mu_conditional_precision,
    volterra_log_density,
)


def check(num: int, name: str, ok: bool, started: float, budget: float):
    elapsed = time.monotonic() - started
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s / budget {budget:.0f}s) {name}")
    assert ok, f"criterion {num} assertions failed"
    assert in_budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def panel():
    return demo.demo_return_panel()


def test_criterion_01_algebraic_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0

    for _ in range(100):  # scatter decomposition
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 12))
        si = np.linalg.inv(random_spd(rng, n))
        rows, mu = rng.normal(size=(m, n)), rng.normal(size=n)
        rbar = rows.mean(axis=0)
        lhs = sum((r - mu) @ si @ (r - mu) for r in rows)
        rhs = sum((r - rbar) @ si @ (r - rbar) for r in rows) + m * (rbar - mu) @ si @ (rbar - mu)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))

    for _ in range(100):  # completing the square
        n = int(rng.integers(1, 5))
        a_mat, b_mat = random_spd(rng, n), random_spd(rng, n)
        a, b, y = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        y_star, h, comb = complete_square(a_mat, a, b_mat, b)
        lhs = (y - a) @ a_mat @ (y - a) + (y - b) @ b_mat @ (y - b)
        rhs = (y - y_star) @ comb @ (y - y_star) + (a - b) @ h @ (a - b)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))

    for _ in range(100):  # linear-term absorption
        n = int(rng.integers(1, 6))
        m_mat = random_spd(rng, n)
        x, b = rng.normal(size=n), rng.normal(size=n)
        lhs = x @ m_mat @ x - 2 * b @ x
        mb = np.linalg.solve(m_mat, b)
        rhs = (x - mb) @ m_mat @ (x - mb) - b @ mb
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))

    gj_worst = 0.0
    for _ in range(100):  # structural prior: scalar form and G J == 0
        n = int(rng.integers(2, 7))
        design = StructuralDesign(n, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
        g = build_G(n, design.sigma1_sq, design.sigma2_sq)
        gj_worst = max(gj_worst, np.abs(g @ design.j_matrix).max())
        alpha = rng.normal(size=design.d) * 2
        diag, off = alpha[:n], alpha[n:]
        expected = (
            np.sum((diag - diag.mean()) ** 2) / design.sigma1_sq
            + np.sum((off - off.mean()) ** 2) / design.sigma2_sq
        )
        worst = max(worst, abs(alpha @ g @ alpha - expected) / max(expected, 1.0))

    check(1, "algebraic identity suite (rel err <= 1e-9)",
          worst <= 1e-9 and gj_worst <= 1e-12, t0, 10.0)


def test_criterion_02_volterra_exactness_point():
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    combos = [(n, m) for n in (2, 3, 4) for m in (5, 21)]
    worst = 0.0
    for i in range(100):
        n, m = combos[i % len(combos)]
        returns = rng.normal(size=(m, n)) * rng.uniform(0.1, 1.0)
        mu = rng.normal(size=n) * 0.2
        s = (returns - mu).T @ (returns - mu) / m
        lam = vec_star(matrix_log_spd(s))
        exact = float(np.sum(stats.multivariate_normal(mean=mu, cov=s).logpdf(returns)))
        worst = max(worst, abs(volterra_log_density(lam, s, m) - exact))
    check(2, "approximate density exact at its center (abs err <= 1e-9)",
          worst <= 1e-9, t0, 30.0)


def test_criterion_03_volterra_error_order():
    t0 = time.monotonic()
    rng = np.random.default_rng(1003)
    n, m = 3, 21
    s = random_spd(rng, n)
    quad = build_Q(s, m)
    norm = 0.5 * m * n * np.log(2 * np.pi)
    coarse, fine = [], []
    for _ in range(20):
        v = rng.normal(size=quad.lambda_vec.size)
        v /= np.linalg.norm(v)
        errs = []
        for t in (0.1, 0.05):
            a = quad.lambda_vec + t * v
            exact = exact_log_target(a, s, m) - norm
            errs.append(abs(volterra_log_density(a, s, m, quad) - exact))
        coarse.append(errs[0])
        fine.append(errs[1])
    check(3, "third-order truncation: error shrinks >= 6x when step halves",
          float(np.mean(coarse)) >= 6.0 * float(np.mean(fine)), t0, 30.0)


def test_criterion_04_closed_form_oracles():
    t0 = time.monotonic()
    # dense-grid Bayes oracle on an n=2 instance
    sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
    tau, pi = 0.3, np.array([0.03, 0.06])
    views = ViewSet(np.array([[1.0, -1.0]]), np.array([0.02]), np.array([0.005]))
    post = bl_posterior(pi, tau, sigma, views)
    xs = np.linspace(-1.2, 1.2, 401)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
    prior_prec = np.linalg.inv(tau * sigma)
    d = pts - pi
    logp = -0.5 * np.einsum("ij,jk,ik->i", d, prior_prec, d)
    logp -= 0.5 * (pts @ views.p.T - views.q)[:, 0] ** 2 / views.omega_diag[0]
    w = np.exp(logp - logp.max())
    w /= w.sum()
    grid_ok = np.abs(post.mu_bar - w @ pts).max() < 1e-3

    # decomposition equals direct weights on 50 random instances
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        p = rng.normal(size=(k, n))
        while np.linalg.matrix_rank(p) < k:  # pragma: no cover
            p = rng.normal(size=(k, n))
        vs = ViewSet(p, rng.normal(size=k) * 0.05, rng.uniform(0.002, 0.05, size=k))
        inp = EquilibriumInputs(rng.uniform(1.0, 4.0), rng.normal(size=n),
                                random_spd(rng, n, jitter=0.3), rng.uniform(0.01, 0.8))
        bp = bl_posterior(equilibrium_returns(inp), inp.tau, inp.sigma, vs)
        direct = optimal_weights(bp.mu_bar, bp.sigma_bar, inp.risk_aversion)
        w_star, _ = weight_decomposition(inp, vs)
        worst = max(worst, np.linalg.norm(w_star - direct) / np.linalg.norm(direct))
    check(4, "grid-integration oracle (1e-3) and weight decomposition (1e-9)",
          grid_ok and worst < 1e-9, t0, 30.0)


def test_criterion_05_location_integral_quadrature():
    t0 = time.monotonic()
    rng = np.random.default_rng(1005)
    n = 4
    design = StructuralDesign(n, 0.7, 1.9)
    d = design.d
    g = build_G(n, design.sigma1_sq, design.sigma2_sq)
    alpha = rng.normal(size=d)
    delta = design.delta_diag

    def integrand(t2, t1):
        jt = np.concatenate([np.full(n, t1), np.full(d - n, t2)])
        diff = alpha - jt
        return np.exp(-0.5 * np.sum(diff * diff / delta))

    av, ac = alpha[:n].mean(), alpha[n:].mean()
    s1sd, s2sd = np.sqrt(design.sigma1_sq / n), np.sqrt(design.sigma2_sq / (d - n))
    val, _ = integrate.dblquad(
        integrand, av - 12 * s1sd, av + 12 * s1sd,
        lambda _: ac - 12 * s2sd, lambda _: ac + 12 * s2sd,
        epsabs=1e-14, epsrel=1e-12,
    )
    det_d = np.prod(delta)
    lhs = det_d ** -0.5 * val
    core_det = (n / design.sigma1_sq) * ((d - n) / design.sigma2_sq)
    rhs = 2 * np.pi * det_d ** -0.5 * core_det ** -0.5 * np.exp(-0.5 * alpha @ g @ alpha)
    check(5, "closed-form location integral matches 2-D quadrature (1e-6 rel)",
          abs(lhs - rhs) <= 1e-6 * abs(rhs), t0, 60.0)


def test_criterion_06_augmentation_fidelity():
    t0 = time.monotonic()
    ref = augment_to_invertible(np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]))
    expected = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    ref_ok = np.array_equal(ref, expected)

    rng = np.random.default_rng(1006)
    all_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        p = rng.normal(size=(k, n))
        while np.linalg.matrix_rank(p) < k:  # pragma: no cover
            p = rng.normal(size=(k, n))
        p_star = augment_to_invertible(p)
        all_ok &= p_star.shape == (n, n)
        all_ok &= bool(np.array_equal(p_star[:k], p))
        all_ok &= abs(np.linalg.det(p_star)) >= 1e-12
        if not all_ok:  # pragma: no cover
            break
    check(6, "reference augmentation exact; 1000 random views stay invertible",
          ref_ok and all_ok, t0, 60.0)


def test_criterion_07_gibbs_conjugacy_cross_check():
    t0 = time.monotonic()
    # (a) mean conditional long-run average vs closed form, known Sigma fixed
    rng = np.random.default_rng(1007)
    n, m = 3, 15
    sigma = random_spd(rng, n) * 0.01
    p = np.array([[1.0, -1.0, 0.0]])
    views = ViewSet(p, np.array([0.05]), np.array([2e-3]))
    rbar = rng.normal(size=n) * 0.01
    mean, cov = mu_conditional(rbar, sigma, views.q, views.omega, p, m)
    shift, precision = mu_conditional_precision(rbar, sigma, views.q, views.omega, p, m)
    stream = rng_stream(1007)
    draws = np.array([sample_mvn(shift, precision=precision, z=stream.standard_normal(n),
                                 cov_cholesky=True) for _ in range(10_000)])
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    part_a = bool(np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se))

    # (b) view-space and asset-space samplers agree on square invertible P
    gen = np.random.default_rng(1008)
    returns = gen.multivariate_normal([0.01, -0.02], random_spd(gen, 2, jitter=0.3) * 0.01, size=25)
    sq_views = ViewSet(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.02, 0.05]), [5e-3, 8e-3])
    cfg = IwConfig(nu=4, sigma0=0.02 * np.eye(2), iters=12_000, burn=1_500, seed=314)
    months = gen.normal(size=(8, 2)) * 0.01
    [sa] = gibbs_augmented(returns, [sq_views], months, cfg, [0])
    [sb] = gibbs_nonsquare(returns, [sq_views], replace(cfg, seed=2718), [0])
    comb = np.sqrt(sa.mu_se**2 + sb.mu_se**2)
    part_b = bool(np.all(np.abs(sa.mu_post - sb.mu_post) < 3 * comb))
    check(7, "mean conditional matches closed form; two samplers agree on square P",
          part_a and part_b, t0, 60.0)


def _distance_se(p, mu_post, q, mu_draw_cov):
    """Delta-method sd of |P mu - q| under the posterior spread of mu."""
    z = p @ mu_post - q
    cz = p @ mu_draw_cov @ p.T
    return float(np.sqrt(max(z @ cz @ z, 0.0)) / max(np.linalg.norm(z), 1e-300))


def test_criterion_08_view_anchoring_trend(panel):
    t0 = time.monotonic()
    views = demo.demo_views()
    rbar = panel.current.mean(axis=0)
    base_dist = float(np.linalg.norm(views.p @ rbar - views.q))
    settings = ModelSettings(iters=4000, burn=800)
    ok = True
    for model in ("iw_augmented", "iw_nonsquare", "log_sigma"):
        dists = {}
        for om in (1e-6, 1e-4, 1e-2, 1e3):
            res = run_model(model, panel, views.with_omega([om, om]), settings,
                            seed=20180108, compute_profit=False)
            dists[om] = res.distance
            if om == 1e3:
                se = _distance_se(views.p, res.summary.mu_post, views.q,
                                  res.summary.mu_draw_cov)
                vague_ok = abs(res.distance - base_dist) < 3 * se
        ordered = dists[1e-6] < dists[1e-4] < dists[1e-2]
        print(f"    {model}: " + " ".join(f"d({om:g})={dists[om]:.5f}" for om in sorted(dists))
              + f" | base {base_dist:.5f} vague_ok={vague_ok}")
        ok &= ordered and vague_ok
    check(8, "distance ordered in omega; vague views recover the sample mean",
          ok, t0, 300.0)


def test_criterion_09_determinism(tmp_path):
    t0 = time.monotonic()
    demo_dir = tmp_path / "demo"
    demo.write_demo_files(demo_dir)
    ok = True
    for model in ("original", "iw_augmented", "iw_nonsquare", "log_sigma"):
        doc = json.loads((demo_dir / f"run_{model}.json").read_text())
        doc["iters"], doc["burn"] = 400, 80
        cfg = demo_dir / f"small_{model}.json"  # stays next to prices.csv
        cfg.write_text(json.dumps(doc))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{model}_{tag}.json"
            assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]

    doc = json.loads((demo_dir / "run_iw_nonsquare.json").read_text())
    doc["iters"], doc["burn"] = 400, 80
    cfg = demo_dir / "sweep_cfg.json"
    cfg.write_text(json.dumps(doc))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"omega1": [1e-5, 1e-4], "omega2": [1e-5, 1e-4],
                                "base_seed": 77}))
    csvs = []
    for tag, workers in (("w1", "1"), ("w8", "8"), ("w1b", "1")):
        out = tmp_path / f"sweep_{tag}.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--grid", str(grid),
                         "--workers", workers, "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    ok &= csvs[0] == csvs[1] == csvs[2]

    # batch sizes: each worker runs its contiguous share of a 3x3 grid as
    # one lock-step batch, so 1, 3 and 9 workers give batches of 9, 3 and 1
    # points, and 2 and 8 workers batches of 5+4 and 2+1+...+1
    grid9 = tmp_path / "grid9.json"
    grid9.write_text(json.dumps({"omega1": [1e-5, 1e-4, 1e-3], "omega2": [1e-5, 1e-4, 1e-3],
                                 "base_seed": 78}))
    csvs9 = []
    for workers in ("1", "3", "9", "2", "8"):
        out = tmp_path / f"sweep9_w{workers}.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--grid", str(grid9),
                         "--workers", workers, "--out", str(out)]) == 0
        csvs9.append(out.read_bytes())
    ok &= len(set(csvs9)) == 1
    check(9, "reruns, worker counts 1, 2, 8 and batch sizes 1, 3, 9 give identical bytes",
          ok, t0, 120.0)


def test_criterion_10_log_sigma_sampler_health():
    t0 = time.monotonic()
    cfg_path = demo.prices_csv_path().parent / "run_log_sigma.json"
    run_cfg = RunConfig.load(cfg_path)
    panel = run_cfg.load_panel()
    cfg = LogSigmaConfig(iters=run_cfg.settings.iters, burn=run_cfg.settings.burn,
                         seed=run_cfg.seed)
    summary = gibbs_log_sigma(panel.current, run_cfg.views, cfg)
    rate_ok = 0.05 <= summary.acceptance_rate <= 1.0
    geweke_ok = summary.geweke_pass()
    print(f"    acceptance={summary.acceptance_rate:.3f} "
          f"geweke_z={np.round(summary.geweke_z, 2)}")
    check(10, "reference-config MH acceptance in [0.05, 1] and split-chain check",
          rate_ok and geweke_ok, t0, 120.0)
