//! Regenerates Fig. 2 — the extinction regime (`r0 = 0.7220 < 1`).
//!
//! * Fig. 2(a): `Dist0(t) = ‖E(t) − E0‖∞` under 10 random initial
//!   conditions, all converging to 0 (global stability of `E0`,
//!   Theorem 3).
//! * Fig. 2(b–d): `S_k(t), I_k(t), R_k(t)` for degree classes spread
//!   across the partition (the paper picks i = 1, 50, …, 800 of 848).
//!
//! Writes `results/fig2a.csv` and `results/fig2bcd.csv`.
//!
//! ```sh
//! cargo run --release -p rumor-bench --bin fig2
//! ```

use rumor_bench::{
    digg_dataset, fig2_regime, run_convergence_figure, spread_classes, ConvergenceFigure, Scale,
};
use rumor_core::equilibrium::zero_equilibrium;

fn main() {
    let dataset = digg_dataset(Scale::from_env());
    let regime = fig2_regime(&dataset);
    let (params, eps1, eps2) = (&regime.params, regime.eps1, regime.eps2);
    println!(
        "fig2: extinction regime, r0 = {:.4} < 1 on {} degree classes",
        regime.target_r0,
        params.n_classes()
    );

    let e0 = zero_equilibrium(params, eps1, eps2).expect("E0");
    let picks = spread_classes(params.n_classes(), 17);
    let traj = run_convergence_figure(&ConvergenceFigure {
        name: "fig2",
        regime: &regime,
        target: &e0,
        symbol: "0",
        column: "dist0",
        tf: 600.0,
        n_out: 121,
        seed: 0xF1620,
        table_step: 20,
        time_width: 6,
        max_final_dist: 1e-3,
        picks: &picks,
        picks_label: &format!("{} classes", picks.len()),
    });

    // Shape summary against the paper: S -> alpha/eps1, I -> 0, R -> 1 - alpha/eps1.
    let last = traj.len() - 1;
    let (s, i, r) = (traj.band(last, 0), traj.band(last, 1), traj.band(last, 2));
    let s_target = params.alpha() / eps1;
    println!(
        "terminal state vs E0 targets (paper: S -> {:.3}, I -> 0, R -> {:.3}):",
        s_target,
        1.0 - s_target
    );
    for &class in picks.iter().take(5) {
        let k = params.classes().degree(class);
        println!(
            "  k = {k:4}: S = {:.4}, I = {:.2e}, R = {:.4}",
            s[class], i[class], r[class]
        );
    }
    assert!(i.iter().all(|&x| x < 1e-3), "all classes extinguish");
}
