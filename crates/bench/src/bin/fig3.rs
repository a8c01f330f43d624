//! Regenerates Fig. 3 — the persistence regime (`r0 = 2.1661 > 1`).
//!
//! * Fig. 3(a): `Dist+(t) = ‖E(t) − E+‖∞` under 10 random initial
//!   conditions, all converging to 0 (global stability of `E+`,
//!   Theorem 4).
//! * Fig. 3(b–d): `S_k(t), I_k(t), R_k(t)` for the 20 lowest-degree
//!   classes (the paper plots i = 1, 2, …, 20).
//!
//! Writes `results/fig3a.csv` and `results/fig3bcd.csv`.
//!
//! ```sh
//! cargo run --release -p rumor-bench --bin fig3
//! ```

use rumor_bench::{digg_dataset, fig3_regime, run_convergence_figure, ConvergenceFigure, Scale};
use rumor_core::equilibrium::positive_equilibrium;

fn main() {
    let dataset = digg_dataset(Scale::from_env());
    let regime = fig3_regime(&dataset);
    let (params, eps1, eps2) = (&regime.params, regime.eps1, regime.eps2);
    println!(
        "fig3: persistence regime, r0 = {:.4} > 1 on {} degree classes",
        regime.target_r0,
        params.n_classes()
    );

    let eplus = positive_equilibrium(params, eps1, eps2).expect("E+");
    println!(
        "endemic equilibrium: mean I+ per class = {:.4} (paper Fig. 3c: ~0.1-0.45)",
        eplus.total_infected() / params.n_classes() as f64
    );
    let picks: Vec<usize> = (0..params.n_classes().min(20)).collect();
    let traj = run_convergence_figure(&ConvergenceFigure {
        name: "fig3",
        regime: &regime,
        target: &eplus,
        symbol: "+",
        column: "distplus",
        tf: 3000.0,
        n_out: 151,
        seed: 0xF1630,
        table_step: 25,
        time_width: 7,
        max_final_dist: 5e-3,
        picks: &picks,
        picks_label: "classes 1..=20",
    });

    // Shape summary: infection persists and matches E+ per class.
    let last = traj.len() - 1;
    let (s, i) = (traj.band(last, 0), traj.band(last, 1));
    println!("terminal state vs endemic equilibrium (first 5 classes):");
    for &class in picks.iter().take(5) {
        let k = params.classes().degree(class);
        println!(
            "  k = {k:3}: I(tf) = {:.4} vs I+ = {:.4}; S(tf) = {:.4} vs S+ = {:.4}",
            i[class],
            eplus.i()[class],
            s[class],
            eplus.s()[class]
        );
    }
    assert!(
        i.iter().sum::<f64>() > 0.5,
        "the rumor must persist at a stable endemic level"
    );
}
