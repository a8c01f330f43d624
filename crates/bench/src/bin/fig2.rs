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
    digg_dataset, fig2_regime, random_initial_conditions, spread_classes, write_csv, Scale,
};
use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::ConstantMultiControl;
use rumor_compartments::simulate::{simulate_compartments, CompartmentSimOptions};
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
    let model = PaperSir::from_params(params, 5.0, 10.0).expect("paper model");
    let control = ConstantMultiControl::new(vec![eps1, eps2]);
    let tf = 600.0;
    let opts = CompartmentSimOptions {
        n_out: 121,
        ..Default::default()
    };

    // --- Fig. 2(a): Dist0(t) under 10 random initial conditions.
    let initials = random_initial_conditions(params.n_classes(), 10, 0xF1620);
    let mut dist_rows: Vec<Vec<f64>> = Vec::new();
    let mut all_final = Vec::new();
    for (run, init) in initials.iter().enumerate() {
        let traj = simulate_compartments(&model, &control, &init.to_flat(), tf, &opts)
            .expect("fig2a simulation");
        let dist = traj.dist_series(&e0.to_flat()).expect("dist series");
        if run == 0 {
            dist_rows = traj.times().iter().map(|&t| vec![t]).collect();
        }
        for (row, d) in dist_rows.iter_mut().zip(&dist) {
            row.push(*d);
        }
        all_final.push(*dist.last().expect("non-empty"));
    }
    let header = {
        let runs: Vec<String> = (1..=10).map(|i| format!("dist0_run{i}")).collect();
        format!("t,{}", runs.join(","))
    };
    let path = write_csv("fig2a.csv", &header, &dist_rows);
    println!(
        "\nfig2(a): Dist0(t) under 10 initial conditions -> {}",
        path.display()
    );
    println!("   t     min(Dist0)  max(Dist0)");
    for row in dist_rows.iter().step_by(20) {
        let (min, max) = row[1..]
            .iter()
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &d| {
                (lo.min(d), hi.max(d))
            });
        println!("{:6.1}   {:9.5}   {:9.5}", row[0], min, max);
    }
    let worst = all_final.iter().fold(0.0_f64, |m, &d| m.max(d));
    println!("all 10 runs converge to E0: max final Dist0 = {worst:.2e}");
    assert!(worst < 1e-3, "extinction must reach E0");

    // --- Fig. 2(b,c,d): per-class S/I/R curves from one initial condition.
    let init = model.layout().initial_uniform(0.1).expect("init");
    let traj =
        simulate_compartments(&model, &control, &init, tf, &opts).expect("fig2bcd simulation");
    let picks = spread_classes(params.n_classes(), 17);
    let mut rows: Vec<Vec<f64>> = traj.times().iter().map(|&t| vec![t]).collect();
    let mut headers = vec!["t".to_string()];
    for &class in &picks {
        let k = params.classes().degree(class);
        headers.push(format!("S_k{k}"));
        headers.push(format!("I_k{k}"));
        headers.push(format!("R_k{k}"));
        for (idx, row) in rows.iter_mut().enumerate() {
            row.extend((0..3).map(|c| traj.band(idx, c)[class]));
        }
    }
    let path = write_csv("fig2bcd.csv", &headers.join(","), &rows);
    println!(
        "\nfig2(b,c,d): S/I/R for {} classes -> {}",
        picks.len(),
        path.display()
    );

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
