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

use rumor_bench::{digg_dataset, fig3_regime, random_initial_conditions, write_csv, Scale};
use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::ConstantMultiControl;
use rumor_compartments::simulate::{simulate_compartments, CompartmentSimOptions};
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
    let model = PaperSir::from_params(params, 5.0, 10.0).expect("paper model");
    let control = ConstantMultiControl::new(vec![eps1, eps2]);
    let tf = 3000.0;
    let opts = CompartmentSimOptions {
        n_out: 151,
        ..Default::default()
    };

    // --- Fig. 3(a): Dist+(t) under 10 random initial conditions.
    let initials = random_initial_conditions(params.n_classes(), 10, 0xF1630);
    let mut dist_rows: Vec<Vec<f64>> = Vec::new();
    let mut all_final = Vec::new();
    for (run, init) in initials.iter().enumerate() {
        let traj = simulate_compartments(&model, &control, &init.to_flat(), tf, &opts)
            .expect("fig3a simulation");
        let dist = traj.dist_series(&eplus.to_flat()).expect("dist series");
        if run == 0 {
            dist_rows = traj.times().iter().map(|&t| vec![t]).collect();
        }
        for (row, d) in dist_rows.iter_mut().zip(&dist) {
            row.push(*d);
        }
        all_final.push(*dist.last().expect("non-empty"));
    }
    let header = {
        let runs: Vec<String> = (1..=10).map(|i| format!("distplus_run{i}")).collect();
        format!("t,{}", runs.join(","))
    };
    let path = write_csv("fig3a.csv", &header, &dist_rows);
    println!(
        "\nfig3(a): Dist+(t) under 10 initial conditions -> {}",
        path.display()
    );
    println!("   t      min(Dist+)  max(Dist+)");
    for row in dist_rows.iter().step_by(25) {
        let (min, max) = row[1..]
            .iter()
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &d| {
                (lo.min(d), hi.max(d))
            });
        println!("{:7.1}   {:9.5}   {:9.5}", row[0], min, max);
    }
    let worst = all_final.iter().fold(0.0_f64, |m, &d| m.max(d));
    println!("all 10 runs converge to E+: max final Dist+ = {worst:.2e}");
    assert!(worst < 5e-3, "persistence must reach E+");

    // --- Fig. 3(b,c,d): the 20 lowest-degree classes, one initial condition.
    let init = model.layout().initial_uniform(0.1).expect("init");
    let traj =
        simulate_compartments(&model, &control, &init, tf, &opts).expect("fig3bcd simulation");
    let picks: Vec<usize> = (0..params.n_classes().min(20)).collect();
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
    let path = write_csv("fig3bcd.csv", &headers.join(","), &rows);
    println!(
        "\nfig3(b,c,d): S/I/R for classes 1..=20 -> {}",
        path.display()
    );

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
