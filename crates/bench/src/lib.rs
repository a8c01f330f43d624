//! Shared experiment configuration for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (Section V). This library pins the parameter sets
//! — including the calibrations documented in DESIGN.md §2 — so the
//! binaries, tests and EXPERIMENTS.md all describe the same experiments.
//!
//! | entry point | experiment |
//! |---|---|
//! | `table1`   | model-parameter glossary with Digg-calibrated values |
//! | `fig2`     | extinction regime, `r0 = 0.7220 < 1` (Dist0 + S/I/R curves) |
//! | `fig3`     | persistence regime, `r0 = 2.1661 > 1` (Dist+ + S/I/R curves) |
//! | `fig4`     | optimized countermeasures (schedule, r0 decline, cost sweep) |
//! | `ablation` | heterogeneity / infectivity / solver / ABM ablations |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::ConstantMultiControl;
use rumor_compartments::simulate::{
    simulate_compartments, CompartmentSimOptions, CompartmentTrajectory,
};
use rumor_core::equilibrium::calibrate_acceptance;
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_core::state::NetworkState;
use rumor_datasets::digg::{DiggConfig, DiggDataset};
use std::io::Write;
use std::path::PathBuf;

/// Scale of the synthetic Digg network used by an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~7k nodes, degree span [1, 300] — seconds per experiment.
    Small,
    /// The full 71,367-node Digg2009-equivalent network.
    Full,
}

impl Scale {
    /// Reads the scale from the `RUMOR_SCALE` environment variable
    /// (`full` → [`Scale::Full`], anything else → [`Scale::Small`]).
    pub fn from_env() -> Self {
        match std::env::var("RUMOR_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Small,
        }
    }

    /// The dataset configuration for this scale.
    pub fn config(self) -> DiggConfig {
        match self {
            Scale::Small => DiggConfig::small(),
            Scale::Full => DiggConfig::default(),
        }
    }
}

/// Synthesizes the Digg-equivalent dataset at the given scale.
///
/// # Panics
///
/// Panics on synthesis failure (experiment configurations are static and
/// known-good; a failure is a programming error).
pub fn digg_dataset(scale: Scale) -> DiggDataset {
    DiggDataset::synthesize(scale.config()).expect("digg dataset synthesis")
}

/// A fully specified constant-control experiment regime.
#[derive(Debug, Clone)]
pub struct Regime {
    /// Calibrated model parameters.
    pub params: ModelParams,
    /// Truth-spreading rate.
    pub eps1: f64,
    /// Blocking rate.
    pub eps2: f64,
    /// The threshold the regime was calibrated to.
    pub target_r0: f64,
}

/// The Fig. 2 extinction regime: `α = 0.01, ε1 = 0.2, ε2 = 0.05`,
/// `λ(k) = λ0·k` calibrated so `r0 = 0.7220` (paper Section V-A).
///
/// # Panics
///
/// Panics on calibration failure (static configuration).
pub fn fig2_regime(dataset: &DiggDataset) -> Regime {
    calibrated_regime(dataset, 0.01, 0.2, 0.05, 0.7220)
}

/// The Fig. 3 persistence regime: `α = 0.002, ε1 = 0.002`, calibrated so
/// `r0 = 2.1661`.
///
/// The paper prints `ε2 = 0.0001`, but `α/ε2 = 20` forces
/// `I⁺ = 20·(1 − S⁺)` per class — outside the density simplex for *any*
/// acceptance rate, and inconsistent with the paper's own Fig. 3
/// (`I ≤ 0.45`). We use `ε2 = 0.004`, which admits a valid endemic
/// equilibrium while preserving the printed threshold (DESIGN.md §2).
///
/// # Panics
///
/// Panics on calibration failure (static configuration).
pub fn fig3_regime(dataset: &DiggDataset) -> Regime {
    calibrated_regime(dataset, 0.002, 0.002, 0.004, 2.1661)
}

/// The constant-control regime `(α, ε1, ε2)` with `λ(k) = λ0·k`
/// calibrated so the threshold is `target_r0`.
fn calibrated_regime(
    dataset: &DiggDataset,
    alpha: f64,
    eps1: f64,
    eps2: f64,
    target_r0: f64,
) -> Regime {
    let base = ModelParams::builder(dataset.classes().clone())
        .alpha(alpha)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 1.0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("regime base params");
    let (params, _) =
        calibrate_acceptance(&base, target_r0, eps1, eps2).expect("regime calibration");
    Regime {
        params,
        eps1,
        eps2,
        target_r0,
    }
}

/// A constant-control convergence figure (Figs. 2 and 3): panel (a)
/// runs 10 random initial conditions and tracks their distance to the
/// equilibrium `target`; panels (b–d) export the per-class S/I/R curves
/// of one uniform start.
pub struct ConvergenceFigure<'a> {
    /// Figure name: the CSVs are `results/<name>a.csv` and
    /// `results/<name>bcd.csv`.
    pub name: &'static str,
    /// The calibrated regime.
    pub regime: &'a Regime,
    /// The equilibrium every run converges to.
    pub target: &'a NetworkState,
    /// The equilibrium's symbol in the printout (`0` for `E0`, `+` for
    /// `E+`).
    pub symbol: &'static str,
    /// Column prefix of the distance CSV.
    pub column: &'static str,
    /// Horizon.
    pub tf: f64,
    /// Output samples over `[0, tf]`.
    pub n_out: usize,
    /// Seed of the random initial conditions.
    pub seed: u64,
    /// Every `table_step`-th sample goes into the printed min/max table.
    pub table_step: usize,
    /// Width of the printed time column.
    pub time_width: usize,
    /// Bound every run's final distance must fall below.
    pub max_final_dist: f64,
    /// Classes whose S/I/R curves are exported.
    pub picks: &'a [usize],
    /// How the printout names the picked classes.
    pub picks_label: &'a str,
}

/// Runs a [`ConvergenceFigure`]: writes both CSVs, prints the min/max
/// distance table, asserts the final distance and returns the
/// trajectory of the uniform start for the figure's shape summary.
///
/// # Panics
///
/// Panics on a failed simulation or CSV write, or if a run ends farther
/// than `max_final_dist` from the target.
pub fn run_convergence_figure(fig: &ConvergenceFigure<'_>) -> CompartmentTrajectory {
    let params = &fig.regime.params;
    let model = PaperSir::from_params(params, 5.0, 10.0).expect("paper model");
    let control = ConstantMultiControl::new(vec![fig.regime.eps1, fig.regime.eps2]);
    let opts = CompartmentSimOptions {
        n_out: fig.n_out,
        ..Default::default()
    };
    let (name, symbol) = (fig.name, fig.symbol);

    // Panel (a): the distance to the target under 10 initial conditions.
    let initials = random_initial_conditions(params.n_classes(), 10, fig.seed);
    let mut dist_rows: Vec<Vec<f64>> = Vec::new();
    let mut all_final = Vec::new();
    for (run, init) in initials.iter().enumerate() {
        let traj = simulate_compartments(&model, &control, &init.to_flat(), fig.tf, &opts)
            .expect("panel (a) simulation");
        let dist = traj
            .dist_series(&fig.target.to_flat())
            .expect("dist series");
        if run == 0 {
            dist_rows = traj.times().iter().map(|&t| vec![t]).collect();
        }
        for (row, d) in dist_rows.iter_mut().zip(&dist) {
            row.push(*d);
        }
        all_final.push(*dist.last().expect("non-empty"));
    }
    let header = {
        let runs: Vec<String> = (1..=10).map(|i| format!("{}_run{i}", fig.column)).collect();
        format!("t,{}", runs.join(","))
    };
    let path = write_csv(&format!("{name}a.csv"), &header, &dist_rows);
    println!(
        "\n{name}(a): Dist{symbol}(t) under 10 initial conditions -> {}",
        path.display()
    );
    println!(
        "{:<width$}   min(Dist{symbol})  max(Dist{symbol})",
        "   t",
        width = fig.time_width
    );
    for row in dist_rows.iter().step_by(fig.table_step) {
        let (min, max) = row[1..]
            .iter()
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &d| {
                (lo.min(d), hi.max(d))
            });
        println!(
            "{:width$.1}   {:9.5}   {:9.5}",
            row[0],
            min,
            max,
            width = fig.time_width
        );
    }
    let worst = all_final.iter().fold(0.0_f64, |m, &d| m.max(d));
    println!("all 10 runs converge to E{symbol}: max final Dist{symbol} = {worst:.2e}");
    assert!(
        worst < fig.max_final_dist,
        "{name}: every run must reach E{symbol}"
    );

    // Panels (b, c, d): per-class S/I/R curves from one initial condition.
    let init = model.layout().initial_uniform(0.1).expect("init");
    let traj = simulate_compartments(&model, &control, &init, fig.tf, &opts)
        .expect("panels (b-d) simulation");
    let mut rows: Vec<Vec<f64>> = traj.times().iter().map(|&t| vec![t]).collect();
    let mut headers = vec!["t".to_string()];
    for &class in fig.picks {
        let k = params.classes().degree(class);
        headers.push(format!("S_k{k}"));
        headers.push(format!("I_k{k}"));
        headers.push(format!("R_k{k}"));
        for (idx, row) in rows.iter_mut().enumerate() {
            row.extend((0..3).map(|c| traj.band(idx, c)[class]));
        }
    }
    let path = write_csv(&format!("{name}bcd.csv"), &headers.join(","), &rows);
    println!(
        "\n{name}(b,c,d): S/I/R for {} -> {}",
        fig.picks_label,
        path.display()
    );
    traj
}

/// The Fig. 4 optimal-control setting: an aggressive supercritical rumor
/// (`α = 0.01, λ(k) = 0.15·k`) with box bounds `ε ≤ 0.7` and the paper's
/// unit costs `c1 = 5, c2 = 10`.
///
/// # Panics
///
/// Panics on parameter-construction failure (static configuration).
pub fn fig4_params(dataset: &DiggDataset) -> ModelParams {
    ModelParams::builder(dataset.classes().clone())
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.15 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("fig4 params")
}

/// The paper's 10 random initial conditions: per-class infected
/// fractions drawn uniformly from `(0, 0.5]`, `S = 1 − I`, `R = 0`,
/// deterministic given the experiment seed.
pub fn random_initial_conditions(n_classes: usize, count: usize, seed: u64) -> Vec<NetworkState> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let i: Vec<f64> = (0..n_classes).map(|_| rng.gen_range(0.005..0.5)).collect();
            NetworkState::initial_from_infected(i).expect("valid initial condition")
        })
        .collect()
}

/// Writes a CSV file under `results/`, creating the directory on demand.
///
/// # Panics
///
/// Panics on I/O failure (the harness treats an unwritable results
/// directory as fatal).
pub fn write_csv(name: &str, header: &str, rows: &[Vec<f64>]) -> PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.8}")).collect();
        writeln!(f, "{}", line.join(",")).expect("write row");
    }
    path
}

/// The `results/` directory at the workspace root (or the current
/// directory when run elsewhere).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|root| root.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Selects `count` class indices spread evenly across `n` classes —
/// the harness analogue of the paper's "i = 1, 50, 100, …, 800" picks.
pub fn spread_classes(n: usize, count: usize) -> Vec<usize> {
    if count == 0 || n == 0 {
        return Vec::new();
    }
    if count >= n {
        return (0..n).collect();
    }
    (0..count)
        .map(|j| j * (n - 1) / (count - 1).max(1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::equilibrium::r0;

    #[test]
    fn regimes_hit_their_thresholds() {
        let ds = digg_dataset(Scale::Small);
        let f2 = fig2_regime(&ds);
        assert!((r0(&f2.params, f2.eps1, f2.eps2).unwrap() - 0.7220).abs() < 1e-9);
        let f3 = fig3_regime(&ds);
        assert!((r0(&f3.params, f3.eps1, f3.eps2).unwrap() - 2.1661).abs() < 1e-9);
    }

    #[test]
    fn initial_conditions_are_deterministic_and_valid() {
        let a = random_initial_conditions(5, 10, 99);
        let b = random_initial_conditions(5, 10, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        for st in &a {
            assert_eq!(st.n_classes(), 5);
            assert!(st.i().iter().all(|&x| x > 0.0 && x <= 0.5));
            assert!(st.r().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn spread_classes_covers_range() {
        assert_eq!(spread_classes(848, 2), vec![0, 847]);
        let picks = spread_classes(848, 17);
        assert_eq!(picks.len(), 17);
        assert_eq!(picks[0], 0);
        assert_eq!(*picks.last().unwrap(), 847);
        assert!(picks.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(spread_classes(3, 10), vec![0, 1, 2]);
        assert!(spread_classes(0, 5).is_empty());
        assert!(spread_classes(5, 0).is_empty());
    }

    #[test]
    fn scale_from_env_defaults_small() {
        // Without the env var set, default is Small.
        assert_eq!(Scale::from_env(), Scale::Small);
        assert_eq!(Scale::Small.config().nodes, 7_000);
        assert_eq!(Scale::Full.config().nodes, 71_367);
    }
}
