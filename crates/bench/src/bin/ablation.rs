//! Ablation experiments beyond the paper's figures (DESIGN.md §4):
//!
//! 1. **Heterogeneity** — degree-resolved vs degree-blind (homogeneous)
//!    SIR predictions on the same aggregate scenario.
//! 2. **Infectivity family** — constant vs linear vs saturating `ω(k)`,
//!    the design choice the paper argues for in Section III.
//! 3. **ODE solver** — accuracy/steps of Euler, Heun, RK4 and DOPRI5 on
//!    the rumor system.
//! 4. **Mean field vs agent-based** — maximum deviation of the ODE from
//!    ensembles of the microscopic process.
//! 5. **Budget allocation** — uniform vs hub-only vs `r0`-optimal
//!    per-class countermeasures at equal population budget.
//! 6. **Exact vs printed adjoint** — the forward–backward sweep with the
//!    exact network-coupled adjoint of [`PaperSir`] and with the paper's
//!    Eq. (16) as printed ([`PaperDiagonal`]).
//!
//! Writes `results/ablation_*.csv`.
//!
//! ```sh
//! cargo run --release -p rumor-bench --bin ablation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_bench::write_csv;
use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::ConstantMultiControl;
use rumor_compartments::simulate::{simulate_compartments, CompartmentSimOptions};
use rumor_control::multi::{
    optimize_compartments, MultiControlBounds, MultiFbsmOptions, MultiSweepResult,
};
use rumor_core::control::ConstantControl;
use rumor_core::equilibrium::r0;
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::model::RumorModel;
use rumor_core::params::ModelParams;
use rumor_core::state::NetworkState;
use rumor_models::homogeneous::HomogeneousSir;
use rumor_net::degree::DegreeClasses;
use rumor_net::generators::barabasi_albert;
use rumor_ode::integrator::{Adaptive, FixedStep};
use rumor_ode::steppers::{Euler, Heun, Rk4, Stepper};
use rumor_par::InnerPool;
use rumor_sim::abm::AbmConfig;
use rumor_sim::ensemble::{max_deviation, mean_field_reference, run_ensemble, Simulator};

fn scale_free_classes(n: usize, seed: u64) -> (rumor_net::graph::Graph, DegreeClasses) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = barabasi_albert(n, 3, &mut rng).expect("ba graph");
    let c = DegreeClasses::from_graph(&g).expect("classes");
    (g, c)
}

fn params_with(classes: DegreeClasses, lambda0: f64, infectivity: Infectivity) -> ModelParams {
    ModelParams::builder(classes)
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
        .infectivity(infectivity)
        .build()
        .expect("params")
}

/// Mean infected density per class at `t = 120` from 10% initially
/// infected in every class, under constant countermeasures.
fn final_mean_infected(p: &ModelParams, eps1: f64, eps2: f64) -> f64 {
    let model = PaperSir::from_params(p, 5.0, 10.0).expect("paper model");
    let traj = simulate_compartments(
        &model,
        ConstantMultiControl::new(vec![eps1, eps2]),
        &model.layout().initial_uniform(0.1).expect("init"),
        120.0,
        &CompartmentSimOptions::default(),
    )
    .expect("simulation");
    traj.total_series(1).last().expect("non-empty") / p.n_classes() as f64
}

fn main() {
    heterogeneity_ablation();
    infectivity_ablation();
    solver_ablation();
    abm_ablation();
    allocation_ablation();
    adjoint_ablation();
}

/// Heterogeneous vs homogeneous predictions across spreading strengths.
fn heterogeneity_ablation() {
    println!("=== ablation 1: network heterogeneity ===");
    let (_, classes) = scale_free_classes(3_000, 41);
    let (eps1, eps2) = (0.05, 0.05);
    println!(
        "{:>9}  {:>8}  {:>12}  {:>12}",
        "lambda0", "r0", "het final I", "hom final I"
    );
    let mut rows = Vec::new();
    for lambda0 in [0.002, 0.005, 0.01, 0.02, 0.05] {
        let het = params_with(classes.clone(), lambda0, Infectivity::paper_default());
        let het_final = final_mean_infected(&het, eps1, eps2);

        // Homogeneous surrogate with the matched coupling strength.
        let beta = het.lambda_phi_sum() / het.mean_degree();
        let hom = HomogeneousSir::new(het.alpha(), beta, ConstantControl::new(eps1, eps2));
        let sol = Adaptive::new()
            .integrate(&hom, 0.0, &[0.9, 0.1, 0.0], 120.0)
            .expect("hom simulation");
        let hom_final = sol.last_state()[1];

        let threshold = r0(&het, eps1, eps2).expect("r0");
        println!("{lambda0:>9}  {threshold:>8.3}  {het_final:>12.5}  {hom_final:>12.5}");
        rows.push(vec![lambda0, threshold, het_final, hom_final]);
    }
    let path = write_csv(
        "ablation_heterogeneity.csv",
        "lambda0,r0,het_final_i,hom_final_i",
        &rows,
    );
    println!("-> {}\n", path.display());
}

/// Infectivity families: how ω(k) shapes the threshold and the outcome.
fn infectivity_ablation() {
    println!("=== ablation 2: infectivity family omega(k) ===");
    let (_, classes) = scale_free_classes(3_000, 42);
    let (eps1, eps2) = (0.05, 0.05);
    let families: Vec<(&str, Infectivity)> = vec![
        ("constant(1)", Infectivity::Constant { c: 1.0 }),
        ("linear k", Infectivity::Linear),
        ("saturating", Infectivity::paper_default()),
    ];
    println!("{:>12}  {:>10}  {:>12}", "omega(k)", "r0", "final I");
    let mut rows = Vec::new();
    for (idx, (name, fam)) in families.into_iter().enumerate() {
        let p = params_with(classes.clone(), 0.01, fam);
        let final_i = final_mean_infected(&p, eps1, eps2);
        let threshold = r0(&p, eps1, eps2).expect("r0");
        println!("{name:>12}  {threshold:>10.3}  {final_i:>12.5}");
        rows.push(vec![idx as f64, threshold, final_i]);
    }
    let path = write_csv("ablation_infectivity.csv", "family_idx,r0,final_i", &rows);
    println!("(linear omega inflates hub infectivity; the saturating form bounds it)");
    println!("-> {}\n", path.display());
}

/// Fixed-step solver accuracy on the rumor system vs a tight reference.
fn solver_ablation() {
    println!("=== ablation 3: ODE solvers on the rumor system ===");
    let (_, classes) = scale_free_classes(800, 43);
    let p = params_with(classes, 0.02, Infectivity::paper_default());
    let model = RumorModel::new(&p, ConstantControl::new(0.05, 0.05));
    let y0 = NetworkState::initial_uniform(p.n_classes(), 0.1)
        .expect("init")
        .to_flat();
    let tf = 30.0;
    // Reference: tight adaptive run.
    let reference = Adaptive::with_config(rumor_ode::integrator::AdaptiveConfig {
        rtol: 1e-12,
        atol: 1e-13,
        ..Default::default()
    })
    .integrate(&model, 0.0, &y0, tf)
    .expect("reference");
    let y_ref = reference.last_state().to_vec();
    let err_of = |y: &[f64]| -> f64 {
        y.iter()
            .zip(&y_ref)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    };

    println!("{:>16}  {:>8}  {:>12}", "method", "steps", "max error");
    let mut rows = Vec::new();
    let h = 0.05;
    let steppers: Vec<(&str, Box<dyn Stepper>)> = vec![
        ("euler h=0.05", Box::new(Euler::new())),
        ("heun h=0.05", Box::new(Heun::new())),
        ("rk4 h=0.05", Box::new(Rk4::new())),
    ];
    for (idx, (name, mut stepper)) in steppers.into_iter().enumerate() {
        let mut y = y0.clone();
        let mut out = vec![0.0; y.len()];
        let n_steps = (tf / h) as usize;
        for k in 0..n_steps {
            stepper.step(&model, k as f64 * h, &y, h, &mut out);
            y.copy_from_slice(&out);
        }
        let err = err_of(&y);
        println!("{name:>16}  {n_steps:>8}  {err:>12.3e}");
        rows.push(vec![idx as f64, n_steps as f64, err]);
    }
    // Adaptive DOPRI5 at default tolerance.
    let mut drv = Adaptive::new();
    let run = drv.run(&model, 0.0, &y0, tf, None).expect("dopri5");
    let err = err_of(run.solution.last_state());
    println!(
        "{:>16}  {:>8}  {err:>12.3e}",
        "dopri5 adaptive", run.accepted
    );
    rows.push(vec![3.0, run.accepted as f64, err]);
    let path = write_csv("ablation_solvers.csv", "method_idx,steps,max_error", &rows);
    println!("-> {}\n", path.display());
    let _ = FixedStep::new(Rk4::new(), h); // silence unused-import pedantry paths
}

/// Mean-field deviation from the microscopic process.
fn abm_ablation() {
    println!("=== ablation 4: mean field vs agent-based process ===");
    let (g, classes) = scale_free_classes(2_000, 44);
    let p = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 1.0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params");
    let cfg = AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 50.0,
        eps1: 0.01,
        eps2: 0.12,
        initial_infected: 0.05,
        record_every: 50,
    };
    println!("{:>14}  {:>10}  {:>10}", "simulator", "max dev", "tail dev");
    let mut rows = Vec::new();
    for (idx, sim) in [Simulator::Synchronous, Simulator::Gillespie]
        .iter()
        .enumerate()
    {
        let ens = run_ensemble(&g, &p, &cfg, *sim, 8, 17, None).expect("ensemble");
        let mf = mean_field_reference(&p, &cfg, &ens.times).expect("mean field");
        let dev = max_deviation(&ens, &mf).expect("deviation");
        let tail = (ens.i_mean.last().expect("tail") - mf.last().expect("tail")).abs();
        let name = match sim {
            Simulator::Synchronous => "synchronous",
            Simulator::Gillespie => "gillespie",
        };
        println!("{name:>14}  {dev:>10.4}  {tail:>10.4}");
        rows.push(vec![idx as f64, dev, tail]);
    }
    let path = write_csv(
        "ablation_abm.csv",
        "simulator_idx,max_deviation,tail_deviation",
        &rows,
    );
    println!("-> {}", path.display());
}

/// Countermeasure allocation across degree classes at equal population
/// budget: uniform vs hub-only boost vs the r0-optimal Lagrange profile
/// `ε_i ∝ (C_i/P_i)^(1/3)`.
fn allocation_ablation() {
    use rumor_core::targeted::{targeted_r0, ClassRates, TargetedModel};
    println!("\n=== ablation 5: budget allocation across degree classes ===");
    let (_, classes) = scale_free_classes(3_000, 45);
    let p = params_with(classes, 0.02, Infectivity::paper_default());
    let budget = 0.1;
    let policies: Vec<(&str, ClassRates)> = vec![
        (
            "uniform",
            ClassRates::uniform(p.n_classes(), budget, budget).expect("uniform"),
        ),
        (
            "hub-only",
            ClassRates::hub_targeted(p.classes(), (0.02, 0.02), (0.08, 0.08), 0.2).expect("hub"),
        ),
        (
            "r0-optimal",
            ClassRates::r0_optimal(&p, budget, budget).expect("optimal"),
        ),
    ];
    println!("{:>12}  {:>10}  {:>14}", "policy", "r0", "final I (pop)");
    let mut rows = Vec::new();
    let y0 = NetworkState::initial_uniform(p.n_classes(), 0.1)
        .expect("init")
        .to_flat();
    for (idx, (name, rates)) in policies.into_iter().enumerate() {
        let threshold = targeted_r0(&p, &rates).expect("targeted r0");
        let model = TargetedModel::new(&p, rates).expect("model");
        let sol = Adaptive::new()
            .integrate(&model, 0.0, &y0, 120.0)
            .expect("integrate");
        let st = NetworkState::from_flat(sol.last_state()).expect("state");
        let final_i: f64 = st
            .i()
            .iter()
            .zip(p.classes().probabilities())
            .map(|(i, pr)| i * pr)
            .sum();
        println!("{name:>12}  {threshold:>10.4}  {final_i:>14.6}");
        rows.push(vec![idx as f64, threshold, final_i]);
    }
    let path = write_csv(
        "ablation_allocation.csv",
        "policy_idx,r0,final_i_pop",
        &rows,
    );
    println!("(hub-only starving the periphery backfires: its r0 is ~10x worse; the");
    println!(" smooth optimal profile minimizes r0 at equal budget)");
    println!("-> {}", path.display());
}

/// The paper's Eq. (16) as printed: the `φ̇` coupling keeps only the
/// diagonal term of the network sum,
///
/// ```text
/// dφ_j/dt = −2 c2 ε2² I_j + (ϕ_j/⟨k⟩) (ψ_j − φ_j) λ_j S_j + φ_j ε2
/// ```
///
/// instead of the exact `(ϕ_j/⟨k⟩) Σ_i (ψ_i − φ_i) λ_i S_i` of
/// [`PaperSir`]. Everything but the adjoint is the paper model's own.
/// Not a gradient of the Hamiltonian; it exists for ablation 6 only.
struct PaperDiagonal(PaperSir);

impl CompartmentModel for PaperDiagonal {
    fn n_classes(&self) -> usize {
        self.0.n_classes()
    }

    fn n_compartments(&self) -> usize {
        self.0.n_compartments()
    }

    fn n_controls(&self) -> usize {
        self.0.n_controls()
    }

    fn n_costates(&self) -> usize {
        self.0.n_costates()
    }

    fn compartment_names(&self) -> &'static [&'static str] {
        self.0.compartment_names()
    }

    fn control_names(&self) -> &'static [&'static str] {
        self.0.control_names()
    }

    fn rhs(&self, y: &[f64], u: &[f64], pool: Option<&InnerPool>, dydt: &mut [f64]) {
        self.0.rhs(y, u, pool, dydt)
    }

    fn adjoint_rhs(
        &self,
        state: &[f64],
        p: &[f64],
        u: &[f64],
        pool: Option<&InnerPool>,
        dpdt: &mut [f64],
    ) {
        let n = self.0.n_classes();
        let lambda = self.0.lambda();
        let theta_w = self.0.theta_weights();
        let (c1, c2) = self.0.cost_weights();
        let (eps1, eps2) = (u[0], u[1]);
        let (s, i) = (&state[..n], &state[n..2 * n]);
        // Θ through the same partitioned reduction as the exact adjoint.
        let theta = self.0.theta_flat(state, pool);
        let (psi, phi) = p.split_at(n);
        let (dpsi, dphi) = dpdt.split_at_mut(n);
        let c1e1sq2 = 2.0 * c1 * eps1 * eps1;
        let c2e2sq2 = 2.0 * c2 * eps2 * eps2;
        for j in 0..n {
            dpsi[j] =
                -c1e1sq2 * s[j] + psi[j] * (lambda[j] * theta + eps1) - phi[j] * lambda[j] * theta;
            let coupling_j = (psi[j] - phi[j]) * lambda[j] * s[j];
            dphi[j] = -c2e2sq2 * i[j] + theta_w[j] * coupling_j + phi[j] * eps2;
        }
    }

    fn terminal_condition(&self, weight: f64, out: &mut [f64]) {
        self.0.terminal_condition(weight, out)
    }

    fn stationary_controls(&self, state: &[f64], p: &[f64], out: &mut [f64]) {
        self.0.stationary_controls(state, p, out)
    }

    fn running_cost(&self, state: &[f64], u: &[f64], out: &mut [f64]) {
        self.0.running_cost(state, u, out)
    }

    fn terminal_objective(&self, state: &[f64]) -> f64 {
        self.0.terminal_objective(state)
    }
}

/// The ablation-6 instance: a 1,200-node scale-free net, an aggressive
/// rumor (`λ0 = 0.15`), `ε ≤ 0.7`, `tf = 60`, `c = (5, 10)`.
fn adjoint_setup() -> (PaperSir, Vec<f64>) {
    let (_, classes) = scale_free_classes(1_200, 46);
    let p = params_with(classes, 0.15, Infectivity::paper_default());
    let model = PaperSir::from_params(&p, 5.0, 10.0).expect("paper model");
    let y0 = NetworkState::initial_uniform(p.n_classes(), 0.05)
        .expect("init")
        .to_flat();
    (model, y0)
}

/// Runs the ablation-6 sweep on `model`.
fn adjoint_sweep<M: CompartmentModel>(model: &M, y0: &[f64]) -> MultiSweepResult {
    optimize_compartments(
        model,
        y0,
        60.0,
        &MultiControlBounds::new(vec![0.7, 0.7]).expect("bounds"),
        &MultiFbsmOptions {
            n_nodes: 61,
            max_iterations: 250,
            tolerance: 1e-4,
            relaxation: 0.3,
            ..Default::default()
        },
    )
    .expect("sweep")
}

/// Exact vs paper-printed (diagonal) adjoint in the forward-backward
/// sweep: schedules and objective values.
fn adjoint_ablation() {
    println!("\n=== ablation 6: exact vs paper-printed adjoint in the FBSM ===");
    let (exact, y0) = adjoint_setup();
    let diagonal = PaperDiagonal(exact.clone());
    println!(
        "{:>16}  {:>8}  {:>10}  {:>10}",
        "adjoint", "iters", "J", "terminal I"
    );
    let mut rows = Vec::new();
    for (idx, (name, result)) in [
        ("exact", adjoint_sweep(&exact, &y0)),
        ("paper-diagonal", adjoint_sweep(&diagonal, &y0)),
    ]
    .into_iter()
    .enumerate()
    {
        let terminal = result.cost.terminal;
        println!(
            "{name:>16}  {:>8}  {:>10.4}  {:>10.4}",
            result.iterations,
            result.cost.total(),
            terminal
        );
        rows.push(vec![idx as f64, result.cost.total(), terminal]);
    }
    let path = write_csv(
        "ablation_adjoint.csv",
        "variant_idx,objective,terminal_i",
        &rows,
    );
    println!("(both variants land at comparable objectives on this instance; the exact");
    println!(" adjoint is the true Hamiltonian gradient, the diagonal one drops the");
    println!(" cross-class feedback and steers to a different schedule)");
    println!("-> {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_compartments::model::{CompartmentAdjoint, CompartmentOde};
    use rumor_compartments::schedule::ConstantMultiControl;
    use rumor_ode::system::OdeSystem;

    /// Final costate `p(0)` of the exact and diagonal adjoints, each
    /// integrated backward over the same forward trajectory.
    fn costates_at_zero(model: PaperSir, tf: f64) -> (Vec<f64>, Vec<f64>) {
        let n = model.n_classes();
        let control = ConstantMultiControl::new(vec![0.1, 0.1]);
        let mut y0 = vec![0.0; 3 * n];
        for j in 0..n {
            y0[j] = 0.9;
            y0[n + j] = 0.1;
        }
        let forward = Adaptive::new()
            .integrate(&CompartmentOde::new(&model, &control), 0.0, &y0, tf)
            .unwrap();
        let diagonal = PaperDiagonal(model.clone());
        let exact = CompartmentAdjoint::new(&model, &forward, &control);
        let printed = CompartmentAdjoint::new(&diagonal, &forward, &control);
        let term = exact.weighted_terminal_condition(1.0);
        assert_eq!(term, printed.weighted_terminal_condition(1.0));
        let back = |sys: &dyn OdeSystem| {
            Adaptive::new()
                .integrate(sys, tf, &term, 0.0)
                .unwrap()
                .last_state()
                .to_vec()
        };
        (back(&exact), back(&printed))
    }

    #[test]
    fn diagonal_adjoint_differs_from_exact_on_multi_class_systems() {
        let model = PaperSir::from_parts(
            vec![0.05, 0.1, 0.1, 0.15],
            vec![0.12, 0.2, 0.2, 0.27],
            0.01,
            5.0,
            10.0,
        )
        .unwrap();
        let (exact, printed) = costates_at_zero(model, 8.0);
        // More than one class: the couplings differ, so the adjoint
        // trajectories must diverge somewhere.
        let d = exact
            .iter()
            .zip(&printed)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(d > 1e-9, "variants should differ, max diff {d}");
    }

    #[test]
    fn diagonal_adjoint_coincides_with_exact_for_a_single_class() {
        // One degree class: the Σ_i coupling has a single term, so the
        // printed equation and the exact gradient agree.
        let model = PaperSir::from_parts(vec![0.4], vec![1.0], 0.01, 5.0, 10.0).unwrap();
        let (exact, printed) = costates_at_zero(model, 5.0);
        for (a, b) in exact.iter().zip(&printed) {
            assert!((a - b).abs() < 1e-9, "single-class variants must agree");
        }
    }

    fn fnv1a(values: &[f64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The ablation-6 diagonal sweep, frozen as FNV-1a digests of its
    /// `f64` bits when the diagonal variant moved here from the control
    /// crate's costate system.
    #[test]
    // ~1 s in release, far longer unoptimized; CI runs it through the
    // release rumor-bench test step.
    #[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
    fn diagonal_sweep_is_frozen() {
        let (exact, y0) = adjoint_setup();
        assert_eq!(exact.n_classes(), 39);
        let r = adjoint_sweep(&PaperDiagonal(exact), &y0);
        assert_eq!(
            (r.iterations, r.converged, r.relaxation_backoffs),
            (250, false, 99)
        );
        assert!(!r.restored_checkpoint);
        assert_eq!(r.final_relaxation.to_bits(), 0x3f947ae147ae147b);
        assert_eq!(fnv1a(&r.change_history), 0x302b68234f70a5fc);
        assert_eq!(fnv1a(&r.cost_history), 0xf6d474f9632f838d);
        assert_eq!(fnv1a(r.control.values(0)), 0x9ab4336c7d981d2f);
        assert_eq!(fnv1a(r.control.values(1)), 0x57149badd8a412da);
        assert_eq!(r.cost.total().to_bits(), 0x401b2f3087017c01);
        let parts = [
            r.cost.terminal,
            r.cost.channel_costs[0],
            r.cost.channel_costs[1],
        ];
        assert_eq!(fnv1a(&parts), 0x350350eb8f835f59);
    }
}
