//! Property-based tests of the control-layer invariants.

use proptest::prelude::*;
use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::MultiControlSchedule;
use rumor_compartments::simulate::{simulate_compartments, CompartmentSimOptions};
use rumor_control::multi::{evaluate_compartments, MultiPiecewiseControl};
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_core::state::NetworkState;
use rumor_net::degree::DegreeClasses;

fn params() -> ModelParams {
    let classes = DegreeClasses::from_degrees(&[1, 1, 2, 2, 3, 6]).unwrap();
    ModelParams::builder(classes)
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.05 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap()
}

/// A paper model over `n` classes whose dynamics play no part (only the
/// cost and stationarity formulas are exercised).
fn paper_model(n: usize, c1: f64, c2: f64) -> PaperSir {
    PaperSir::from_parts(vec![0.1; n], vec![0.2; n], 0.0, c1, c2).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn piecewise_control_stays_within_node_range(
        e1 in proptest::collection::vec(0.0..0.7_f64, 2..20),
        q in 0.0..1.0_f64,
    ) {
        let n = e1.len();
        let grid: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let hi = grid[n - 1];
        let e2: Vec<f64> = e1.iter().map(|v| 0.7 - v).collect();
        let pc = MultiPiecewiseControl::from_values(grid, vec![e1.clone(), e2]).unwrap();
        let t = q * hi;
        let lo = e1.iter().cloned().fold(f64::INFINITY, f64::min);
        let up = e1.iter().cloned().fold(0.0_f64, f64::max);
        let mut u = [0.0; 2];
        pc.eval_into(t, &mut u);
        prop_assert!(u[0] >= lo - 1e-12 && u[0] <= up + 1e-12);
        // Channel 2 mirrors channel 1 around 0.35 at the nodes, so its
        // interpolant stays within [0, 0.7] too.
        prop_assert!((0.0..=0.7 + 1e-12).contains(&u[1]));
    }

    #[test]
    fn clamping_enforces_bounds(
        e1 in proptest::collection::vec(0.0..3.0_f64, 2..15),
        cap in 0.05..1.0_f64,
    ) {
        let n = e1.len();
        let grid: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut pc = MultiPiecewiseControl::from_values(grid, vec![e1.clone(), e1]).unwrap();
        pc.clamp_to(&[cap, cap / 2.0]);
        prop_assert!(pc.values(0).iter().all(|&v| v <= cap + 1e-15));
        prop_assert!(pc.values(1).iter().all(|&v| v <= cap / 2.0 + 1e-15));
        prop_assert!(pc.values(0).iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn running_cost_is_nonnegative_and_quadratic(
        si in proptest::collection::vec((0.0..1.0_f64, 0.0..1.0_f64), 1..8),
        e1 in 0.0..1.0_f64,
        e2 in 0.0..1.0_f64,
        c in 0.5..4.0_f64,
    ) {
        let n = si.len();
        let m = paper_model(n, 5.0, 10.0);
        let mut state = vec![0.0; 3 * n];
        for (j, &(s, i)) in si.iter().enumerate() {
            state[j] = s;
            state[n + j] = i;
        }
        let mut base = [0.0; 2];
        m.running_cost(&state, &[e1, e2], &mut base);
        prop_assert!(base[0] >= 0.0 && base[1] >= 0.0);
        // Scaling both controls by c multiplies each integrand by c².
        let mut scaled = [0.0; 2];
        m.running_cost(&state, &[c * e1, c * e2], &mut scaled);
        for ch in 0..2 {
            prop_assert!((scaled[ch] - c * c * base[ch]).abs() <= 1e-9 * scaled[ch].max(1.0));
        }
    }

    #[test]
    fn cost_total_decomposes(eps1 in 0.0..0.4_f64, eps2 in 0.0..0.4_f64) {
        let p = params();
        let m = PaperSir::from_params(&p, 5.0, 10.0).unwrap();
        let y0 = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap().to_flat();
        let control = MultiPiecewiseControl::constant(10.0, 2, &[eps1, eps2]).unwrap();
        let traj = simulate_compartments(&m, &control, &y0, 10.0, &CompartmentSimOptions {
            n_out: 21,
            ..Default::default()
        })
        .unwrap();
        let cost = evaluate_compartments(&m, &traj, &control).unwrap();
        prop_assert!(cost.channel_costs.iter().all(|&v| v >= 0.0));
        prop_assert!((cost.total() - cost.terminal - cost.running()).abs() < 1e-12);
        // Zero controls ⇒ zero running cost.
        if eps1 == 0.0 && eps2 == 0.0 {
            prop_assert_eq!(cost.running(), 0.0);
        }
    }

    #[test]
    fn stationary_controls_scale_inversely_with_cost_weights(
        s_psi in proptest::collection::vec((0.01..1.0_f64, 0.0..2.0_f64), 2..6),
        factor in 1.5..8.0_f64,
    ) {
        let n = s_psi.len();
        // state = [S, I = S, R = 0]; costate = [ψ, φ = ψ].
        let mut state = vec![0.0; 3 * n];
        let mut p = vec![0.0; 2 * n];
        for (j, &(s, psi)) in s_psi.iter().enumerate() {
            state[j] = s;
            state[n + j] = s;
            p[j] = psi;
            p[n + j] = psi;
        }
        let mut a = [0.0; 2];
        let mut b = [0.0; 2];
        paper_model(n, 2.0, 3.0).stationary_controls(&state, &p, &mut a);
        paper_model(n, 2.0 * factor, 3.0 * factor).stationary_controls(&state, &p, &mut b);
        // Scaling the unit costs by `factor` divides the stationary
        // controls by it.
        prop_assert!((a[0] - factor * b[0]).abs() < 1e-9 * a[0].abs().max(1.0));
        prop_assert!((a[1] - factor * b[1]).abs() < 1e-9 * a[1].abs().max(1.0));
    }
}
