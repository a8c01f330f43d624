//! Property-based tests of the baseline models.

use proptest::prelude::*;
use rumor_core::control::ConstantControl;
use rumor_models::dk::DaleyKendall;
use rumor_models::homogeneous::HomogeneousSir;
use rumor_models::mt::MakiThompson;
use rumor_ode::integrator::Adaptive;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dk_and_mt_conserve_mass_and_terminate(
        k in 0.2..3.0_f64,
        beta in 0.2..1.0_f64,
        gamma in 0.2..1.0_f64,
        y0 in 0.005..0.2_f64,
    ) {
        let init = [1.0 - y0, y0, 0.0];
        for model_kind in 0..2 {
            let sol = if model_kind == 0 {
                Adaptive::new()
                    .integrate(&DaleyKendall::new(k, beta, gamma), 0.0, &init, 800.0)
                    .unwrap()
            } else {
                Adaptive::new()
                    .integrate(&MakiThompson::new(k, beta, gamma), 0.0, &init, 800.0)
                    .unwrap()
            };
            let y = sol.last_state();
            prop_assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            // Spreaders always die out in DK/MT (no reseeding).
            prop_assert!(y[1] < 1e-3, "spreaders {}", y[1]);
            // All compartments stay in [0, 1].
            for state in sol.states() {
                for &v in state {
                    prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
                }
            }
        }
    }

    #[test]
    fn mt_informs_at_least_as_many_as_dk(
        k in 0.5..2.0_f64,
        y0 in 0.005..0.05_f64,
    ) {
        // MT stifles less per contact, so its final ignorant fraction is
        // never above DK's (equal parameters).
        let init = [1.0 - y0, y0, 0.0];
        let dk = Adaptive::new()
            .integrate(&DaleyKendall::new(k, 1.0, 1.0), 0.0, &init, 1500.0)
            .unwrap();
        let mt = Adaptive::new()
            .integrate(&MakiThompson::new(k, 1.0, 1.0), 0.0, &init, 1500.0)
            .unwrap();
        prop_assert!(mt.last_state()[0] <= dk.last_state()[0] + 1e-6);
    }

    #[test]
    fn homogeneous_threshold_separates_outcomes(
        alpha in 0.005..0.05_f64,
        beta in 0.1..2.0_f64,
    ) {
        // Pick countermeasures on either side of r0 = αβ/(ε1ε2) = 1.
        let strong = (alpha * beta * 4.0).sqrt();
        let weak = (alpha * beta / 16.0).sqrt().max(1e-4);
        let sub = HomogeneousSir::new(alpha, beta, ConstantControl::new(strong, strong));
        prop_assert!(sub.r0(strong, strong) < 1.0);
        let sol = Adaptive::new().integrate(&sub, 0.0, &[0.9, 0.1, 0.0], 2000.0).unwrap();
        prop_assert!(sol.last_state()[1] < 1e-2, "subcritical I = {}", sol.last_state()[1]);

        let sup = HomogeneousSir::new(alpha, beta, ConstantControl::new(weak, weak));
        prop_assert!(sup.r0(weak, weak) > 1.0);
        let sol = Adaptive::new().integrate(&sup, 0.0, &[0.9, 0.1, 0.0], 2000.0).unwrap();
        prop_assert!(sol.last_state()[1] > 1e-4, "supercritical I = {}", sol.last_state()[1]);
    }
}
