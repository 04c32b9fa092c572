//! Property suite for the DUST φ-space machinery the candidate index
//! leans on: the `dust²` kernel must be monotone nondecreasing in the
//! gap `|Δ|` for every error-family pairing (the paper's distances grow
//! with observed separation), and the precomputed [`DustBoundTable`]
//! envelope must stay one-sided against the served kernel — at grid
//! cells, between them, and on the linear tail beyond the grid.
//!
//! The unit tests inside `uts_core::dust` pin fixed geometries; this
//! file hammers random gaps and σ values.

use std::sync::OnceLock;

use proptest::prelude::*;
use uts_core::dust::{Dust, DustBoundTable, DustConfig};
use uts_uncertain::{ErrorFamily, PointError};

/// One shared kernel, called through [`Dust::dust_squared_exact`] (no
/// lookup tables, so arbitrary σ pairs cost nothing to set up — each
/// call integrates directly).
fn exact_kernel() -> &'static Dust {
    static KERNEL: OnceLock<Dust> = OnceLock::new();
    KERNEL.get_or_init(Dust::default)
}

/// One shared table-mode DUST plus its envelope over a fixed
/// multi-family error set. Built once: the cross-family tables are
/// integration-bound, so the reduced resolution keeps the build cheap
/// while still exercising interpolation between cells.
fn enveloped() -> &'static (Dust, Vec<PointError>, DustBoundTable) {
    static STATE: OnceLock<(Dust, Vec<PointError>, DustBoundTable)> = OnceLock::new();
    STATE.get_or_init(|| {
        let dust = Dust::new(DustConfig {
            table_resolution: 256,
            ..DustConfig::default()
        });
        let errors = vec![
            PointError::new(ErrorFamily::Normal, 0.35),
            PointError::new(ErrorFamily::Uniform, 0.5),
            PointError::new(ErrorFamily::Exponential, 0.45),
        ];
        let envelope = dust
            .bound_envelope(&errors)
            .expect("multi-family set within the warm cap builds an envelope");
        (dust, errors, envelope)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `dust²` is monotone nondecreasing in the gap for every ordered
    /// family pair and random σ on each side — the property that lets a
    /// per-segment *minimum* gap stand in for every member gap in the
    /// index's lower bound. Exact evaluation (no tables) so the grid
    /// resolution cannot mask a kernel regression; the tolerance covers
    /// adaptive-quadrature noise on the cross-family pairs.
    #[test]
    fn dust_squared_is_monotone_in_the_gap(
        fx in 0usize..3,
        fy in 0usize..3,
        sx in 0.15f64..1.2,
        sy in 0.15f64..1.2,
        a in 0.0f64..10.0,
        b in 0.0f64..10.0,
    ) {
        let ex = PointError::new(ErrorFamily::ALL[fx], sx);
        let ey = PointError::new(ErrorFamily::ALL[fy], sy);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let d = exact_kernel();
        let at_lo = d.dust_squared_exact(ex, ey, lo);
        let at_hi = d.dust_squared_exact(ex, ey, hi);
        prop_assert!(at_lo.is_finite() && at_hi.is_finite(),
            "{fx}/{fy} σ=({sx},{sy}) Δ=({lo},{hi}): {at_lo} {at_hi}");
        prop_assert!(
            at_lo <= at_hi * (1.0 + 1e-6) + 1e-9,
            "dust² must not decrease: k({lo})={at_lo} > k({hi})={at_hi} \
             for {fx}/{fy} σ=({sx},{sy})"
        );
        // Sign symmetry: the kernel depends on the gap magnitude only.
        prop_assert_eq!(
            d.dust_squared_exact(ex, ey, -hi).to_bits(),
            at_hi.to_bits(),
            "dust²(-Δ) == dust²(Δ)"
        );
    }

    /// The envelope is one-sided against the *served* kernel (the same
    /// table-interpolated `dust²` queries evaluate) for every ordered
    /// pair of the error set, at random gaps on and off the grid — and
    /// its tail extension stays admissible beyond the last cell.
    #[test]
    fn envelope_never_exceeds_the_served_kernel(
        cell in 0usize..256,
        frac in 0.0f64..1.0,
        tail_mult in 1.0f64..6.0,
    ) {
        let (dust, errors, env) = enveloped();
        let on_grid = cell as f64 * env.grid_step();
        let between = (cell as f64 + frac) * env.grid_step();
        let beyond = (env.grid_len() - 1) as f64 * env.grid_step() * tail_mult;
        for &gap in &[on_grid, between, beyond] {
            let bound = env.cost(gap);
            prop_assert!(bound >= 0.0, "envelope is nonnegative at {gap}");
            for &ex in errors {
                for &ey in errors {
                    let kernel = dust.dust_squared(ex, ey, gap);
                    prop_assert!(
                        bound <= kernel * (1.0 + 1e-9) + 1e-12,
                        "envelope {bound} exceeds kernel {kernel} at Δ={gap} \
                         for {:?}/{:?}", ex.family, ey.family
                    );
                }
            }
        }
        // Monotone: a larger gap never costs less.
        prop_assert!(env.cost(on_grid) <= env.cost(between) + 1e-12);
        prop_assert!(env.cost(between) <= env.cost(beyond) + 1e-12);
    }
}
