//! Least-squares fitting of widget cost functions from interaction timing traces.
//!
//! The paper derives each widget type's cost coefficients by timing interactions with widgets
//! instantiated at different domain sizes and fitting the quadratic model to the traces
//! ("following prior interface personalization literature", §4.3).  We do not have the human
//! traces, so `pi-workloads` *simulates* them (per-widget base times plus scan/search terms
//! with noise), and this module provides the ordinary-least-squares fit used for both
//! simulated and real traces.

use crate::cost::CostFunction;

/// One timing observation: interacting with a widget whose domain held `n` options took
/// `millis` milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Domain size during the interaction.
    pub n: usize,
    /// Observed interaction time in milliseconds.
    pub millis: f64,
}

/// Fits `c(n) = a0 + a1·n + a2·n²` to timing observations by ordinary least squares.
///
/// Negative coefficients (which can arise from noise) are clamped to zero, matching the
/// paper's non-negativity constraint.  Returns a constant zero-cost function for an empty
/// trace.
pub fn fit_cost(points: &[TracePoint]) -> CostFunction {
    // Non-finite timings (NaN/∞ from corrupted or sentinel trace entries) would poison the
    // normal equations and propagate into every coefficient; ignore them up front.
    let points: Vec<TracePoint> = points
        .iter()
        .filter(|p| p.millis.is_finite())
        .copied()
        .collect();
    if points.is_empty() {
        return CostFunction::constant(0.0);
    }
    if points.len() < 3 {
        // Not enough observations to identify three coefficients: fall back to the mean.
        let mean = points.iter().map(|p| p.millis).sum::<f64>() / points.len() as f64;
        return CostFunction::constant(mean);
    }

    // Build the normal equations (XᵀX) a = Xᵀy for the design matrix X = [1, n, n²].
    let mut xtx = [[0.0f64; 3]; 3];
    let mut xty = [0.0f64; 3];
    for p in &points {
        let n = p.n as f64;
        let row = [1.0, n, n * n];
        for i in 0..3 {
            for j in 0..3 {
                xtx[i][j] += row[i] * row[j];
            }
            xty[i] += row[i] * p.millis;
        }
    }

    match solve3(xtx, xty) {
        Some([a0, a1, a2]) => CostFunction::new(a0, a1, a2),
        None => {
            // Singular system (e.g. all observations share one domain size): fit the mean.
            let mean = points.iter().map(|p| p.millis).sum::<f64>() / points.len() as f64;
            CostFunction::constant(mean)
        }
    }
}

/// Solves a 3×3 linear system by Gaussian elimination with partial pivoting.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // pivot — `total_cmp` so a NaN entry (overflow, corrupt input) orders
        // deterministically instead of panicking the comparator.  `total_cmp` ranks NaN
        // above every finite magnitude, so a NaN column would be chosen as pivot; reject
        // it explicitly and report the system as singular.
        let pivot_row = (col..3)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("pivot search range is non-empty");
        if a[pivot_row][col].is_nan() {
            return None;
        }
        if a[pivot_row][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        // eliminate
        for row in (col + 1)..3 {
            let factor = a[row][col] / a[col][col];
            let pivot = a[col];
            for (dst, src) in a[row].iter_mut().zip(pivot.iter()).skip(col) {
                *dst -= factor * src;
            }
            b[row] -= factor * b[col];
        }
    }
    // back substitution
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut sum = b[row];
        for k in (row + 1)..3 {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(points: &[(usize, f64)]) -> Vec<TracePoint> {
        points
            .iter()
            .map(|&(n, millis)| TracePoint { n, millis })
            .collect()
    }

    #[test]
    fn recovers_exact_quadratic() {
        let truth = CostFunction::new(300.0, 120.0, 0.5);
        let pts: Vec<TracePoint> = (1..=40)
            .map(|n| TracePoint {
                n,
                millis: truth.eval(n),
            })
            .collect();
        let fitted = fit_cost(&pts);
        assert!((fitted.a0 - truth.a0).abs() < 1e-6, "{fitted:?}");
        assert!((fitted.a1 - truth.a1).abs() < 1e-6);
        assert!((fitted.a2 - truth.a2).abs() < 1e-6);
    }

    #[test]
    fn recovers_constant_model_for_textbox_like_traces() {
        let pts = synth(&[(1, 4800.0), (5, 4770.0), (20, 4810.0), (50, 4780.0)]);
        let fitted = fit_cost(&pts);
        // a constant dominates; linear/quadratic terms are tiny
        assert!(fitted.eval(1) > 4000.0 && fitted.eval(1) < 5500.0);
        assert!(fitted.eval(50) > 4000.0 && fitted.eval(50) < 5500.0);
    }

    #[test]
    fn noisy_fit_stays_close_to_truth() {
        let truth = CostFunction::paper_dropdown();
        // deterministic "noise" of ±40ms
        let pts: Vec<TracePoint> = (1..=60)
            .map(|n| TracePoint {
                n,
                millis: truth.eval(n) + if n % 2 == 0 { 40.0 } else { -40.0 },
            })
            .collect();
        let fitted = fit_cost(&pts);
        for n in [2usize, 10, 30, 60] {
            let rel = (fitted.eval(n) - truth.eval(n)).abs() / truth.eval(n);
            assert!(rel < 0.15, "n={n} rel={rel}");
        }
    }

    #[test]
    fn degenerate_traces_fall_back_gracefully() {
        assert_eq!(fit_cost(&[]).eval(10), 0.0);
        let single = synth(&[(3, 500.0)]);
        assert_eq!(fit_cost(&single).eval(10), 500.0);
        // all observations at the same n -> singular system -> mean
        let same_n = synth(&[(5, 100.0), (5, 200.0), (5, 300.0)]);
        assert!((fit_cost(&same_n).eval(5) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        // Regression: a NaN/∞ timing used to poison the normal equations (every coefficient
        // became NaN).  The fit must equal the fit of the finite observations alone.
        let truth = CostFunction::new(300.0, 120.0, 0.5);
        let clean: Vec<TracePoint> = (1..=40)
            .map(|n| TracePoint {
                n,
                millis: truth.eval(n),
            })
            .collect();
        let mut dirty = clean.clone();
        dirty.insert(
            7,
            TracePoint {
                n: 3,
                millis: f64::NAN,
            },
        );
        dirty.push(TracePoint {
            n: 11,
            millis: f64::INFINITY,
        });
        dirty.push(TracePoint {
            n: 12,
            millis: f64::NEG_INFINITY,
        });
        let fitted = fit_cost(&dirty);
        assert!(fitted.a0.is_finite() && fitted.a1.is_finite() && fitted.a2.is_finite());
        let reference = fit_cost(&clean);
        assert!((fitted.a0 - reference.a0).abs() < 1e-9);
        assert!((fitted.a1 - reference.a1).abs() < 1e-9);
        assert!((fitted.a2 - reference.a2).abs() < 1e-9);
        // A trace of only non-finite observations degrades to the empty-trace fallback.
        let all_bad = synth(&[(1, f64::NAN), (2, f64::INFINITY)]);
        assert_eq!(fit_cost(&all_bad).eval(10), 0.0);
    }

    #[test]
    fn solve3_tolerates_nan_entries() {
        // Regression: pivot selection used `partial_cmp(..).unwrap()`, which panics on NaN.
        let nan = f64::NAN;
        assert_eq!(solve3([[nan; 3]; 3], [1.0, 2.0, 3.0]), None);
        let mut a = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]];
        a[1][0] = nan;
        assert_eq!(solve3(a, [1.0, 2.0, 3.0]), None);
        // A NaN right-hand side must not panic either (coefficients may be NaN, but the
        // caller filters non-finite observations before ever building such a system).
        let ok = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]];
        let _ = solve3(ok, [nan, 2.0, 3.0]);
    }

    #[test]
    fn clamps_negative_coefficients() {
        // A decreasing trace would fit a negative slope; the constraint clamps it.
        let pts = synth(&[(1, 1000.0), (10, 800.0), (20, 600.0), (30, 400.0)]);
        let fitted = fit_cost(&pts);
        assert!(fitted.a1 >= 0.0);
        assert!(fitted.a2 >= 0.0);
    }
}
