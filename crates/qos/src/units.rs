//! Unit-safe numeric helpers for the QoS formula modules.
//!
//! The translation formulas mix slots, minutes, weeks, CPU fractions, and
//! probabilities. Two numeric habits reliably hide unit bugs in that mix:
//! bare `as` casts (which silently truncate or saturate) and exact float
//! equality (which turns an epsilon of arithmetic noise into a branch
//! flip). `xtask lint` bans both in `crates/qos/src` (rules
//! `unit-float-cast` and `unit-float-eq`); this module is the blessed
//! replacement.

/// Comparison tolerance shared by the QoS formula modules.
///
/// The paper's quantities (CPU shares, utilizations, θ probabilities) are
/// all order-1, so one fixed scale works; [`approx_eq`] additionally
/// scales by the operands for large magnitudes.
pub const EPSILON: f64 = 1e-9;

/// Whether `a` and `b` are equal up to [`EPSILON`] (relative for large
/// magnitudes, absolute near zero).
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON * a.abs().max(b.abs()).max(1.0)
}

/// Whether `x` is zero up to [`EPSILON`].
pub fn is_zero(x: f64) -> bool {
    x.abs() <= EPSILON
}

/// Exact conversion of a count (apps, weeks, slots, CPUs) to `f64`.
///
/// Counts in this workspace are bounded by trace lengths (≤ a few million
/// slots), far below 2^53 where `f64` stops representing integers
/// exactly; the debug assertion documents that bound.
pub fn count(n: usize) -> f64 {
    debug_assert!(n as u64 <= (1u64 << 53), "count {n} not exact in f64");
    // lint:allow(unit-float-cast): the one blessed cast site — exactness
    // is debug-asserted above and every caller routes through here.
    n as f64
}

/// The smallest `f64` for which `test` holds, found by ulp steps from
/// `start`: down while the next float below still passes, otherwise up
/// until one passes.
///
/// `test` must be monotone over the floats (false below some point, true
/// from it on) and hold somewhere at or above `start`, so the search ends.
/// Callers start within a few ulps of the answer. A start that fails
/// needs only up steps, since every float below it fails too.
pub fn least_passing(start: f64, test: impl Fn(f64) -> bool) -> f64 {
    let mut x = start;
    if test(x) {
        while test(x.next_down()) {
            x = x.next_down();
        }
    } else {
        while !test(x) {
            x = x.next_up();
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_arithmetic_noise() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(approx_eq(1e12 + 1.0, 1e12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn is_zero_is_a_band_not_a_bit_pattern() {
        assert!(is_zero(0.0));
        assert!(is_zero(-0.0));
        assert!(is_zero(1e-12));
        assert!(!is_zero(1e-6));
    }

    #[test]
    fn least_passing_steps_to_the_boundary_from_either_side() {
        let boundary = 1.5f64;
        let at_least = |x: f64| x >= boundary;
        let above = boundary.next_up().next_up().next_up();
        let below = boundary.next_down().next_down();
        for start in [boundary, above, below] {
            assert_eq!(least_passing(start, at_least).to_bits(), boundary.to_bits());
        }
        // A division test: the smallest `v` with `v / h >= a`.
        let (h, a) = (0.66, 7.0 / 0.9);
        let x0 = least_passing(a * h, |v| v / h >= a);
        assert!(x0 / h >= a && x0.next_down() / h < a);
    }

    #[test]
    fn count_is_exact_for_workspace_sizes() {
        assert_eq!(count(0), 0.0);
        assert_eq!(count(288 * 7 * 52), 104_832.0);
    }
}
