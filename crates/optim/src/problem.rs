//! The optimization-problem abstraction.

/// A first-order unconstrained (or box-projected) minimization problem over
/// a flat parameter vector.
///
/// The placer flattens cell coordinates into one vector `[x…, y…]`; test
/// problems are classic analytic functions.
pub trait Problem {
    /// Number of parameters.
    fn dim(&self) -> usize;

    /// Objective value and gradient at `x` (every entry of `grad` is
    /// overwritten: optimizers hand in buffers holding stale values).
    fn eval(&mut self, x: &[f64], grad: &mut [f64]) -> f64;

    /// Objective value and gradient at `x` under the problem's current
    /// weights. A problem that holds the terms of its last evaluation at
    /// exactly `x` may recombine them instead of recomputing them; the
    /// default evaluates.
    fn reeval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.eval(x, grad)
    }

    /// Projects an iterate onto the feasible set (default: no-op). The
    /// placer clamps cell centers into the die here.
    fn project(&self, _x: &mut [f64]) {}
}

/// Euclidean norm of a slice.
pub fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Euclidean distance between two slices.
///
/// # Panics
///
/// Panics (debug builds) if lengths differ.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Classic test problems used by the optimizer unit tests.
pub mod testfns {
    use super::Problem;

    /// Convex quadratic `½ xᵀ diag(d) x`.
    #[derive(Debug, Clone)]
    pub struct Quadratic {
        /// Positive diagonal.
        pub diag: Vec<f64>,
    }

    impl Problem for Quadratic {
        fn dim(&self) -> usize {
            self.diag.len()
        }

        fn eval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
            let mut f = 0.0;
            for i in 0..x.len() {
                grad[i] = self.diag[i] * x[i];
                f += 0.5 * self.diag[i] * x[i] * x[i];
            }
            f
        }
    }

    /// The 2-D Rosenbrock valley (non-convex, smooth).
    #[derive(Debug, Clone, Default)]
    pub struct Rosenbrock;

    impl Problem for Rosenbrock {
        fn dim(&self) -> usize {
            2
        }

        fn eval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
            let (a, b) = (1.0, 100.0);
            let f = (a - x[0]).powi(2) + b * (x[1] - x[0] * x[0]).powi(2);
            grad[0] = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
            grad[1] = 2.0 * b * (x[1] - x[0] * x[0]);
            f
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_distances() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(distance(&[1.0, 1.0], &[4.0, 5.0]), 5.0);
    }

    #[test]
    fn quadratic_gradient() {
        use testfns::Quadratic;
        let mut q = Quadratic {
            diag: vec![2.0, 4.0],
        };
        let mut g = [0.0; 2];
        let f = q.eval(&[1.0, 1.0], &mut g);
        assert_eq!(f, 3.0);
        assert_eq!(g, [2.0, 4.0]);
    }

    #[test]
    fn default_reeval_is_eval() {
        use testfns::Quadratic;
        let mut q = Quadratic {
            diag: vec![2.0, 4.0],
        };
        let x = [0.3, -1.7];
        let (mut g, mut h) = ([0.0; 2], [f64::NAN; 2]);
        let f = q.eval(&x, &mut g);
        assert_eq!(q.reeval(&x, &mut h).to_bits(), f.to_bits());
        assert_eq!(h, g);
    }

    #[test]
    fn rosenbrock_minimum_at_one_one() {
        use testfns::Rosenbrock;
        let mut r = Rosenbrock;
        let mut g = [0.0; 2];
        let f = r.eval(&[1.0, 1.0], &mut g);
        assert_eq!(f, 0.0);
        assert!(g[0].abs() < 1e-12 && g[1].abs() < 1e-12);
    }
}
