//! Derivative-free optimizers for the VQE driver.
//!
//! The paper uses SciPy's SLSQP; the optimizer is treated as a black box,
//! and this module provides two self-contained derivative-free methods:
//! Nelder–Mead simplex (the default) and SPSA (useful when objective
//! evaluations are noisy).

use rand::Rng;

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best parameter vector found.
    pub best_params: Vec<f64>,
    /// Best objective value found.
    pub best_value: f64,
    /// Best-so-far objective value at the end of each iteration.
    pub history: Vec<f64>,
    /// Total number of objective evaluations.
    pub evaluations: usize,
}

/// Nelder–Mead simplex minimisation.
///
/// `initial` is the starting point; `scale` sets the size of the initial
/// simplex; the run stops after `max_iterations` or when the simplex collapses
/// below `tol` in both parameter and value spread.
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut objective: F,
    initial: &[f64],
    scale: f64,
    max_iterations: usize,
    tol: f64,
) -> OptResult {
    let n = initial.len();
    assert!(n > 0, "nelder_mead: empty parameter vector");
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    let mut evaluations = 0usize;
    let mut eval = |x: &[f64], evaluations: &mut usize| {
        *evaluations += 1;
        objective(x)
    };

    // Initial simplex: the start point plus one vertex per coordinate.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = eval(initial, &mut evaluations);
    simplex.push((initial.to_vec(), f0));
    for i in 0..n {
        let mut v = initial.to_vec();
        v[i] += scale;
        let f = eval(&v, &mut evaluations);
        simplex.push((v, f));
    }

    let mut history = Vec::with_capacity(max_iterations);
    for _iter in 0..max_iterations {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        history.push(simplex[0].1);

        // Convergence: spread of values and of the simplex.
        let value_spread = simplex[n].1 - simplex[0].1;
        let param_spread = simplex
            .iter()
            .flat_map(|(v, _)| v.iter().zip(simplex[0].0.iter()).map(|(a, b)| (a - b).abs()))
            .fold(0.0f64, f64::max);
        if value_spread.abs() < tol && param_spread < tol {
            break;
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; n];
        for (v, _) in simplex.iter().take(n) {
            for (c, x) in centroid.iter_mut().zip(v.iter()) {
                *c += x / n as f64;
            }
        }
        let worst = simplex[n].clone();

        let reflect: Vec<f64> =
            centroid.iter().zip(worst.0.iter()).map(|(c, w)| c + alpha * (c - w)).collect();
        let f_reflect = eval(&reflect, &mut evaluations);

        if f_reflect < simplex[0].1 {
            // Try expanding further.
            let expand: Vec<f64> =
                centroid.iter().zip(worst.0.iter()).map(|(c, w)| c + gamma * (c - w)).collect();
            let f_expand = eval(&expand, &mut evaluations);
            simplex[n] =
                if f_expand < f_reflect { (expand, f_expand) } else { (reflect, f_reflect) };
        } else if f_reflect < simplex[n - 1].1 {
            simplex[n] = (reflect, f_reflect);
        } else {
            // Contract towards the centroid.
            let contract: Vec<f64> =
                centroid.iter().zip(worst.0.iter()).map(|(c, w)| c + rho * (w - c)).collect();
            let f_contract = eval(&contract, &mut evaluations);
            if f_contract < worst.1 {
                simplex[n] = (contract, f_contract);
            } else {
                // Shrink the whole simplex towards the best vertex.
                let best = simplex[0].0.clone();
                for vertex in simplex.iter_mut().skip(1) {
                    let shrunk: Vec<f64> = best
                        .iter()
                        .zip(vertex.0.iter())
                        .map(|(b, v)| b + sigma * (v - b))
                        .collect();
                    let f = eval(&shrunk, &mut evaluations);
                    *vertex = (shrunk, f);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    history.push(simplex[0].1);
    OptResult { best_params: simplex[0].0.clone(), best_value: simplex[0].1, history, evaluations }
}

/// Simultaneous Perturbation Stochastic Approximation (SPSA) minimisation.
pub fn spsa<F: FnMut(&[f64]) -> f64, R: Rng + ?Sized>(
    mut objective: F,
    initial: &[f64],
    iterations: usize,
    a0: f64,
    c0: f64,
    rng: &mut R,
) -> OptResult {
    let n = initial.len();
    let mut theta = initial.to_vec();
    let mut best_params = theta.clone();
    let mut best_value = objective(&theta);
    let mut history = Vec::with_capacity(iterations);
    let mut evaluations = 1usize;

    for k in 0..iterations {
        let ak = a0 / ((k + 1) as f64).powf(0.602);
        let ck = c0 / ((k + 1) as f64).powf(0.101);
        // Rademacher perturbation.
        let delta: Vec<f64> = (0..n).map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 }).collect();
        let plus: Vec<f64> = theta.iter().zip(&delta).map(|(t, d)| t + ck * d).collect();
        let minus: Vec<f64> = theta.iter().zip(&delta).map(|(t, d)| t - ck * d).collect();
        let f_plus = objective(&plus);
        let f_minus = objective(&minus);
        evaluations += 2;
        for i in 0..n {
            let grad = (f_plus - f_minus) / (2.0 * ck * delta[i]);
            theta[i] -= ak * grad;
        }
        let f = objective(&theta);
        evaluations += 1;
        if f < best_value {
            best_value = f;
            best_params = theta.clone();
        }
        history.push(best_value);
    }
    OptResult { best_params, best_value, history, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic(x: &[f64]) -> f64 {
        x.iter().enumerate().map(|(i, v)| (v - i as f64).powi(2)).sum()
    }

    #[test]
    fn nelder_mead_minimises_quadratic() {
        let r = nelder_mead(quadratic, &[5.0, -3.0, 2.0], 1.0, 400, 1e-10);
        assert!(r.best_value < 1e-6, "best value {}", r.best_value);
        for (i, p) in r.best_params.iter().enumerate() {
            assert!((p - i as f64).abs() < 1e-3);
        }
        // History is non-increasing.
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn nelder_mead_on_rosenbrock() {
        let rosenbrock = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = nelder_mead(rosenbrock, &[-1.2, 1.0], 0.5, 2000, 1e-12);
        assert!(r.best_value < 1e-5, "best value {}", r.best_value);
        assert!((r.best_params[0] - 1.0).abs() < 0.02);
        assert!((r.best_params[1] - 1.0).abs() < 0.04);
    }

    #[test]
    fn spsa_reduces_quadratic_objective() {
        let mut rng = StdRng::seed_from_u64(7);
        let start = vec![4.0, -4.0];
        let f_start = quadratic(&start);
        let r = spsa(quadratic, &start, 300, 0.2, 0.1, &mut rng);
        assert!(r.best_value < f_start * 0.05, "best value {}", r.best_value);
        assert!(r.evaluations > 300);
    }
}
