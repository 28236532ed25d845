//! Evaluation metrics used in Section VII.

/// Mean squared error.
pub fn mse(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum::<f64>()
        / pred.len() as f64
}

/// Mean relative error `mean(|pred − actual| / actual)` — the paper's
/// headline metric ("relative error … below 5%").
pub fn mean_relative_error(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(actual)
        .map(|(p, a)| ((p - a) / a).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Median absolute relative error — used for the cnvW1A1 evaluation
/// (Section VIII quotes median absolute errors of 11.03% and 9.5%).
pub fn median_relative_error(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len());
    if pred.is_empty() {
        return 0.0;
    }
    let mut errs: Vec<f64> = pred
        .iter()
        .zip(actual)
        .map(|(p, a)| ((p - a) / a).abs())
        .collect();
    errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = errs.len();
    if n % 2 == 1 {
        errs[n / 2]
    } else {
        (errs[n / 2 - 1] + errs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
        assert_eq!(mse(&[], &[]), 0.0);
    }

    #[test]
    fn relative_error_is_scale_free() {
        let a = mean_relative_error(&[1.1], &[1.0]);
        let b = mean_relative_error(&[110.0], &[100.0]);
        assert!((a - b).abs() < 1e-12);
        assert!((a - 0.1).abs() < 1e-12);
    }

    #[test]
    fn median_ignores_outliers() {
        let pred = vec![1.0, 1.0, 1.0, 1.0, 10.0];
        let act = vec![1.0; 5];
        assert_eq!(median_relative_error(&pred, &act), 0.0);
        assert!(mean_relative_error(&pred, &act) > 1.0);
    }

    #[test]
    fn median_even_count_averages() {
        let pred = vec![1.1, 1.3];
        let act = vec![1.0, 1.0];
        let m = median_relative_error(&pred, &act);
        assert!((m - 0.2).abs() < 1e-12);
    }
}
