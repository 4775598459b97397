//! The one wirelength-model type: which model, its smoothing, and the
//! per-net scratch every model evaluates in.
//!
//! Placement works one axis at a time (the paper's Section III treats the
//! horizontal part; the vertical is symmetric), so a model only ever sees
//! the coordinates of one net along one axis. Each model is one per-net
//! function in its own module; [`AnyModel::eval_axis`] picks it by kind.

use crate::{big, hpwl, lse, moreau, wa};

/// Which wirelength model to use — the four contestants of Tables II/III
/// plus exact HPWL (for reporting and as the PEKO suite's non-smooth
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Exact HPWL with a WA-limit subgradient (non-smooth).
    Hpwl,
    /// Log-sum-exp model \[15\].
    Lse,
    /// Weighted-average model \[16, 17\].
    Wa,
    /// Bivariate-gradient model with the CHKS smoothing function \[21, 36\].
    BigChks,
    /// The paper's Moreau-envelope model.
    Moreau,
}

impl ModelKind {
    /// Table name used in the paper's result tables.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Hpwl => "HPWL",
            ModelKind::Lse => "LSE",
            ModelKind::Wa => "WA",
            ModelKind::BigChks => "BiG_CHKS",
            ModelKind::Moreau => "Ours",
        }
    }

    /// Parses a model name as the CLI and the daemon accept it
    /// (case-insensitive): every [`label`](Self::label) plus the aliases
    /// `moreau`/`me`, `big`/`chks`.
    pub fn from_name(name: &str) -> Option<ModelKind> {
        match name.to_ascii_lowercase().as_str() {
            "ours" | "moreau" | "me" => Some(ModelKind::Moreau),
            "wa" => Some(ModelKind::Wa),
            "lse" => Some(ModelKind::Lse),
            "big" | "big_chks" | "chks" => Some(ModelKind::BigChks),
            "hpwl" => Some(ModelKind::Hpwl),
            _ => None,
        }
    }

    /// Instantiates the model with an initial smoothing parameter (ignored
    /// by HPWL).
    ///
    /// # Panics
    ///
    /// Panics if a smooth model gets `smoothing ≤ 0`.
    pub fn instantiate(self, smoothing: f64) -> AnyModel {
        let mut model = AnyModel {
            kind: self,
            smoothing: 0.0,
            scratch: [Vec::new(), Vec::new()],
        };
        model.set_smoothing(smoothing);
        model
    }

    /// All four differentiable contestants compared in the paper's tables.
    pub fn contestants() -> [ModelKind; 4] {
        [
            ModelKind::BigChks,
            ModelKind::Lse,
            ModelKind::Wa,
            ModelKind::Moreau,
        ]
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One wirelength model: its kind, its smoothing parameter and two scratch
/// buffers that grow to the largest net degree once and are reused after
/// (`Clone`, `Send`).
#[derive(Debug, Clone)]
pub struct AnyModel {
    kind: ModelKind,
    smoothing: f64,
    scratch: [Vec<f64>; 2],
}

impl AnyModel {
    /// The model's [`ModelKind`].
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Current smoothing parameter (`γ` for the exponential models and
    /// BiG_CHKS, `t` for the Moreau envelope; 0 for exact HPWL). Smaller
    /// means closer to exact HPWL.
    pub fn smoothing(&self) -> f64 {
        self.smoothing
    }

    /// Updates the smoothing parameter (called every placement iteration by
    /// the schedules in [`crate::schedule`]). A no-op for HPWL: there is
    /// nothing to smooth.
    ///
    /// # Panics
    ///
    /// Panics if a smooth model gets `s ≤ 0`.
    pub fn set_smoothing(&mut self, s: f64) {
        if self.kind == ModelKind::Hpwl {
            return;
        }
        assert!(s > 0.0, "smoothing parameter must be positive, got {s}");
        self.smoothing = s;
    }

    /// Computes the smoothed span of one net's coordinates `x` along one
    /// axis and writes `∂/∂x_i` into `grad`. Returns the model value (the
    /// Moreau model reports `W_e^t + t`, the paper's convention).
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != x.len()` or `x` is empty.
    pub fn eval_axis(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let s = self.smoothing;
        let [a, b] = &mut self.scratch;
        match self.kind {
            ModelKind::Hpwl => hpwl::eval_axis(x, grad),
            ModelKind::Lse => lse::eval_axis(x, s, grad, a),
            ModelKind::Wa => wa::eval_axis(x, s, grad, a, b),
            ModelKind::BigChks => big::eval_axis(x, s, grad, a, b),
            ModelKind::Moreau => moreau::eval_net(x, s, Some(grad), None, a).envelope + s,
        }
    }
}

#[cfg(test)]
/// The value of a fresh `kind` model at smoothing `s` on `x`, gradient
/// discarded — the per-model unit tests' one value-only entry.
pub(crate) fn value(kind: ModelKind, s: f64, x: &[f64]) -> f64 {
    kind.instantiate(s).eval_axis(x, &mut vec![0.0; x.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_KINDS: [ModelKind; 5] = [
        ModelKind::Hpwl,
        ModelKind::Lse,
        ModelKind::Wa,
        ModelKind::BigChks,
        ModelKind::Moreau,
    ];

    #[test]
    fn instantiate_all_kinds() {
        for kind in ALL_KINDS {
            let mut m = kind.instantiate(1.0);
            assert_eq!(m.kind(), kind);
            let x = [0.0, 3.0, 10.0];
            let mut g = [0.0; 3];
            let v = m.eval_axis(&x, &mut g);
            assert!(v.is_finite());
            // every model approximates the span 10
            assert!((v - 10.0).abs() < 3.0, "{kind}: {v}");
        }
    }

    #[test]
    fn from_name_round_trips_every_label() {
        for kind in ALL_KINDS {
            let label = kind.label();
            assert_eq!(ModelKind::from_name(label), Some(kind), "{label}");
            assert_eq!(ModelKind::from_name(&label.to_lowercase()), Some(kind));
            assert_eq!(ModelKind::from_name(&label.to_uppercase()), Some(kind));
        }
        assert_eq!(ModelKind::from_name("big_wa"), None);
        assert_eq!(ModelKind::from_name(""), None);
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(ModelKind::Moreau.label(), "Ours");
        assert_eq!(ModelKind::BigChks.label(), "BiG_CHKS");
        assert_eq!(ModelKind::Moreau.to_string(), "Ours");
    }

    #[test]
    fn set_smoothing_round_trips() {
        let mut m = ModelKind::Wa.instantiate(4.0);
        assert_eq!(m.smoothing(), 4.0);
        m.set_smoothing(0.5);
        assert_eq!(m.smoothing(), 0.5);
    }

    /// The message of a panic payload (`panic!` with arguments carries a
    /// `String`).
    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        payload.downcast::<String>().map(|s| *s).unwrap_or_default()
    }

    /// A zero smoothing is rejected by every smooth model, at construction
    /// and on update; HPWL ignores it and stays at smoothing 0.
    #[test]
    fn zero_smoothing_panics_for_every_smooth_model() {
        for kind in ALL_KINDS {
            let at_construction = std::panic::catch_unwind(|| kind.instantiate(0.0));
            let on_update = std::panic::catch_unwind(|| kind.instantiate(1.0).set_smoothing(0.0));
            if kind == ModelKind::Hpwl {
                let mut m = at_construction.expect("HPWL takes any smoothing");
                assert_eq!(m.smoothing(), 0.0);
                m.set_smoothing(0.0);
                assert_eq!(m.smoothing(), 0.0);
                assert!(on_update.is_ok());
            } else {
                for (what, result) in [
                    ("instantiate(0.0)", at_construction.err()),
                    ("set_smoothing(0.0)", on_update.err()),
                ] {
                    let msg =
                        panic_text(result.unwrap_or_else(|| panic!("{kind}: {what} accepted")));
                    assert!(
                        msg.contains("smoothing parameter must be positive"),
                        "{kind}: {what} panicked with {msg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_is_reused_without_reallocation() {
        // more than 16 pins: Moreau's sort + scan path, the one that copies
        let x: Vec<f64> = (0..17).map(|i| ((i * 7) % 17) as f64).collect();
        let mut g = vec![0.0; x.len()];
        for kind in ALL_KINDS {
            let mut m = kind.instantiate(1.0);
            let _ = m.eval_axis(&x, &mut g);
            let caps = m.scratch.each_ref().map(Vec::capacity);
            // every smooth model works in the model's own scratch, so the
            // first net leaves it sized for that net; HPWL needs none
            if kind != ModelKind::Hpwl {
                assert!(caps.iter().sum::<usize>() >= x.len(), "{kind}: {caps:?}");
            }
            for _ in 0..10 {
                let _ = m.eval_axis(&x, &mut g);
                assert_eq!(m.scratch.each_ref().map(Vec::capacity), caps, "{kind}");
            }
        }
    }

    #[test]
    fn any_model_is_send_and_clone() {
        fn assert_send<T: Send + Clone>() {}
        assert_send::<AnyModel>();
    }
}
