//! The wirelength-model abstraction shared by all approximations.
//!
//! Placement works one axis at a time (the paper's Section III treats the
//! horizontal part; the vertical is symmetric), so a model only ever sees
//! the coordinates of one net along one axis.

use crate::big::BigChks;
use crate::hpwl::Hpwl;
use crate::lse::Lse;
use crate::moreau::Moreau;
use crate::wa::Wa;

/// A differentiable (or subdifferentiable) one-axis net wirelength model.
///
/// Implementations may keep internal scratch buffers, hence `&mut self`.
pub trait NetModel {
    /// Short stable name, e.g. `"WA"` (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Current smoothing parameter (`γ` for exponential models, `t` for the
    /// Moreau envelope). Smaller means closer to exact HPWL.
    fn smoothing(&self) -> f64;

    /// Updates the smoothing parameter (called every placement iteration by
    /// the schedules in [`crate::schedule`]).
    fn set_smoothing(&mut self, s: f64);

    /// Computes the smoothed net span of `x` and writes `∂/∂x_i` into
    /// `grad`. Returns the model value.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != x.len()` or `x` is empty.
    fn eval_axis(&mut self, x: &[f64], grad: &mut [f64]) -> f64;

    /// Model value only (may skip gradient work).
    fn value_axis(&mut self, x: &[f64]) -> f64;
}

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

    /// Instantiates the model with an initial smoothing parameter.
    pub fn instantiate(self, smoothing: f64) -> AnyModel {
        match self {
            ModelKind::Hpwl => AnyModel::Hpwl(Hpwl::new()),
            ModelKind::Lse => AnyModel::Lse(Lse::new(smoothing)),
            ModelKind::Wa => AnyModel::Wa(Wa::new(smoothing)),
            ModelKind::BigChks => AnyModel::BigChks(BigChks::new(smoothing)),
            ModelKind::Moreau => AnyModel::Moreau(Moreau::new(smoothing)),
        }
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

/// Enum dispatch over the concrete models (object-safe, `Clone`, `Send`),
/// so evaluation loops monomorphize nothing.
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// Exact HPWL (subgradient).
    Hpwl(Hpwl),
    /// Log-sum-exp.
    Lse(Lse),
    /// Weighted-average.
    Wa(Wa),
    /// CHKS bivariate fold.
    BigChks(BigChks),
    /// Moreau envelope.
    Moreau(Moreau),
}

impl AnyModel {
    /// The corresponding [`ModelKind`].
    pub fn kind(&self) -> ModelKind {
        match self {
            AnyModel::Hpwl(_) => ModelKind::Hpwl,
            AnyModel::Lse(_) => ModelKind::Lse,
            AnyModel::Wa(_) => ModelKind::Wa,
            AnyModel::BigChks(_) => ModelKind::BigChks,
            AnyModel::Moreau(_) => ModelKind::Moreau,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $m:ident => $body:expr) => {
        match $self {
            AnyModel::Hpwl($m) => $body,
            AnyModel::Lse($m) => $body,
            AnyModel::Wa($m) => $body,
            AnyModel::BigChks($m) => $body,
            AnyModel::Moreau($m) => $body,
        }
    };
}

impl NetModel for AnyModel {
    fn name(&self) -> &'static str {
        dispatch!(self, m => m.name())
    }

    fn smoothing(&self) -> f64 {
        dispatch!(self, m => m.smoothing())
    }

    fn set_smoothing(&mut self, s: f64) {
        dispatch!(self, m => m.set_smoothing(s))
    }

    fn eval_axis(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        dispatch!(self, m => m.eval_axis(x, grad))
    }

    fn value_axis(&mut self, x: &[f64]) -> f64 {
        dispatch!(self, m => m.value_axis(x))
    }
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

    #[test]
    fn any_model_is_send_and_clone() {
        fn assert_send<T: Send + Clone>() {}
        assert_send::<AnyModel>();
    }
}
