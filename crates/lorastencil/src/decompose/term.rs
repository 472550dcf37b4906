//! Rank-1 terms and decompositions of stencil weight matrices (§II-D).
//!
//! A stencil weight matrix `W` of side `n = 2h+1` is decomposed into a sum
//! of rank-1 matrices `C_k = u_k ⊗ v_kᵀ` (Eq. 8) plus an optional pointwise
//! scalar (the 1×1 pyramid tip of Eq. 15, which needs no matrix multiply).

use stencil_core::WeightMatrix;

/// One rank-1 matrix `u ⊗ vᵀ`, centered within the full kernel.
///
/// `u.len() == v.len() == 2*radius + 1 ≤ full kernel side`; a term smaller
/// than the kernel (a pyramid level) is implicitly embedded centered.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOneTerm {
    /// Column vector (gathers the vertical/residual dimension).
    pub u: Vec<f64>,
    /// Row vector (gathers the horizontal dimension).
    pub v: Vec<f64>,
}

impl RankOneTerm {
    /// Create a term, validating the vectors.
    pub fn new(u: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(u.len(), v.len(), "rank-1 term vectors must have equal length");
        assert!(u.len() % 2 == 1, "term side must be odd");
        RankOneTerm { u, v }
    }

    /// Side length of this term's support.
    pub fn side(&self) -> usize {
        self.u.len()
    }

    /// Radius of this term's support.
    pub fn radius(&self) -> usize {
        (self.u.len() - 1) / 2
    }

    /// Materialize `u ⊗ vᵀ` as a matrix of this term's side.
    pub fn to_matrix(&self) -> WeightMatrix {
        WeightMatrix::from_fn(self.side(), |i, j| self.u[i] * self.v[j])
    }
}

/// Which decomposition algorithm produced a [`Decomposition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Pyramidal Matrix Adaptation (§III-C): radially symmetric matrices
    /// with non-vanishing corners; terms of strictly decreasing size.
    Pyramidal,
    /// Exact rank-≤2 split of star-shaped matrices.
    Star,
    /// Jacobi eigendecomposition of a symmetric matrix.
    Eigen,
    /// One-sided Jacobi SVD of an arbitrary matrix.
    Svd,
}

/// A complete low-rank decomposition `W = Σ_k u_k ⊗ v_kᵀ + pointwise·E_cc`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Side of the decomposed kernel (`2h + 1`).
    pub side: usize,
    /// Rank-1 terms in application order.
    pub terms: Vec<RankOneTerm>,
    /// Residual center-point weight handled without a matrix multiply
    /// (the 1×1 pyramid tip; zero when unused).
    pub pointwise: f64,
    /// The algorithm that produced this decomposition.
    pub strategy: Strategy,
}

impl Decomposition {
    /// Kernel radius `h`.
    pub fn radius(&self) -> usize {
        (self.side - 1) / 2
    }

    /// Number of rank-1 terms requiring matrix multiplies.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Rebuild the full weight matrix (terms embedded centered plus the
    /// pointwise tip). Used to verify `Σ C_k ≈ W`.
    pub fn reconstruct(&self) -> WeightMatrix {
        let mut acc = WeightMatrix::zero(self.side);
        for t in &self.terms {
            acc = acc.add(&t.to_matrix().embed_centered(self.side));
        }
        if self.pointwise != 0.0 {
            let h = self.radius();
            let v = acc.get(h, h) + self.pointwise;
            acc.set(h, h, v);
        }
        acc
    }

    /// Maximum absolute reconstruction error against `w`.
    pub fn reconstruction_error(&self, w: &WeightMatrix) -> f64 {
        self.reconstruct().max_abs_diff(w)
    }
}

impl foundation::json::ToJson for RankOneTerm {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([("u", self.u.to_json()), ("v", self.v.to_json())])
    }
}

impl foundation::json::ToJson for Strategy {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::Str(
            match self {
                Strategy::Pyramidal => "Pyramidal",
                Strategy::Star => "Star",
                Strategy::Eigen => "Eigen",
                Strategy::Svd => "Svd",
            }
            .to_string(),
        )
    }
}

impl foundation::json::ToJson for Decomposition {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([
            ("side", Json::UInt(self.side as u64)),
            ("terms", Json::arr(self.terms.iter())),
            ("pointwise", Json::Num(self.pointwise)),
            ("strategy", self.strategy.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_matrix_is_outer_product() {
        let t = RankOneTerm::new(vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]);
        let m = t.to_matrix();
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.rank(1e-12), 1);
        assert_eq!(t.radius(), 1);
    }

    #[test]
    fn reconstruct_sums_terms_and_pointwise() {
        let d = Decomposition {
            side: 3,
            terms: vec![RankOneTerm::new(vec![1.0], vec![2.0])],
            pointwise: 0.5,
            strategy: Strategy::Pyramidal,
        };
        let w = d.reconstruct();
        assert_eq!(w.get(1, 1), 2.5);
        assert_eq!(w.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_vectors_rejected() {
        RankOneTerm::new(vec![1.0, 2.0, 3.0], vec![1.0]);
    }
}
