//! The backend seam: what is left of the device backend once lowering
//! has picked one.
//!
//! [`Schedule::lower`] resolves the backend into data: prebuilt weight
//! fragments on the tensor cores (2:4-compressed per term for
//! `SparseTcu`, [`TermFrags::is_sparse`](crate::rdg::TermFrags::is_sparse)),
//! the raw `u`/`v` vectors on the scalar backends. So the interpreter
//! has no backend type and one compiled job loop per host ISA. Two
//! things still read the [`BackendKind`]:
//!
//! * the span a term chain runs under ([`BackendKind::terms_span`]):
//!   `mma_batch` on the tensor cores, `cuda_terms`/`simd_terms` on the
//!   scalar backends;
//! * the modeled issue charge of a scalar chain
//!   ([`BackendKind::scalar_issue`]): `CudaCore` (Fig. 9 "RDG w/o TCU")
//!   and `SimdCore` (the tuned "no tensor cores" compare point) compute
//!   identical bits and differ only in `cuda_flops`.
//!
//! Every schedule of every backend runs on one job loop
//! (`workspace::run_unit`): 2-D and 3-D on strips, 1-D as one staged span
//! per job. The per-sub-tile fragment walk is only the tests' reference.
//!
//! Note what is *not* here: BVS. The butterfly split is baked into the
//! prebuilt `V` fragments at lowering time (Eq. 17), so both splits
//! reach the interpreter as the same MMA chain.

use super::BackendKind;
use crate::rdg::{CUDA_RDG_ISSUE_OVERHEAD, SIMD_RDG_ISSUE_OVERHEAD};
use foundation::obs::Counter;
use std::sync::OnceLock;

/// The `obs` counter `rdg_band_fallback`: tensor-core terms the strip
/// kernel evaluated on its dense instance, once per 8×8 sub-tile (a
/// staged strip holding a non-finite value, or a term whose `T` could
/// overflow). The scalar backends never add to it.
pub fn band_fallbacks() -> &'static Counter {
    static COUNTER: OnceLock<&'static Counter> = OnceLock::new();
    COUNTER.get_or_init(|| foundation::obs::counter("rdg_band_fallback"))
}

impl BackendKind {
    /// The span this backend's term chains run under.
    pub(crate) fn terms_span(self) -> &'static str {
        match self {
            BackendKind::TcuF64 | BackendKind::SparseTcu => "mma_batch",
            BackendKind::CudaCore => "cuda_terms",
            BackendKind::SimdCore => "simd_terms",
        }
    }

    /// Modeled issue ops per FLOP of a scalar term chain
    /// ([`CUDA_RDG_ISSUE_OVERHEAD`] or [`SIMD_RDG_ISSUE_OVERHEAD`]);
    /// `None` on the tensor cores.
    pub(crate) fn scalar_issue(self) -> Option<u64> {
        match self {
            BackendKind::TcuF64 | BackendKind::SparseTcu => None,
            BackendKind::CudaCore => Some(CUDA_RDG_ISSUE_OVERHEAD),
            BackendKind::SimdCore => Some(SIMD_RDG_ISSUE_OVERHEAD),
        }
    }
}
