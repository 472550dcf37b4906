//! Optional instruction tracing: record every operation a
//! [`SimContext`] issues, for debugging data paths and for the kind of
//! timeline inspection Nsight provides on real hardware.
//!
//! Tracing is off by default (zero overhead beyond a branch); turn it on
//! per context with [`SimContext::enable_trace`]. Events are appended in
//! issue order and can be queried or rendered as a compact listing.

use crate::context::SimContext;

/// One traced operation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An `mma.m8n8k4.f64` issue.
    Mma,
    /// A structured-sparse `mma.sp.m8n8k4.f64` issue (2:4 A operand).
    MmaSp,
    /// An `m16n16k16` FP16 MMA issue.
    Mma16,
    /// A load of `n` sparsity-metadata register sets.
    MetaLoad(u64),
    /// An accumulator→A extraction with the chosen columns and the
    /// shuffle instructions it cost (0 under BVS).
    AccExtract {
        /// Column set extracted.
        cols: [usize; 4],
        /// Shuffles charged.
        shuffles: u64,
    },
    /// A shared-memory fragment/span load.
    SharedLoad,
    /// A shared-memory store.
    SharedStore,
    /// A global→shared copy of `bytes` HBM bytes (`staged` = through
    /// registers).
    GlobalCopy {
        /// HBM bytes charged.
        bytes: u64,
        /// Whether the copy staged through the register file.
        staged: bool,
    },
    /// Scalar CUDA-core work.
    CudaFlops(u64),
    /// Explicit warp shuffles outside extraction.
    Shuffles(u64),
}

/// A recorded trace.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// All events in issue order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Longest run of consecutive [`TraceEvent::Mma`] issues — the MMA
    /// burst length the schedulers see (BVS exists to keep this high:
    /// shuffles in the middle of the chain break the pipeline).
    pub fn longest_mma_burst(&self) -> usize {
        let mut best = 0;
        let mut cur = 0;
        for e in &self.events {
            match e {
                TraceEvent::Mma | TraceEvent::MmaSp => {
                    cur += 1;
                    best = best.max(cur);
                }
                // fragment/metadata loads pipeline with MMAs, and a
                // zero-shuffle extraction is a pure register
                // reinterpretation (the BVS case) — none break the burst
                TraceEvent::SharedLoad
                | TraceEvent::MetaLoad(_)
                | TraceEvent::AccExtract { shuffles: 0, .. } => {}
                _ => cur = 0,
            }
        }
        best
    }

    /// Render a compact one-line-per-event listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.events.iter().enumerate() {
            let line = match e {
                TraceEvent::Mma => "mma.m8n8k4.f64".to_string(),
                TraceEvent::MmaSp => "mma.sp.m8n8k4.f64".to_string(),
                TraceEvent::Mma16 => "mma.m16n16k16.f16".to_string(),
                TraceEvent::MetaLoad(n) => format!("ld.metadata x{n}"),
                TraceEvent::AccExtract { cols, shuffles } => {
                    format!("acc->A cols {cols:?} ({shuffles} shuffles)")
                }
                TraceEvent::SharedLoad => "ld.shared (fragment/span)".to_string(),
                TraceEvent::SharedStore => "st.shared".to_string(),
                TraceEvent::GlobalCopy { bytes, staged } => format!(
                    "{} global->shared {bytes} B",
                    if *staged { "ld/st staged" } else { "cp.async" }
                ),
                TraceEvent::CudaFlops(n) => format!("cuda flops x{n}"),
                TraceEvent::Shuffles(n) => format!("shfl.sync x{n}"),
            };
            out.push_str(&format!("{i:>6}  {line}\n"));
        }
        out
    }

    pub(crate) fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }
}

impl SimContext {
    /// Begin recording a trace on this context.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::default());
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Stop tracing and take the recorded trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    #[inline]
    pub(crate) fn record(&mut self, e: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(e);
        }
    }
}

impl foundation::json::ToJson for TraceEvent {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        match self {
            TraceEvent::Mma => Json::Str("Mma".into()),
            TraceEvent::MmaSp => Json::Str("MmaSp".into()),
            TraceEvent::Mma16 => Json::Str("Mma16".into()),
            TraceEvent::MetaLoad(n) => Json::obj([("MetaLoad", Json::UInt(*n))]),
            TraceEvent::SharedLoad => Json::Str("SharedLoad".into()),
            TraceEvent::SharedStore => Json::Str("SharedStore".into()),
            TraceEvent::AccExtract { cols, shuffles } => Json::obj([(
                "AccExtract",
                Json::obj([
                    ("cols", Json::Arr(cols.iter().map(|&c| Json::UInt(c as u64)).collect())),
                    ("shuffles", Json::UInt(*shuffles)),
                ]),
            )]),
            TraceEvent::GlobalCopy { bytes, staged } => Json::obj([(
                "GlobalCopy",
                Json::obj([("bytes", Json::UInt(*bytes)), ("staged", Json::Bool(*staged))]),
            )]),
            TraceEvent::CudaFlops(n) => Json::obj([("CudaFlops", Json::UInt(*n))]),
            TraceEvent::Shuffles(n) => Json::obj([("Shuffles", Json::UInt(*n))]),
        }
    }
}

impl foundation::json::ToJson for Trace {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([("events", Json::arr(self.events.iter()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{FragA, FragAcc, FragB};
    use crate::global::{CopyMode, GlobalArray};
    use crate::shared::SharedTile;

    #[test]
    fn untraced_contexts_record_nothing() {
        let mut ctx = SimContext::new();
        let a = FragA::zero();
        let b = FragB::zero();
        ctx.mma(&a, &b, &FragAcc::zero());
        assert!(ctx.trace().is_none());
    }

    #[test]
    fn traced_context_records_in_issue_order() {
        let mut ctx = SimContext::new();
        ctx.enable_trace();
        let tile = SharedTile::new(16, 16);
        let a = tile.load_frag_a(&mut ctx, 0, 0);
        let b = tile.load_frag_b(&mut ctx, 0, 0);
        let acc = ctx.mma(&a, &b, &FragAcc::zero());
        ctx.acc_to_a(&acc, FragAcc::BUTTERFLY_COLS[0]);
        ctx.acc_to_a(&acc, FragAcc::NATURAL_COLS[0]);
        let t = ctx.take_trace().unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.events()[0], TraceEvent::SharedLoad);
        assert_eq!(t.events()[2], TraceEvent::Mma);
        assert_eq!(t.events()[3], TraceEvent::AccExtract { cols: [0, 2, 4, 6], shuffles: 0 });
        assert_eq!(t.events()[4], TraceEvent::AccExtract { cols: [0, 1, 2, 3], shuffles: 2 });
        assert!(t.render().contains("mma.m8n8k4.f64"));
    }

    #[test]
    fn copies_record_mode_and_bytes() {
        let mut ctx = SimContext::new();
        ctx.enable_trace();
        let g = GlobalArray::new(8, 8);
        let mut tile = SharedTile::new(8, 8);
        g.copy_to_shared(&mut ctx, CopyMode::Staged, 0, 0, 8, 8, &mut tile, 0, 0);
        g.copy_to_shared(&mut ctx, CopyMode::Async, 0, 0, 4, 4, &mut tile, 0, 0);
        let t = ctx.take_trace().unwrap();
        assert_eq!(t.events()[0], TraceEvent::GlobalCopy { bytes: 512, staged: true });
        assert_eq!(t.events()[1], TraceEvent::GlobalCopy { bytes: 128, staged: false });
    }

    #[test]
    fn mma_burst_length_sees_through_fragment_loads() {
        let mut t = Trace::default();
        t.push(TraceEvent::Mma);
        t.push(TraceEvent::SharedLoad); // pipelines: burst continues
        t.push(TraceEvent::Mma);
        t.push(TraceEvent::AccExtract { cols: [0, 2, 4, 6], shuffles: 0 }); // BVS: free
        t.push(TraceEvent::Mma);
        t.push(TraceEvent::Shuffles(2)); // breaks the burst
        t.push(TraceEvent::Mma);
        assert_eq!(t.longest_mma_burst(), 3);
    }
}
