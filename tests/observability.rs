//! Determinism golden test for `foundation::obs`: the chrome-trace
//! export and the phase-breakdown table attribute work identically at
//! any worker-pool width. Per-tile spans are recorded on whichever lane
//! runs the tile, but every tile records the same spans regardless of
//! scheduling — so event counts per phase, breakdown counts, and total
//! span durations' event multiplicity are bit-identical across
//! `FOUNDATION_THREADS=1/2/7` (timestamps and tids of course are not).
//! The scalar backends run the same strips under their own term spans,
//! which the benchmark's per-layer `lorastencil.{cuda,simd}_terms_ms`
//! read.

use foundation::json::Json;
use foundation::obs;
use lorastencil::{DeviceBackend, ExecConfig, ExecSession};
use stencil_core::kernels;

/// The profiled backends, with the term span each must record.
const BACKENDS: [(DeviceBackend, &str); 3] = [
    (DeviceBackend::TcuF64, "mma_batch"),
    (DeviceBackend::CudaCore, "cuda_terms"),
    (DeviceBackend::SimdCore, "simd_terms"),
];

/// Phase counts, breakdown `(name, count)`s and event total of a run.
type Profile = (Vec<(&'static str, u64)>, Vec<(String, u64)>, usize);

fn profiled_run(backend: DeviceBackend) -> Profile {
    obs::reset();
    obs::enable();
    let config = ExecConfig { backend, ..ExecConfig::full() };
    let mut sess = ExecSession::new(&kernels::box_2d9p(), config, &[48, 48]);
    sess.fill_with(|i| {
        let (r, c) = ((i / 48) as usize, (i % 48) as usize);
        ((r * 13 + c * 7) % 19) as f64 * 0.25 - 1.0
    });
    for _ in 0..3 {
        sess.run(sess.fusion());
    }
    obs::disable();
    let trace = obs::drain();
    assert_eq!(trace.dropped, 0, "no ring overflow on this workload");
    let breakdown: Vec<(String, u64)> =
        obs::phase_breakdown().iter().map(|p| (p.name.to_string(), p.count)).collect();
    (trace.phase_counts(), breakdown, trace.len())
}

/// One test function (not several) so the `FOUNDATION_THREADS`
/// mutations and the global span-tracer state cannot race another test
/// in this binary.
#[test]
fn trace_and_breakdown_are_deterministic_across_thread_counts() {
    for (backend, terms_span) in BACKENDS {
        let runs: Vec<_> = ["1", "2", "7"]
            .iter()
            .map(|t| {
                std::env::set_var("FOUNDATION_THREADS", t);
                profiled_run(backend)
            })
            .collect();
        std::env::remove_var("FOUNDATION_THREADS");

        let (counts0, breakdown0, len0) = &runs[0];
        assert!(!counts0.is_empty(), "the instrumented session must record spans");
        for phase in ["plan", "apply", "rdg_gather", terms_span] {
            assert!(
                counts0.iter().any(|(n, _)| *n == phase),
                "{backend:?}: missing phase {phase}: {counts0:?}"
            );
        }
        for (i, (counts, breakdown, len)) in runs.iter().enumerate().skip(1) {
            assert_eq!(counts, counts0, "{backend:?}: phase counts diverge at run {i}");
            assert_eq!(len, len0, "{backend:?}: event totals diverge at run {i}");
            // breakdown sort order is (total time desc), which is timing
            // dependent — compare as sorted (name, count) sets
            let mut a = breakdown.clone();
            let mut b = breakdown0.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{backend:?}: breakdown attribution diverges at run {i}");
        }
    }

    // One more profiled run feeds the chrome-trace exporter: the JSON
    // must round-trip through `Json::parse` and carry Perfetto's schema.
    std::env::set_var("FOUNDATION_THREADS", "2");
    obs::reset();
    obs::enable();
    let mut sess = ExecSession::new(&kernels::box_2d9p(), ExecConfig::full(), &[32, 32]);
    sess.run(sess.fusion());
    obs::disable();
    std::env::remove_var("FOUNDATION_THREADS");
    let trace = obs::drain();
    let doc = Json::parse(&trace.to_chrome_json().dump()).expect("chrome trace must parse");
    let events = doc.as_arr().expect("trace is a JSON array");
    assert_eq!(events.len(), trace.len());
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("name").and_then(Json::as_str).is_some());
        for key in ["ts", "dur", "pid", "tid"] {
            assert!(e.get(key).and_then(Json::as_f64).is_some(), "missing {key}");
        }
    }

    // The `rdg_band_fallback` counter sees every tensor-core term that
    // ran on the fragment path: none on a plain run, some once a cell is
    // non-finite (`0 · inf` is NaN, so the band form cannot skip zeros)
    let step = |kernel: &stencil_core::StencilKernel, backend: DeviceBackend, value: f64| {
        let config = ExecConfig { backend, ..ExecConfig::full() };
        let mut sess = ExecSession::new(kernel, config, &[32, 32]);
        sess.fill_with(|i| {
            let (r, c) = ((i / 32) as usize, (i % 32) as usize);
            if (r, c) == (9, 21) {
                value
            } else {
                ((r * 5 + c * 3) % 7) as f64 * 0.5
            }
        });
        sess.run(sess.fusion());
    };
    let fallbacks = |value: f64| {
        obs::reset();
        step(&kernels::box_2d49p(), DeviceBackend::TcuF64, value);
        lorastencil::schedule::band_fallbacks().get()
    };
    assert_eq!(fallbacks(1.0), 0, "a plain run stays in band form");
    assert!(fallbacks(f64::NAN) > 0, "a NaN cell must fall back");

    // The scalar chains form every product, so no input sends them off
    // their strips: the counter does not move, NaN cell or not
    let before = lorastencil::schedule::band_fallbacks().get();
    for backend in [DeviceBackend::CudaCore, DeviceBackend::SimdCore] {
        for value in [1.0, f64::NAN] {
            step(&kernels::box_2d9p(), backend, value);
            let now = lorastencil::schedule::band_fallbacks().get();
            assert_eq!(now, before, "{backend:?} with {value} in a cell must stay on strips");
        }
    }
}
