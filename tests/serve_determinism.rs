//! Concurrency determinism for the serve stack: N clients submitting
//! the same job concurrently — across worker-pool widths, against warm
//! and cold caches — must all receive **bit-identical values (digest
//! and `sum`/`min`/`max`) and counters**.
//!
//! Two strengths of guarantee, deliberately distinguished:
//!
//! - *Within one server*: every response is identical in full — digest,
//!   `sum`/`min`/`max` and all counter fields — because every session of
//!   a cache entry runs the entry's memoized schedule.
//! - *Across servers* (and against an offline [`ExecSession`]): the
//!   digest, `sum`/`min`/`max` and the Prediction-class invariant
//!   counters are identical.
//!   A cold cache re-runs the on-miss schedule choice, which is
//!   deterministic (every server memoizes the same schedule for a key),
//!   and a non-default schedule may legitimately move the *descriptive*
//!   counters (staging traffic) against the offline default run — but
//!   the chooser's bit-identity gate only admits schedules whose values
//!   and invariant counters match the default exactly, so scheduling
//!   freedom never becomes answer freedom.

use std::sync::Arc;

use foundation::crc::Crc32;
use foundation::json::Json;
use lorastencil::{ExecConfig, ExecSession};
use stencil_cli::serve::{Action, ConnState, ServeConfig, ServerCore};
use stencil_core::kernels;

const FRAME: &str = r#"{"kernel":"Box-2D49P","size":[24,24],"iters":3,"seed":9}"#;
const CLIENTS: usize = 6;
const JOBS_PER_CLIENT: usize = 3;

/// The counter fields every schedule must keep invariant (the
/// `Prediction` class — same set `stencil-cli tune`'s gate enforces).
const INVARIANTS: &[&str] =
    &["mma_ops", "shared_load_requests", "shuffle_ops", "global_bytes_written", "points_updated"];

/// A response's answer: the digest string and the bit patterns of
/// `sum`, `min` and `max`.
type Answer = (String, [u64; 3]);

/// The answer + all counter fields (sorted by name), from a response.
fn fingerprint(resp: &str) -> (Answer, Vec<(String, f64)>) {
    let doc = Json::parse(resp).unwrap_or_else(|e| panic!("bad response JSON ({e}): {resp}"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "job failed: {resp}");
    let digest = doc
        .get("digest")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no digest in {resp}"))
        .to_string();
    // JSON numbers parse exactly, and the response prints each f64 in
    // its shortest round-tripping form, so the bits survive the wire
    let stats = ["sum", "min", "max"].map(|k| {
        doc.get(k).and_then(Json::as_f64).unwrap_or_else(|| panic!("no {k} in {resp}")).to_bits()
    });
    let counters = match doc.get("counters") {
        Some(Json::Obj(fields)) => {
            fields.iter().map(|(k, v)| (k.clone(), v.as_f64().expect("numeric counter"))).collect()
        }
        other => panic!("no counters object ({other:?}) in {resp}"),
    };
    ((digest, stats), counters)
}

fn lookup(counters: &[(String, f64)], name: &str) -> f64 {
    counters.iter().find(|(k, _)| k == name).unwrap_or_else(|| panic!("counter {name} missing")).1
}

/// What the daemon must reproduce: one offline session, default params
/// (no tuning DB in this process), digested value by value — the
/// definition the server's one-pass digest must match bit for bit.
fn offline_fingerprint() -> (Answer, Vec<(String, f64)>) {
    let kernel = kernels::by_name("Box-2D49P").unwrap();
    let mut sess = ExecSession::new(&kernel, ExecConfig::default(), &[24, 24]);
    sess.fill_with(|idx| stencil_cli::grid_value(9, idx));
    let counters = sess.run(3);
    let mut crc = Crc32::new();
    let (mut sum, mut lo, mut hi) = (0.0f64, f64::INFINITY, f64::NEG_INFINITY);
    for plane in sess.planes() {
        for &v in plane.as_slice() {
            crc.update(&v.to_bits().to_le_bytes());
            sum += v;
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (
        (format!("crc32:{:08x}", crc.finish()), [sum.to_bits(), lo.to_bits(), hi.to_bits()]),
        counters.fields().iter().map(|&(k, v)| (k.to_string(), v as f64)).collect(),
    )
}

fn hammer(core: &Arc<ServerCore>) -> Vec<(Answer, Vec<(String, f64)>)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = ConnState::new();
                    let mut out = Vec::with_capacity(JOBS_PER_CLIENT);
                    for _ in 0..JOBS_PER_CLIENT {
                        match core.handle_line(&mut conn, FRAME) {
                            Action::Respond => out.push(fingerprint(&conn.resp)),
                            Action::Shutdown => panic!("job frame triggered shutdown"),
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    })
}

/// One test function (not a matrix of #[test]s) so the
/// `FOUNDATION_THREADS` mutations cannot race within this binary.
#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let (want_answer, want_counters) = offline_fingerprint();

    for lanes in ["1", "2", "7"] {
        std::env::set_var("FOUNDATION_THREADS", lanes);
        let ctx = format!("FOUNDATION_THREADS={lanes}");
        let core = ServerCore::new(ServeConfig::default());
        let round1 = hammer(&core); // first round plans + tunes under contention
        let round2 = hammer(&core); // second round is all cache hits
        let reference = &round1[0].1;
        for (answer, counters) in round1.iter().chain(&round2) {
            assert_eq!(*answer, want_answer, "digest or sum/min/max diverged ({ctx})");
            // within one server: full counter identity
            assert_eq!(*counters, *reference, "within-server counters diverged ({ctx})");
            // against the offline session: invariant identity
            for name in INVARIANTS {
                assert_eq!(
                    lookup(counters, name),
                    lookup(&want_counters, name),
                    "invariant counter {name} diverged from offline ({ctx})"
                );
            }
        }

        // a cold cache re-plans (and re-tunes) every job, concurrently:
        // the answers must still not move
        let cold = ServerCore::new(ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
        for (answer, counters) in hammer(&cold) {
            assert_eq!(answer, want_answer, "cold-plan answer diverged (lanes={lanes})");
            for name in INVARIANTS {
                assert_eq!(
                    lookup(&counters, name),
                    lookup(&want_counters, name),
                    "cold-plan invariant {name} diverged (lanes={lanes})"
                );
            }
        }
    }
    std::env::remove_var("FOUNDATION_THREADS");
}
