//! Fuzz battery for the serve job protocol: no frame — malformed,
//! truncated, duplicated-key, overflowing, deeply nested, or perfectly
//! valid — may panic, hang, or produce a response that is not itself
//! valid JSON. Every rejected frame must carry a typed error (`kind`,
//! byte `offset`, human `detail`), and the server must keep answering
//! after absorbing it.
//!
//! The generator draws from explicit attack classes rather than raw
//! bytes: byte noise almost always dies at the first structural check,
//! while class-directed frames reach the field validators, the limit
//! checks and the cross-field rules. `FOUNDATION_PROP_CASES` scales the
//! battery up; the floor here is 250 frames per run.

use foundation::crc::Crc32;
use foundation::json::Json;
use foundation::prop::{self, Config, Gen};
use foundation::rng::Xoshiro256pp;
use lorastencil::{ExecConfig, ExecSession};
use stencil_cli::serve::{Action, ConnState, ServeConfig, ServeOptions, ServerCore};

/// One adversarial (or deliberately valid) protocol line.
#[derive(Clone, Debug)]
struct AttackFrame {
    class: &'static str,
    line: String,
}

struct AttackGen;

const KEYS: &[&str] =
    &["id", "op", "tenant", "kernel", "scenario", "size", "iters", "seed", "config", "values"];

fn valid_frame(rng: &mut Xoshiro256pp) -> String {
    match rng.below_u64(5) {
        0 => r#"{"kernel":"Box-2D9P","size":[8,8],"iters":1,"values":"none"}"#.into(),
        4 => {
            let cfg = ["sparse", "simd", "no-tcu", "sparse,no-fusion"][rng.below_u64(4) as usize];
            format!(r#"{{"kernel":"Heat-2D","size":[8,8],"config":"{cfg}","values":"none"}}"#)
        }
        1 => format!(r#"{{"scenario":"smoke-1d","tenant":"t{}","iters":1}}"#, rng.below_u64(4)),
        2 => r#"{"op":"stats"}"#.into(),
        _ => format!(r#"{{"op":"ping","id":{}}}"#, rng.below_u64(1 << 40)),
    }
}

impl Gen for AttackGen {
    type Value = AttackFrame;

    fn generate(&self, rng: &mut Xoshiro256pp) -> AttackFrame {
        let (class, line) = match rng.below_u64(10) {
            // structural noise: printable garbage, brackets, quotes
            0 => {
                let n = rng.below_u64(80) as usize;
                let junk: String = (0..n)
                    .map(|_| {
                        let c = rng.below_u64(96) as u8 + 0x20;
                        if c == 0x7f {
                            b'{' as char
                        } else {
                            c as char
                        }
                    })
                    .collect();
                ("noise", junk)
            }
            // a valid frame truncated mid-token (always on a char
            // boundary: valid frames here are pure ASCII)
            1 => {
                let full = valid_frame(rng);
                let cut = rng.below_u64(full.len() as u64) as usize;
                ("truncated", full[..cut].to_string())
            }
            // duplicated keys
            2 => {
                let k = KEYS[rng.below_u64(KEYS.len() as u64) as usize];
                ("dup-key", format!(r#"{{"{k}":1,"{k}":1}}"#))
            }
            // unsigned-integer overflow and numeric malformations
            3 => {
                let bad = ["99999999999999999999999", "-3", "1.5", "2e9", "0x10", "+1"];
                let v = bad[rng.below_u64(bad.len() as u64) as usize];
                let k = ["iters", "seed", "id"][rng.below_u64(3) as usize];
                ("overflow", format!(r#"{{"kernel":"1D5P","size":[64],"{k}":{v}}}"#))
            }
            // deep nesting: the parser must fail fast, not recurse
            4 => {
                let depth = 1 + rng.below_u64(10_000) as usize;
                let mut s = String::from(r#"{"size":"#);
                s.push_str(&"[".repeat(depth));
                s.push('8');
                s.push_str(&"]".repeat(depth));
                s.push('}');
                ("deep-nest", s)
            }
            // unknown keys, wrong value types, forbidden escapes
            5 => {
                let cases = [
                    r#"{"kernle":"1D5P"}"#.to_string(),
                    r#"{"kernel":42,"size":[8]}"#.to_string(),
                    r#"{"size":"8x8","kernel":"1D5P"}"#.to_string(),
                    r#"{"tenant":"a\nb","op":"ping"}"#.to_string(),
                    format!(r#"{{"tenant":"{}","op":"ping"}}"#, "x".repeat(4096)),
                ];
                ("bad-field", cases[rng.below_u64(cases.len() as u64) as usize].clone())
            }
            // limit-violating but well-formed jobs
            6 => {
                let cases = [
                    r#"{"kernel":"Box-2D9P","size":[4096,4096]}"#,
                    r#"{"kernel":"1D5P","size":[0]}"#,
                    r#"{"kernel":"1D5P","size":[64],"iters":100000}"#,
                    r#"{"kernel":"Box-2D9P","size":[64,64],"values":"full","iters":1}"#,
                    r#"{"kernel":"Heat-3D","size":[8,8]}"#,
                ];
                ("limits", cases[rng.below_u64(cases.len() as u64) as usize].to_string())
            }
            // cross-field conflicts
            7 => {
                let cases = [
                    r#"{"scenario":"small-2d","size":[8,8]}"#,
                    r#"{"scenario":"small-2d","kernel":"1D5P"}"#,
                    r#"{"kernel":"1D5P"}"#,
                    r#"{"iters":1}"#,
                    r#"{"scenario":"no-such-scenario"}"#,
                    r#"{"op":"runn"}"#,
                ];
                ("conflict", cases[rng.below_u64(cases.len() as u64) as usize].to_string())
            }
            // trailing garbage after a valid object
            8 => {
                let mut s = valid_frame(rng);
                s.push_str(" {}");
                ("trailing", s)
            }
            // fully valid frames: the battery must also prove good
            // frames never trip the hardening
            _ => ("valid", valid_frame(rng)),
        };
        AttackFrame { class, line }
    }

    fn shrink(&self, v: &AttackFrame) -> Vec<AttackFrame> {
        // halve the line (ASCII-safe for every class that can fail)
        let mut out = Vec::new();
        if v.line.len() > 1 && v.line.is_char_boundary(v.line.len() / 2) {
            out.push(AttackFrame { class: v.class, line: v.line[..v.line.len() / 2].into() });
        }
        out
    }
}

#[test]
fn fuzzed_frames_never_panic_and_errors_are_typed() {
    let core = ServerCore::new(ServeConfig::default());
    let mut cfg = Config::default();
    cfg.cases = cfg.cases.max(250);
    let cases = cfg.cases;
    let served = std::cell::Cell::new(0usize);
    let core_ref = &core;
    let served_ref = &served;
    prop::check_with(&cfg, "serve_protocol_hardening", &AttackGen, move |f: AttackFrame| {
        let mut conn = ConnState::new();
        match core_ref.handle_line(&mut conn, &f.line) {
            Action::Respond => {}
            Action::Shutdown => {
                return Err(format!("frame of class {} triggered shutdown", f.class))
            }
        }
        let doc = Json::parse(&conn.resp)
            .map_err(|e| format!("class {}: response is not JSON ({e}): {}", f.class, conn.resp))?;
        let ok = match doc.get("ok") {
            Some(&Json::Bool(b)) => b,
            _ => return Err(format!("class {}: response has no boolean \"ok\"", f.class)),
        };
        if !ok {
            let err = doc
                .get("error")
                .ok_or_else(|| format!("class {}: ok:false without error object", f.class))?;
            let kind = err
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("class {}: error without string kind", f.class))?;
            prop::prop_assert!(
                ["parse", "frame", "limit", "config", "kernel", "overloaded", "internal"]
                    .contains(&kind),
                "unknown error kind {kind:?}"
            );
            let offset = err
                .get("offset")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("class {}: error without numeric offset", f.class))?;
            prop::prop_assert!(
                offset >= 0.0 && offset <= f.line.len() as f64,
                "offset {offset} outside line of {} bytes",
                f.line.len()
            );
            prop::prop_assert!(
                err.get("detail").and_then(Json::as_str).is_some_and(|d| !d.is_empty()),
                "error without a human-readable detail"
            );
        }
        // the server must survive the frame: a known-good ping answers
        let mut probe = ConnState::new();
        match core_ref.handle_line(&mut probe, r#"{"op":"ping","id":7}"#) {
            Action::Respond => {}
            Action::Shutdown => return Err("ping after hostile frame shut the server".into()),
        }
        prop::prop_assert!(
            probe.resp.contains("\"ok\":true"),
            "server stopped answering after a {} frame: {}",
            f.class,
            probe.resp
        );
        served_ref.set(served_ref.get() + 1);
        Ok(())
    });
    assert_eq!(served.get(), cases, "every generated frame must run the property");
    assert!(cases >= 250, "the battery floor is 250 frames per run");
}

/// Canonical hostile frames with pinned diagnostics: the fuzz property
/// above proves "typed error, never a panic"; this pins *which* error
/// the flagship cases produce so diagnostics cannot silently regress.
#[test]
fn flagship_frames_get_the_right_diagnostics() {
    let core = ServerCore::new(ServeConfig::default());
    let mut conn = ConnState::new();
    let expect = |conn: &mut ConnState, line: &str, kind: &str, needle: &str| {
        assert!(matches!(core.handle_line(conn, line), Action::Respond));
        let doc = Json::parse(&conn.resp).unwrap();
        let err = doc.get("error").unwrap_or_else(|| panic!("no error for {line}: {}", conn.resp));
        assert_eq!(err.get("kind").and_then(Json::as_str), Some(kind), "{line} -> {}", conn.resp);
        let detail = err.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.contains(needle), "{line}: detail {detail:?} misses {needle:?}");
    };
    expect(&mut conn, "not json {", "parse", "JSON object");
    expect(&mut conn, r#"{"op":"run","op":"run"}"#, "frame", "duplicate");
    expect(
        &mut conn,
        r#"{"kernel":"1D5P","size":[64],"seed":99999999999999999999999}"#,
        "limit",
        "overflows",
    );
    expect(&mut conn, r#"{"kernel":"Box-2D9P","size":[4096,4096]}"#, "limit", "points");
    expect(&mut conn, r#"{"scenario":"small-2d","size":[8,8]}"#, "frame", "scenario");
    expect(&mut conn, r#"{"kernel":"warp-drive","size":[8]}"#, "kernel", "unknown kernel");
    // a 10k-deep size dies at the first non-digit, without recursing
    let mut deep = String::from(r#"{"size":"#);
    deep.push_str(&"[".repeat(10_000));
    expect(&mut conn, &deep, "frame", "unsigned integer");
}

/// Pull a named counter out of a run response's `counters` object.
fn counter(resp: &str, name: &str) -> f64 {
    let doc = Json::parse(resp).unwrap_or_else(|e| panic!("response not JSON ({e}): {resp}"));
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no counter {name} in {resp}"))
}

/// The sparse and SIMD backends are reachable through the wire
/// protocol's `config` field, and a mistyped backend token comes back
/// as a typed `config` error instead of a panic or a silent default.
#[test]
fn sparse_and_simd_backends_run_over_the_wire() {
    let core = ServerCore::new(ServeConfig::default());
    let mut conn = ConnState::new();

    // sparse tensor cores on a star kernel: the rank-1 U factors are
    // 2:4-compressible, so the sparse pipe must actually light up
    assert!(matches!(
        core.handle_line(&mut conn, r#"{"kernel":"Heat-2D","size":[16,16],"config":"sparse"}"#),
        Action::Respond
    ));
    assert!(conn.resp.contains("\"ok\":true"), "sparse run failed: {}", conn.resp);
    assert!(counter(&conn.resp, "mma_sp_ops") > 0.0, "sparse MMAs missing: {}", conn.resp);
    assert!(counter(&conn.resp, "metadata_loads") > 0.0, "metadata loads missing: {}", conn.resp);

    // tuned host SIMD: no tensor-core traffic at all
    assert!(matches!(
        core.handle_line(&mut conn, r#"{"kernel":"Heat-2D","size":[16,16],"config":"simd"}"#),
        Action::Respond
    ));
    assert!(conn.resp.contains("\"ok\":true"), "simd run failed: {}", conn.resp);
    assert_eq!(counter(&conn.resp, "mma_ops"), 0.0, "simd must not issue MMAs: {}", conn.resp);
    assert_eq!(counter(&conn.resp, "mma_sp_ops"), 0.0, "{}", conn.resp);

    // a typo'd backend token is a typed config error, and the server
    // keeps serving afterwards
    assert!(matches!(
        core.handle_line(&mut conn, r#"{"kernel":"Heat-2D","size":[16,16],"config":"sparce"}"#),
        Action::Respond
    ));
    let doc = Json::parse(&conn.resp).unwrap();
    let kind = doc.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
    assert_eq!(kind, Some("config"), "{}", conn.resp);
    assert!(matches!(core.handle_line(&mut conn, r#"{"op":"ping"}"#), Action::Respond));
    assert!(conn.resp.contains("\"ok\":true"), "server died after bad config: {}", conn.resp);
}

/// `serve --backend` sets the default config for frames that carry
/// none; an explicit per-frame `config` still wins.
#[test]
fn serve_backend_flag_sets_the_default_config() {
    let core = ServerCore::new(ServeConfig { backend: "sparse", ..ServeConfig::default() });
    let mut conn = ConnState::new();
    assert!(matches!(
        core.handle_line(&mut conn, r#"{"kernel":"Heat-2D","size":[16,16]}"#),
        Action::Respond
    ));
    assert!(conn.resp.contains("\"ok\":true"), "{}", conn.resp);
    assert!(counter(&conn.resp, "mma_sp_ops") > 0.0, "default backend ignored: {}", conn.resp);
    // the client's own config overrides the server default
    assert!(matches!(
        core.handle_line(&mut conn, r#"{"kernel":"Heat-2D","size":[16,16],"config":"no-tcu"}"#),
        Action::Respond
    ));
    assert!(conn.resp.contains("\"ok\":true"), "{}", conn.resp);
    assert_eq!(counter(&conn.resp, "mma_ops"), 0.0, "{}", conn.resp);
    assert_eq!(counter(&conn.resp, "mma_sp_ops"), 0.0, "{}", conn.resp);
}

/// Degenerate server configurations must stay inert, not crash: a
/// zero-capacity plan cache disables caching, and quantiles over an
/// empty latency histogram report zero rather than dividing by the
/// empty total.
#[test]
fn degenerate_server_configs_answer_normally() {
    // stats on a fresh server: empty histogram → all-zero latency block
    let core = ServerCore::new(ServeConfig::default());
    let mut conn = ConnState::new();
    assert!(matches!(core.handle_line(&mut conn, r#"{"op":"stats"}"#), Action::Respond));
    let doc = Json::parse(&conn.resp).unwrap();
    let jobs = doc.get("jobs").expect("stats must report a jobs block");
    for q in ["p50_ns", "p99_ns", "max_ns"] {
        assert_eq!(jobs.get(q).and_then(Json::as_f64), Some(0.0), "{q}: {}", conn.resp);
    }
    // which compiled job loop produced this server's host times
    assert_eq!(
        doc.get("host_isa").and_then(Json::as_str),
        Some(lorastencil::schedule::host_isa()),
        "{}",
        conn.resp
    );

    // capacity-0 cache: runs still execute (plans are just never kept)
    let core = ServerCore::new(ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
    let run = r#"{"kernel":"Box-2D9P","size":[8,8],"iters":2}"#;
    for _ in 0..2 {
        let mut conn = ConnState::new();
        assert!(matches!(core.handle_line(&mut conn, run), Action::Respond));
        assert!(conn.resp.contains("\"ok\":true"), "cacheless run failed: {}", conn.resp);
    }
    let mut conn = ConnState::new();
    assert!(matches!(core.handle_line(&mut conn, r#"{"op":"stats"}"#), Action::Respond));
    assert!(conn.resp.contains("\"ok\":true"), "{}", conn.resp);
}

/// The connection limit over a real Unix socket: with `max_conns: 1`, a
/// second client gets exactly one `overloaded` line and EOF, while the
/// first keeps being served, `stats` counts the refusal, and a
/// `shutdown` frame makes `serve()` return.
#[test]
fn connection_limit_answers_overloaded_and_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    let path =
        std::env::temp_dir().join(format!("lorastencil-connlimit-{}.sock", std::process::id()));
    let socket = path.to_str().unwrap().to_string();
    let opts = ServeOptions {
        socket: socket.clone(),
        tcp: String::new(),
        cfg: ServeConfig { max_conns: 1, ..ServeConfig::default() },
    };
    let server = std::thread::spawn(move || stencil_cli::serve::serve(opts));

    // a client with a read timeout, so a broken server fails the test
    // instead of hanging it
    let connect = || {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&socket) {
                Ok(s) => {
                    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                    let r = BufReader::new(s.try_clone().unwrap());
                    return (r, s);
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("cannot connect to {socket}: {e}"),
            }
        }
    };
    let ask = |(r, w): &mut (BufReader<UnixStream>, UnixStream), frame: &str| -> Json {
        writeln!(w, "{frame}").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        Json::parse(&line).unwrap_or_else(|e| panic!("{frame} -> not JSON ({e}): {line:?}"))
    };

    let mut a = connect();
    assert_eq!(ask(&mut a, r#"{"op":"ping"}"#).get("ok"), Some(&Json::Bool(true)));

    // the second connection is over the limit: one typed line, then EOF
    let (mut b, _b_write) = connect();
    let mut line = String::new();
    b.read_line(&mut line).unwrap();
    let doc = Json::parse(&line).unwrap_or_else(|e| panic!("not JSON ({e}): {line:?}"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{line}");
    let kind = doc.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
    assert_eq!(kind, Some("overloaded"), "{line}");
    line.clear();
    assert_eq!(b.read_line(&mut line).unwrap(), 0, "expected EOF after the refusal: {line:?}");

    // the admitted client is still served
    let run = ask(&mut a, r#"{"kernel":"Box-2D9P","size":[8,8],"iters":1,"values":"none"}"#);
    assert_eq!(run.get("ok"), Some(&Json::Bool(true)), "{run:?}");
    let stats = ask(&mut a, r#"{"op":"stats"}"#);
    let conns = stats.get("conns").unwrap_or_else(|| panic!("no conns block: {stats:?}"));
    assert_eq!(conns.get("max").and_then(Json::as_f64), Some(1.0), "{stats:?}");
    // the rejection counter is process-wide
    assert!(conns.get("rejected").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0, "{stats:?}");

    let bye = ask(&mut a, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)), "{bye:?}");
    let summary = server.join().expect("serve thread panicked");
    assert!(summary.is_ok(), "serve returned {summary:?}");
}

/// A run whose answer is not finite is still one valid JSON line: the
/// non-finite `sum`/`min`/`max` (and `values` entries) travel as the
/// strings `"NaN"`, `"inf"` and `"-inf"`, and the digest is the offline
/// session's, value by value. Laplace-2D-o4 blows up within 600 steps,
/// so on the tensor cores the run reaches the strip kernel's dense
/// instance.
#[test]
fn non_finite_answers_are_valid_json_with_the_offline_digest() {
    let core = ServerCore::new(ServeConfig::default());
    let mut conn = ConnState::new();
    let frame = r#"{"kernel":"Laplace-2D-o4","size":[16,16],"iters":600}"#;
    let dense_before = lorastencil::schedule::band_fallbacks().get();
    assert!(matches!(core.handle_line(&mut conn, frame), Action::Respond));
    assert!(lorastencil::schedule::band_fallbacks().get() > dense_before, "no dense strip ran");
    let doc = Json::parse(&conn.resp)
        .unwrap_or_else(|e| panic!("non-finite answer is not JSON ({e}): {}", conn.resp));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{}", conn.resp);
    for key in ["sum", "min", "max"] {
        let text = doc.get(key).and_then(Json::as_str);
        assert!(matches!(text, Some("NaN" | "inf" | "-inf")), "{key} in {}", conn.resp);
    }

    let kernel = stencil_cli::find_kernel("Laplace-2D-o4").unwrap();
    let mut sess = ExecSession::new(&kernel, ExecConfig::default(), &[16, 16]);
    sess.fill_with(|idx| stencil_cli::grid_value(42, idx));
    sess.run(600);
    let mut crc = Crc32::new();
    for plane in sess.planes() {
        for &v in plane.as_slice() {
            crc.update(&v.to_bits().to_le_bytes());
        }
    }
    let want = format!("crc32:{:08x}", crc.finish());
    assert_eq!(doc.get("digest").and_then(Json::as_str), Some(&want[..]), "{}", conn.resp);
    // where two NaNs meet, every evaluator keeps the addend's
    // (`tcu_sim::acc_add`), so the answer's NaN bits, and with them its
    // digest, are the same on every build and host ISA
    assert_eq!(want, "crc32:1a08fd75");

    // the full values list is valid JSON too
    let full = r#"{"kernel":"Laplace-2D-o4","size":[16,16],"iters":600,"values":"full"}"#;
    assert!(matches!(core.handle_line(&mut conn, full), Action::Respond));
    let doc = Json::parse(&conn.resp).unwrap_or_else(|e| panic!("{e}: {}", conn.resp));
    let Some(Json::Arr(values)) = doc.get("values") else { panic!("no values: {}", conn.resp) };
    assert_eq!(values.len(), 256);
}
