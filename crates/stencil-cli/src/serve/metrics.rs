//! Serve-side observability: process-wide counters from
//! [`foundation::obs`], a per-server latency histogram, plus per-tenant
//! accounting.
//!
//! Handles to the named counters are resolved once at server start (the
//! registry lookup scans a `Mutex<Vec>`; caching the `&'static`
//! references keeps the request path down to relaxed atomic adds). The
//! latency histogram belongs to the server, not the registry, so `stats`
//! on one server never reports another server's jobs.
//! Tenant stats live behind a `Mutex<HashMap>` — lookups by `&str`
//! allocate nothing once a tenant exists, so the steady-state guarantee
//! covers multi-tenant traffic too.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use foundation::json::{Json, ToJson};
use foundation::obs::{counter, Counter, Histogram};

/// Per-tenant accounting: request counts and a latency histogram.
pub struct TenantStats {
    pub jobs_ok: AtomicU64,
    pub jobs_err: AtomicU64,
    pub latency: Histogram,
}

impl TenantStats {
    fn new() -> Self {
        TenantStats {
            jobs_ok: AtomicU64::new(0),
            jobs_err: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }
}

/// All the daemon's metrics handles, resolved once.
pub struct ServerMetrics {
    /// Jobs answered successfully / with a typed error.
    pub jobs_ok: &'static Counter,
    pub jobs_err: &'static Counter,
    /// Plan-cache outcomes as seen by the request path.
    pub cache_hits: &'static Counter,
    pub cache_misses: &'static Counter,
    /// Connections refused at the `max_conns` limit.
    pub rejected: &'static Counter,
    /// End-to-end job latency (parse to response-ready) of this server.
    pub latency: Histogram,
    tenants: Mutex<HashMap<String, Arc<TenantStats>>>,
}

impl ServerMetrics {
    pub fn new() -> Self {
        ServerMetrics {
            jobs_ok: counter("serve_jobs_ok"),
            jobs_err: counter("serve_jobs_err"),
            cache_hits: counter("serve_cache_hits"),
            cache_misses: counter("serve_cache_misses"),
            rejected: counter("serve_rejected"),
            latency: Histogram::new(),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The stats bucket for `tenant`, creating it on first sighting
    /// (the only allocating path; repeat tenants are a map lookup).
    pub fn tenant(&self, tenant: &str) -> Arc<TenantStats> {
        let mut map = self.tenants.lock().unwrap();
        if let Some(t) = map.get(tenant) {
            return Arc::clone(t);
        }
        let t = Arc::new(TenantStats::new());
        map.insert(tenant.to_string(), Arc::clone(&t));
        t
    }

    /// Record one finished job for global and tenant metrics.
    pub fn record(&self, tenant: &str, ok: bool, latency_ns: u64) {
        let t = self.tenant(tenant);
        if ok {
            self.jobs_ok.add(1);
            t.jobs_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_err.add(1);
            t.jobs_err.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record_ns(latency_ns);
        t.latency.record_ns(latency_ns);
    }

    /// Tenant table for the `stats` op (sorted by name for stable output).
    pub fn tenants_json(&self) -> Json {
        let map = self.tenants.lock().unwrap();
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        Json::Obj(
            names
                .into_iter()
                .map(|name| {
                    let t = &map[name];
                    (
                        name.clone(),
                        Json::obj([
                            ("jobs_ok", t.jobs_ok.load(Ordering::Relaxed).to_json()),
                            ("jobs_err", t.jobs_err.load(Ordering::Relaxed).to_json()),
                            ("p50_ns", t.latency.quantile_ns(0.5).to_json()),
                            ("p99_ns", t.latency.quantile_ns(0.99).to_json()),
                            ("max_ns", t.latency.max_ns().to_json()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_split_by_tenant_and_outcome() {
        let m = ServerMetrics::new();
        // obs counters are process-global; measure deltas
        let ok0 = m.jobs_ok.get();
        m.record("alice", true, 1_000);
        m.record("alice", true, 3_000);
        m.record("bob", false, 9_000);
        assert_eq!(m.jobs_ok.get() - ok0, 2);
        let alice = m.tenant("alice");
        assert_eq!(alice.jobs_ok.load(Ordering::Relaxed), 2);
        assert_eq!(alice.jobs_err.load(Ordering::Relaxed), 0);
        assert!(alice.latency.quantile_ns(0.5) >= 1_000);
        let t = m.tenants_json();
        assert!(t.get("bob").and_then(|b| b.get("jobs_err")).is_some());
    }
}
