//! Service counters and latency histograms, rendered as plain text for
//! `GET /metrics`.
//!
//! Since PR 5 the primitives come from `rumor-obs`: every series is
//! registered in a shared [`Registry`] whose renderer owns the
//! histogram-bucket formatting (cumulative per-bound counts, `+Inf`,
//! `_sum`) — the page is byte-for-byte identical to the hand-rolled
//! formatter it replaced, which the `exposition_is_stable_byte_for_byte`
//! test pins. Everything is lock-free atomics on the record path; the
//! registry is only walked at render time.

use rumor_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Upper bounds (milliseconds) of the latency histogram buckets; a
/// final implicit `+Inf` bucket catches the rest.
pub const LATENCY_BUCKETS_MS: [u64; 7] = [1, 5, 25, 100, 500, 2_500, 10_000];

/// The endpoints with per-endpoint series, in render order.
pub const ENDPOINTS: [&str; 7] = [
    "healthz",
    "metrics",
    "simulate",
    "threshold",
    "optimize",
    "ensemble",
    "jobs",
];

/// Index into [`ENDPOINTS`] for a request target, if it is known. The
/// jobs family (`/v1/jobs`, `/v1/jobs/{id}`, …) shares one series.
pub fn endpoint_index(method: &str, target: &str) -> Option<usize> {
    match (method, target) {
        ("GET", "/healthz") => Some(0),
        ("GET", "/metrics") => Some(1),
        ("POST", "/v1/simulate") => Some(2),
        ("POST", "/v1/threshold") => Some(3),
        ("POST", "/v1/optimize") => Some(4),
        ("POST", "/v1/ensemble") => Some(5),
        ("GET" | "POST", t) if t == "/v1/jobs" || t.starts_with("/v1/jobs/") => Some(6),
        _ => None,
    }
}

struct EndpointSeries {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// All service metrics. Cheap to share behind an `Arc`; each server
/// instance owns its own registry (tests run several per process).
pub struct Metrics {
    registry: Registry,
    /// Connections admitted by the event loop.
    pub admitted: Arc<Counter>,
    /// Compute requests shed with `503` because the compute queue was
    /// full.
    pub rejected_queue_full: Arc<Counter>,
    /// Requests rejected with `413` (body cap).
    pub rejected_body_too_large: Arc<Counter>,
    /// Requests rejected with `400`/`501` (malformed / unsupported).
    pub rejected_malformed: Arc<Counter>,
    /// Connections shed with `503` at the connection cap.
    pub rejected_max_connections: Arc<Counter>,
    /// Requests that exceeded their wall-clock deadline (`504`).
    pub deadline_exceeded: Arc<Counter>,
    /// Requests that timed out mid-read (`408`).
    pub read_timeouts: Arc<Counter>,
    /// Currently executing requests.
    pub in_flight: Arc<Gauge>,
    /// Result-cache hits.
    pub cache_hits: Arc<Counter>,
    /// Result-cache misses.
    pub cache_misses: Arc<Counter>,
    /// Result-cache evictions.
    pub cache_evictions: Arc<Counter>,
    /// `epoll_wait` returns on the event loop (idle or not).
    pub epoll_wakeups: Arc<Counter>,
    /// Connections currently registered with the event loop.
    pub epoll_connections: Arc<Gauge>,
    /// Compute tasks queued for the worker pool.
    pub ready_queue_depth: Arc<Gauge>,
    /// Data chunks written on `/v1/jobs/{id}/stream` responses.
    pub stream_chunks: Arc<Counter>,
    per_endpoint: [EndpointSeries; ENDPOINTS.len()],
    /// Durable-job series (shared with the [`rumor_jobs::JobManager`]),
    /// rendered at the end of the page.
    pub jobs: Arc<rumor_jobs::JobsMetrics>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// A zeroed metrics block. Registration order here *is* the render
    /// order of the `/metrics` page — do not reorder.
    pub fn new() -> Self {
        let mut registry = Registry::new();
        let admitted = registry.counter("rumor_serve_admitted_total");
        let rejected_queue_full =
            registry.counter("rumor_serve_rejected_total{reason=\"queue_full\"}");
        let rejected_body_too_large =
            registry.counter("rumor_serve_rejected_total{reason=\"body_too_large\"}");
        let rejected_malformed =
            registry.counter("rumor_serve_rejected_total{reason=\"malformed\"}");
        let rejected_max_connections =
            registry.counter("rumor_serve_rejected_total{reason=\"max_connections\"}");
        let deadline_exceeded = registry.counter("rumor_serve_deadline_exceeded_total");
        let read_timeouts = registry.counter("rumor_serve_read_timeouts_total");
        let in_flight = registry.gauge("rumor_serve_in_flight");
        let cache_hits = registry.counter("rumor_serve_cache_hits_total");
        let cache_misses = registry.counter("rumor_serve_cache_misses_total");
        let cache_evictions = registry.counter("rumor_serve_cache_evictions_total");
        let epoll_wakeups = registry.counter("rumor_serve_epoll_wakeups_total");
        let epoll_connections = registry.gauge("rumor_serve_epoll_connections");
        let ready_queue_depth = registry.gauge("rumor_serve_ready_queue_depth");
        let stream_chunks = registry.counter("rumor_serve_stream_chunks_total");
        let per_endpoint = ENDPOINTS.map(|name| EndpointSeries {
            requests: registry
                .counter(format!("rumor_serve_requests_total{{endpoint=\"{name}\"}}")),
            errors: registry.counter(format!("rumor_serve_errors_total{{endpoint=\"{name}\"}}")),
            latency: registry.histogram(
                "rumor_serve_request_duration_ms",
                format!("endpoint=\"{name}\""),
                &LATENCY_BUCKETS_MS,
            ),
        });
        let jobs = rumor_jobs::JobsMetrics::register(&mut registry);
        Metrics {
            registry,
            admitted,
            rejected_queue_full,
            rejected_body_too_large,
            rejected_malformed,
            rejected_max_connections,
            deadline_exceeded,
            read_timeouts,
            in_flight,
            cache_hits,
            cache_misses,
            cache_evictions,
            epoll_wakeups,
            epoll_connections,
            ready_queue_depth,
            stream_chunks,
            per_endpoint,
            jobs,
        }
    }

    /// Records one finished request against an endpoint series.
    pub fn record(&self, endpoint: usize, status: u16, elapsed_ms: u64) {
        let series = &self.per_endpoint[endpoint];
        series.requests.inc();
        if status >= 400 {
            series.errors.inc();
        }
        series.latency.observe(elapsed_ms);
    }

    /// Renders the plain-text metrics page from the shared registry.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_routing_table() {
        assert_eq!(endpoint_index("GET", "/healthz"), Some(0));
        assert_eq!(endpoint_index("POST", "/v1/simulate"), Some(2));
        assert_eq!(endpoint_index("POST", "/healthz"), None);
        assert_eq!(endpoint_index("GET", "/v1/simulate"), None);
        assert_eq!(endpoint_index("GET", "/nope"), None);
        assert_eq!(endpoint_index("POST", "/v1/jobs"), Some(6));
        assert_eq!(endpoint_index("GET", "/v1/jobs/job-000001"), Some(6));
        assert_eq!(
            endpoint_index("GET", "/v1/jobs/job-000001/results"),
            Some(6)
        );
        assert_eq!(endpoint_index("DELETE", "/v1/jobs"), None);
        assert_eq!(endpoint_index("GET", "/v1/jobsx"), None);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let m = Metrics::new();
        m.record(2, 200, 3); // le=5
        m.record(2, 200, 90); // le=100
        m.record(2, 500, 99_999); // +Inf
        let text = m.render();
        assert!(text
            .contains("rumor_serve_request_duration_ms_bucket{endpoint=\"simulate\",le=\"5\"} 1"));
        assert!(text.contains(
            "rumor_serve_request_duration_ms_bucket{endpoint=\"simulate\",le=\"10000\"} 2"
        ));
        assert!(text.contains(
            "rumor_serve_request_duration_ms_bucket{endpoint=\"simulate\",le=\"+Inf\"} 3"
        ));
        assert!(text.contains("rumor_serve_requests_total{endpoint=\"simulate\"} 3"));
        assert!(text.contains("rumor_serve_errors_total{endpoint=\"simulate\"} 1"));
    }

    #[test]
    fn exposition_is_stable_byte_for_byte() {
        // Drive a deterministic set of recordings through the registry
        // and through the legacy formatter (fed the same tallies), and
        // require identical output — the contract that dashboards and
        // scrapers survive the rumor-obs migration unchanged.
        let m = Metrics::new();
        m.admitted.add(7);
        m.rejected_queue_full.inc();
        m.deadline_exceeded.add(2);
        m.in_flight.set(3);
        m.cache_hits.add(5);
        m.cache_misses.add(4);
        m.stream_chunks.add(6);
        // (endpoint, status, elapsed_ms); covers first/middle/+Inf buckets.
        let recordings: &[(usize, u16, u64)] = &[
            (0, 200, 0),
            (2, 200, 3),
            (2, 200, 90),
            (2, 500, 99_999),
            (4, 400, 17),
            (5, 200, 2_400),
        ];
        for &(idx, status, ms) in recordings {
            m.record(idx, status, ms);
        }

        // Legacy formatter, fed per-bucket tallies recomputed exactly as
        // the old AtomicU64 array accumulated them.
        let mut expected = String::new();
        let line = |out: &mut String, name: &str, v: u64| {
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        line(&mut expected, "rumor_serve_admitted_total", 7);
        line(
            &mut expected,
            "rumor_serve_rejected_total{reason=\"queue_full\"}",
            1,
        );
        line(
            &mut expected,
            "rumor_serve_rejected_total{reason=\"body_too_large\"}",
            0,
        );
        line(
            &mut expected,
            "rumor_serve_rejected_total{reason=\"malformed\"}",
            0,
        );
        line(
            &mut expected,
            "rumor_serve_rejected_total{reason=\"max_connections\"}",
            0,
        );
        line(&mut expected, "rumor_serve_deadline_exceeded_total", 2);
        line(&mut expected, "rumor_serve_read_timeouts_total", 0);
        line(&mut expected, "rumor_serve_in_flight", 3);
        line(&mut expected, "rumor_serve_cache_hits_total", 5);
        line(&mut expected, "rumor_serve_cache_misses_total", 4);
        line(&mut expected, "rumor_serve_cache_evictions_total", 0);
        line(&mut expected, "rumor_serve_epoll_wakeups_total", 0);
        line(&mut expected, "rumor_serve_epoll_connections", 0);
        line(&mut expected, "rumor_serve_ready_queue_depth", 0);
        line(&mut expected, "rumor_serve_stream_chunks_total", 6);
        for (idx, name) in ENDPOINTS.iter().enumerate() {
            let hits: Vec<(u16, u64)> = recordings
                .iter()
                .filter(|r| r.0 == idx)
                .map(|&(_, s, ms)| (s, ms))
                .collect();
            line(
                &mut expected,
                &format!("rumor_serve_requests_total{{endpoint=\"{name}\"}}"),
                hits.len() as u64,
            );
            line(
                &mut expected,
                &format!("rumor_serve_errors_total{{endpoint=\"{name}\"}}"),
                hits.iter().filter(|(s, _)| *s >= 400).count() as u64,
            );
            let mut per_bucket = vec![0u64; LATENCY_BUCKETS_MS.len() + 1];
            let mut sum = 0u64;
            for &(_, ms) in &hits {
                let b = LATENCY_BUCKETS_MS
                    .iter()
                    .position(|&bound| ms <= bound)
                    .unwrap_or(LATENCY_BUCKETS_MS.len());
                per_bucket[b] += 1;
                sum += ms;
            }
            let mut cumulative = 0u64;
            for (b, &bound) in LATENCY_BUCKETS_MS.iter().enumerate() {
                cumulative += per_bucket[b];
                line(
                    &mut expected,
                    &format!(
                        "rumor_serve_request_duration_ms_bucket{{endpoint=\"{name}\",le=\"{bound}\"}}"
                    ),
                    cumulative,
                );
            }
            cumulative += per_bucket[LATENCY_BUCKETS_MS.len()];
            line(
                &mut expected,
                &format!(
                    "rumor_serve_request_duration_ms_bucket{{endpoint=\"{name}\",le=\"+Inf\"}}"
                ),
                cumulative,
            );
            line(
                &mut expected,
                &format!("rumor_serve_request_duration_ms_sum{{endpoint=\"{name}\"}}"),
                sum,
            );
        }
        // The durable-job series render last, in registration order.
        line(&mut expected, "rumor_jobs_submitted_total", 0);
        line(&mut expected, "rumor_jobs_recovered_total", 0);
        for state in ["done", "partial", "failed", "cancelled"] {
            line(
                &mut expected,
                &format!("rumor_jobs_finished_total{{state=\"{state}\"}}"),
                0,
            );
        }
        line(&mut expected, "rumor_jobs_points_completed_total", 0);
        line(&mut expected, "rumor_jobs_points_retried_total", 0);
        line(&mut expected, "rumor_jobs_points_quarantined_total", 0);
        line(&mut expected, "rumor_jobs_running", 0);
        assert_eq!(m.render(), expected);
        // Rendering twice is also stable (no internal mutation).
        assert_eq!(m.render(), m.render());
    }
}
