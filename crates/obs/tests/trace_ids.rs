//! Trace IDs do not move with span activity: spans opened between two
//! `next_trace_id()` calls leave the two IDs consecutive, so a request's
//! `X-Trace-Id` (and with it the response's byte count) does not depend
//! on how much earlier requests traced. A single test in its own binary,
//! because the ID counters and the rollup switch are process-wide.

#[test]
fn spans_between_two_trace_ids_leave_them_consecutive() {
    rumor_obs::set_rollup(true);
    let first = rumor_obs::next_trace_id();
    for _ in 0..3 {
        let outer = rumor_obs::span("test.outer");
        assert_ne!(outer.id(), 0, "with rollups on, spans are live");
        let _inner = rumor_obs::span("test.inner");
    }
    let second = rumor_obs::next_trace_id();
    rumor_obs::set_rollup(false);
    assert_eq!(second, first + 1);
}
