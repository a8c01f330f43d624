//! Hierarchical spans and point-in-time events.
//!
//! A [`Span`] measures a region with `Instant` (monotonic) timing and
//! carries structured fields. Spans nest through a thread-local stack:
//! a span opened while another is live records it as `parent`, and
//! [`event`]s attach to the innermost live span. Span IDs and request
//! trace IDs ([`next_trace_id`]) come from two process-wide counters,
//! so a trace ID depends only on how many trace IDs were minted before
//! it, never on how many spans earlier requests opened. The two ID
//! spaces overlap: a request's records carry its trace ID in their
//! `trace` field, and that field, not a span ID, is what joins them.
//!
//! Disabled-path cost: `span()` performs one relaxed atomic load per
//! facility and returns an inert guard; `field()` on an inert guard is
//! a branch on an `Option` discriminant.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::rollup;
use crate::sink::{self, LogFormat};

/// A structured field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Source of span IDs.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Source of request trace IDs, kept apart from span IDs so that a
/// trace ID (and with it a response's bytes) does not depend on what
/// the process traced before.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Fused gate for [`span`]: true iff the sink or rollup collection is
/// on. Refreshed by `sink::init` and `rollup::set_rollup` (the only
/// writers of either flag), so the disabled-path cost of a span is one
/// relaxed load instead of two.
static ACTIVE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Recomputes the fused gate from the two facility flags.
pub(crate) fn refresh_active() {
    ACTIVE.store(
        sink::enabled() || rollup::rollup_enabled(),
        Ordering::Relaxed,
    );
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Allocates a fresh process-unique trace ID for threading through a
/// request (accept → response) independent of any live span. Trace IDs
/// count up from 1 in the order they are minted; span IDs have their
/// own counter.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The innermost live span's ID on this thread, or 0 if none.
pub fn current_span_id() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

struct SpanMeta {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

/// RAII guard for a timed region; emits (and/or rolls up) on drop.
pub struct Span {
    meta: Option<SpanMeta>,
}

/// Opens a span named `name`. Inert (near-zero cost) unless the sink
/// or rollup collection is enabled.
pub fn span(name: &'static str) -> Span {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Span { meta: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_span_id();
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        meta: Some(SpanMeta {
            name,
            id,
            parent,
            start: Instant::now(),
            fields: Vec::new(),
        }),
    }
}

impl Span {
    /// Attaches a structured field; no-op on an inert span.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(m) = &mut self.meta {
            m.fields.push((key, value.into()));
        }
    }

    /// This span's ID (0 when inert).
    pub fn id(&self) -> u64 {
        self.meta.as_ref().map_or(0, |m| m.id)
    }

    /// Whether the span is actually recording.
    pub fn active(&self) -> bool {
        self.meta.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(m) = self.meta.take() else { return };
        STACK.with(|s| {
            let mut st = s.borrow_mut();
            if let Some(pos) = st.iter().rposition(|&x| x == m.id) {
                st.remove(pos);
            }
        });
        let ns = u64::try_from(m.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        rollup::observe_span(m.name, ns);
        match sink::format() {
            LogFormat::Off => {}
            LogFormat::Text => sink::emit(&render_text(
                "span",
                m.name,
                Some((m.id, m.parent, ns / 1_000)),
                &m.fields,
            )),
            LogFormat::Json => sink::emit(&render_json(
                "span",
                m.name,
                Some((m.id, m.parent, ns / 1_000)),
                &m.fields,
            )),
        }
    }
}

/// Emits a point-in-time record attached to the innermost live span.
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    match sink::format() {
        LogFormat::Off => {}
        LogFormat::Text => sink::emit(&render_text("event", name, None, fields)),
        LogFormat::Json => sink::emit(&render_json("event", name, None, fields)),
    }
}

fn render_text(
    kind: &str,
    name: &str,
    span_part: Option<(u64, u64, u64)>,
    fields: &[(&'static str, FieldValue)],
) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(out, "[{kind}] {name}");
    match span_part {
        Some((id, parent, us)) => {
            let _ = write!(out, " id={id} parent={parent} us={us}");
        }
        None => {
            let parent = current_span_id();
            if parent != 0 {
                let _ = write!(out, " parent={parent}");
            }
        }
    }
    for (k, v) in fields {
        match v {
            FieldValue::U64(x) => {
                let _ = write!(out, " {k}={x}");
            }
            FieldValue::I64(x) => {
                let _ = write!(out, " {k}={x}");
            }
            FieldValue::F64(x) => {
                let _ = write!(out, " {k}={x}");
            }
            FieldValue::Bool(x) => {
                let _ = write!(out, " {k}={x}");
            }
            FieldValue::Str(x) => {
                let _ = write!(out, " {k}={x:?}");
            }
        }
    }
    out
}

fn render_json(
    kind: &str,
    name: &str,
    span_part: Option<(u64, u64, u64)>,
    fields: &[(&'static str, FieldValue)],
) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"type\":\"{kind}\",\"name\":");
    push_json_str(&mut out, name);
    match span_part {
        Some((id, parent, us)) => {
            let _ = write!(out, ",\"id\":{id},\"parent\":{parent},\"us\":{us}");
        }
        None => {
            let parent = current_span_id();
            let _ = write!(out, ",\"parent\":{parent}");
        }
    }
    for (k, v) in fields {
        out.push(',');
        push_json_str(&mut out, k);
        out.push(':');
        match v {
            FieldValue::U64(x) => {
                let _ = write!(out, "{x}");
            }
            FieldValue::I64(x) => {
                let _ = write!(out, "{x}");
            }
            FieldValue::F64(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            FieldValue::Bool(x) => {
                let _ = write!(out, "{x}");
            }
            FieldValue::Str(x) => push_json_str(&mut out, x),
        }
    }
    out.push('}');
    out
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_span_costs_nothing_observable() {
        // Neither sink nor rollup enabled by default in this process.
        let mut sp = span("test.noop");
        if !sp.active() {
            sp.field("ignored", 1u64);
            assert_eq!(sp.id(), 0);
        }
    }

    #[test]
    fn json_escaping_is_safe() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_record_shape() {
        let line = render_json(
            "event",
            "x.y",
            None,
            &[
                ("n", FieldValue::U64(3)),
                ("ok", FieldValue::Bool(true)),
                ("r", FieldValue::F64(0.5)),
                ("bad", FieldValue::F64(f64::NAN)),
                ("s", FieldValue::Str("q\"".into())),
            ],
        );
        assert_eq!(
            line,
            "{\"type\":\"event\",\"name\":\"x.y\",\"parent\":0,\"n\":3,\"ok\":true,\"r\":0.5,\"bad\":null,\"s\":\"q\\\"\"}"
        );
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
    }
}
