//! Pipeline observability: trace sinks, Perfetto export, and a
//! Konata-style ASCII pipeview.
//!
//! The event vocabulary and the [`TraceSink`] contract live in
//! [`ss_types::trace`]; the pipeline in `ss-core` feeds whatever sink it
//! is monomorphized with. This crate supplies the sinks worth having and
//! the two renderers that turn a captured event stream into something a
//! human can read:
//!
//! * [`RingSink`] — bounded ring of the most recent events; the default
//!   capture for fuzzing and failure reports ("flight recorder").
//! * [`CaptureSink`] — keeps everything (optionally only a µ-op sequence
//!   window) for offline rendering.
//! * [`perfetto::export_chrome_trace`] — Chrome-trace-event JSON
//!   (`chrome://tracing`, [Perfetto](https://ui.perfetto.dev)): one
//!   track per pipeline stage, counter tracks for occupancy, and flow
//!   events linking a replay-triggering load to every squashed
//!   dependent.
//! * [`pipeview`] — gem5-O3/Konata-style ASCII rendering of per-µ-op
//!   stage timelines, plus a two-config differ for terminal A/B reading
//!   of the same kernel window.
//! * [`json`] — a minimal hand-rolled JSON parser (the workspace has no
//!   external dependencies) used by
//!   [`json::validate_chrome_trace`] to schema-check exported traces in
//!   tests and CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod capture;
pub mod json;
pub mod perfetto;
pub mod pipeview;
mod ring;

pub use capture::CaptureSink;
pub use ring::RingSink;

// Re-export the vocabulary so sink users need only one crate.
pub use ss_types::trace::{NullSink, TraceEvent, TraceSink};
