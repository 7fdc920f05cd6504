//! # serve — the long-running scenario server behind `ddosim serve`
//!
//! The batch CLI builds a world, runs it, and exits. This crate is the
//! production-service framing of the same engine: one resident process
//! listens on a local TCP socket, accepts scenario submissions as
//! newline-delimited JSON (`ddosim.serve/1`), runs each job on a
//! resident worker pool (one single-threaded world per worker, exactly
//! like the sweep runners in `ddosim_core::experiment`), and streams
//! per-job NDJSON frames back while the simulation is still going:
//! job-accepted/started, flight-recorder events the instant they are
//! recorded (via the telemetry crate's streaming sink), periodic
//! `SeriesSet` samples, then a final `RunResult` row. Multiple clients —
//! and multiple jobs per connection — multiplex over the same framing,
//! demuxed by job id.
//!
//! **Serving must not perturb determinism.** The job runner uses the
//! same `TelemetryConfig` the offline `--scenario --record` path uses,
//! the streaming sink is a pure observer of the flight recorder, and
//! incremental stepping (`Ddosim::run_prefix`) is the same resumable
//! phase walk checkpoint restore already proves byte-identical to a
//! straight-through run. CI enforces the consequence: a trace streamed
//! over the socket and reassembled by [`client::submit`] is
//! byte-identical to the same seed+plan run offline.
//!
//! A poisoned job (invalid config, mid-run panic) emits an `error`
//! frame for that job id and the server keeps serving — the same
//! per-row isolation ([`ddosim_core::pool::isolate`]) the sweep paths use.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod framing;
pub mod protocol;
pub mod server;

pub use client::{submit, SubmitOptions, SubmitOutcome};
pub use framing::{FrameError, LineReader, MAX_LINE_BYTES};
pub use protocol::{job_id, Action, JobSpec, SubmitRequest, SERVE_SCHEMA};
pub use server::{serve, Server, ServeOptions};
