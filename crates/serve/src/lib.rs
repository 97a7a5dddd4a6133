//! # SibylFS oracle server
//!
//! The paper positions the formal model as a test *oracle*; this crate turns
//! the batch checker into a network service. [`server::start`] runs a
//! long-lived TCP server that accepts traces over a length-prefixed wire
//! protocol ([`protocol`]), checks them on a shared
//! [`WorkPool`](sibylfs_core::pool::WorkPool), and streams structured
//! verdicts back in request order. [`client::BlockingClient`] is the matching
//! library client, and the `sibylfs_loadgen` binary drives a server with many
//! concurrent clients to measure checked-traces/sec and latency percentiles.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::BlockingClient;
pub use protocol::{Request, Response};
pub use server::{start, ServeOptions, ServerHandle};
