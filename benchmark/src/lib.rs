//! The repository's benchmark: 2048-bit two-party inference over
//! loopback TCP, measured end to end and layer by layer. README.md in
//! this directory defines every metric and workload.

pub mod cli;
pub mod deploy;
pub mod json;
pub mod manifest;
pub mod run;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
