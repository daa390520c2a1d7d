//! psmd — umbrella crate re-exporting the workspace libraries.
pub use psmd_core as core;
pub use psmd_device as device;
pub use psmd_multidouble as multidouble;
pub use psmd_runtime as runtime;
pub use psmd_series as series;
pub use psmd_serve as serve;
pub use psmd_track as track;

/// The README's Rust examples, compiled and run by `cargo test --doc` so
/// that they track the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
