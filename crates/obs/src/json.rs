//! JSON escaping for the hand-written exporters and the strict syntax
//! validator their golden tests use; both are `hb_mem::json`, the
//! workspace's one JSON parser, shared with `hb-serve`.

pub use hb_mem::json::{escape, validate};
