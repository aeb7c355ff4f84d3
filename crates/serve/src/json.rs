//! JSON string quoting for record writers; the parser, the validator and
//! the record codec are `hb_mem::json`, shared with `hb-obs`.

pub use hb_mem::json::quote;
