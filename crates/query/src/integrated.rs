//! Integrated program and query optimization (paper §4.2, figure 4).
//!
//! The query rules ride the prim table ([`crate::prims`]) into the program
//! optimizer's one loop: enabling queries on a session is all it takes.

/// Reflective optimization options for query functions: the defaults,
/// since query rules follow the query primitives. Kept for callers that
/// predate that (the benchmark harness among them).
pub fn reflect_options_with_queries() -> tml_reflect::ReflectOptions {
    tml_reflect::ReflectOptions::default()
}
