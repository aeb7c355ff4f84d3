//! What the repo's benchmark (`hb_perf/`, a workspace of its own that root
//! `cargo test` does not build) relies on from `hb_kernels`: `Benchmark`
//! is implementable with `name`/`dwarf`/`run` alone and such a type boxes
//! beside the `suite()` entries; and what everything else relies on from
//! the registry.

use hammerblade::core::{CellDim, MachineConfig, SimError};
use hammerblade::kernels::{by_name, kernels, suite, BenchStats, Benchmark, SizeClass};

/// A benchmark from outside the suite: exactly the three required methods.
struct Outsider;

impl Benchmark for Outsider {
    fn name(&self) -> &'static str {
        "OUTSIDER"
    }

    fn dwarf(&self) -> &'static str {
        "none"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        suite()[0].run(cfg, size)
    }
}

#[test]
fn an_outside_benchmark_needs_three_methods_and_boxes_beside_the_suite() {
    let mut benches: Vec<Box<dyn Benchmark>> = suite();
    benches.push(Box::new(Outsider));
    assert_eq!(benches.len(), 11);
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 2, y: 2 },
        ..MachineConfig::baseline_16x8()
    };
    let outsider = benches.last().unwrap();
    assert_eq!((outsider.name(), outsider.dwarf()), ("OUTSIDER", "none"));
    assert!(outsider.run(&cfg, SizeClass::Tiny).unwrap().cycles > 0);
}

#[test]
fn the_registry_is_twelve_tokens_and_the_suite_is_its_ten_defaults() {
    let tokens: Vec<&str> = kernels().iter().map(|(token, _)| *token).collect();
    assert_eq!(tokens.len(), 12);
    for (i, token) in tokens.iter().enumerate() {
        assert!(
            !tokens[..i].iter().any(|t| t.eq_ignore_ascii_case(token)),
            "duplicate token {token}"
        );
        assert!(
            !token.contains(char::is_whitespace),
            "{token:?} has a space"
        );
    }

    // Figure 11 order, memory-intensive to compute-intensive.
    let fig11 = [
        "PR", "BFS", "SpGEMM", "BH", "FFT", "Jacobi", "SGEMM", "BS", "SW", "AES",
    ];
    let defaults: Vec<&str> = (tokens.iter().copied())
        .filter(|token| !token.contains('@'))
        .collect();
    assert_eq!(defaults, fig11);
    let names: Vec<&str> = suite().iter().map(|b| b.name()).collect();
    assert_eq!(names, fig11, "suite() is the un-suffixed entries, in order");

    // A variant keeps its default's name; the token tells them apart.
    for (token, kernel) in kernels() {
        assert_eq!(kernel.name(), token.split('@').next().unwrap());
        for spelling in [token.to_ascii_lowercase(), token.to_ascii_uppercase()] {
            let found = by_name(&spelling).unwrap_or_else(|| panic!("{spelling} not found"));
            assert_eq!(found.name(), kernel.name());
            assert_eq!(
                found.program().words(),
                kernel.program().words(),
                "{spelling} resolved to another parameterization"
            );
        }
    }
    assert!(by_name("SGEMM@tiled").is_none());
    assert!(by_name("").is_none());
}
