//! Table I: the parallel benchmark suite, its dwarfs and inputs.

use crate::{header, row};
use hb_serve::cli::Args;

pub fn run(_: &Args) {
    println!("Table I — parallel benchmark suite (Berkeley dwarfs coverage)\n");
    let widths = [8usize, 30, 36];
    header(&["kernel", "dwarf", "input (synthetic stand-in)"], &widths);
    let inputs: &[(&str, &str)] = &[
        ("PR", "RMAT power-law graph (wiki-Vote-like)"),
        ("BFS", "RMAT power-law + road grid (roadNet-like)"),
        ("SpGEMM", "uniform & power-law sparse matrices"),
        ("BH", "random bodies in the unit square"),
        ("FFT", "batched random complex signals"),
        ("Jacobi", "random 3-D grid, 1x1xZ column per tile"),
        ("SGEMM", "random dense f32 matrices"),
        ("BS", "random option parameters"),
        ("SW", "random DNA-alphabet sequence pairs"),
        ("AES", "random plaintext blocks, AES-128 ECB"),
    ];
    for bench in hb_kernels::suite() {
        let input = inputs
            .iter()
            .find(|(n, _)| *n == bench.name())
            .map_or("", |(_, i)| *i);
        row(
            &[
                bench.name().to_owned(),
                bench.dwarf().to_owned(),
                input.to_owned(),
            ],
            &widths,
        );
    }
    println!(
        "\nnote: the paper uses SuiteSparse matrices (wiki-Vote, roadNet-CA, ...);\n\
         offline generators with matching degree structure stand in for them\n\
         (see DESIGN.md substitutions)."
    );
}
