//! Every shipped kernel must lint clean: no error-severity diagnostics
//! under the baseline machine configuration, in any parameterization.

use hb_lint::{lint, LintConfig, Severity};

#[test]
fn all_kernels_lint_without_errors() {
    let lc = LintConfig::default();
    for (name, kernel) in hb_kernels::kernels() {
        let errors: Vec<String> = lint(&kernel.program(), &lc)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.to_string())
            .collect();
        assert!(
            errors.is_empty(),
            "kernel {name} has lint errors:\n{}",
            errors.join("\n")
        );
    }
}
