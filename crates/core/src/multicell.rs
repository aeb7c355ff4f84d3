//! Multi-Cell scaling estimator, replicating the paper's own methodology:
//! "a multi-Cell simulation has been modeled by using multiple single-Cell
//! simulations running in parallel and conservatively estimated data
//! transfer time between program phases based on data transfer size and
//! network bandwidth" (§V.A).

use crate::config::MachineConfig;

/// Estimates the inter-phase transfer time of a multi-Cell execution; a
/// phase's run time is its longest single-Cell run plus that transfer.
#[derive(Debug, Clone, Copy)]
pub struct MultiCellEstimator {
    /// Words per cycle the Cell boundary sustains.
    pub boundary_words_per_cycle: f64,
    /// Achievable utilization of those links (the paper measures 80-90%
    /// for sparse transfers on the uniform word network, Figure 3).
    pub efficiency: f64,
}

impl MultiCellEstimator {
    /// Builds an estimator from a machine configuration: boundary bandwidth
    /// equals the vertical-cut link count of the (half-)Ruche network.
    pub fn from_config(cfg: &MachineConfig) -> MultiCellEstimator {
        let per_row = if cfg.ruche_factor > 0 {
            1.0 + f64::from(cfg.ruche_factor)
        } else {
            1.0
        };
        MultiCellEstimator {
            boundary_words_per_cycle: per_row * f64::from(cfg.cell_dim.y),
            efficiency: 0.85,
        }
    }

    /// Conservative transfer-time estimate for `bytes` crossing the
    /// boundary.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        let words = (bytes as f64) / 4.0;
        (words / (self.boundary_words_per_cycle * self.efficiency)).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ruche_boundary_is_faster() {
        let ruche = MultiCellEstimator::from_config(&MachineConfig::baseline_16x8());
        let mesh = MultiCellEstimator::from_config(&MachineConfig {
            ruche_factor: 0,
            ..MachineConfig::baseline_16x8()
        });
        let bytes = 1 << 20;
        assert!(ruche.transfer_cycles(bytes) < mesh.transfer_cycles(bytes));
        // Ruche-3 has 4x the boundary links.
        let ratio = mesh.transfer_cycles(bytes) as f64 / ruche.transfer_cycles(bytes) as f64;
        assert!((3.5..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zero_bytes_zero_cycles() {
        let est = MultiCellEstimator::from_config(&MachineConfig::baseline_16x8());
        assert_eq!(est.transfer_cycles(0), 0);
    }
}
