//! Fractional clock-ratio divider.

/// Generates ticks of a slower clock from a faster one using fixed-point
/// accumulation, e.g. the 1.0 GHz HBM2 clock driven from the 1.35 GHz core
/// clock.
///
/// # Examples
///
/// ```
/// use hb_mem::ClockDivider;
///
/// let mut div = ClockDivider::new(1_000, 1_350); // mem : core frequency
/// let mem_ticks: u32 = (0..1350).map(|_| u32::from(div.tick())).sum();
/// assert_eq!(mem_ticks, 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDivider {
    pub(crate) numer: u64,
    pub(crate) denom: u64,
    pub(crate) acc: u64,
}

impl ClockDivider {
    /// Creates a divider producing `numer` slow ticks per `denom` fast ticks.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero or `numer > denom`.
    pub fn new(numer: u64, denom: u64) -> ClockDivider {
        assert!(denom > 0 && numer <= denom, "ratio must be <= 1");
        ClockDivider {
            numer,
            denom,
            acc: 0,
        }
    }

    /// Advances the fast clock one cycle; returns `true` when the slow clock
    /// ticks.
    pub fn tick(&mut self) -> bool {
        self.acc += self.numer;
        if self.acc >= self.denom {
            self.acc -= self.denom;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unity_ratio_ticks_every_cycle() {
        let mut d = ClockDivider::new(1, 1);
        assert!((0..100).all(|_| d.tick()));
    }

    #[test]
    fn half_ratio_ticks_every_other_cycle() {
        let mut d = ClockDivider::new(1, 2);
        let ticks: Vec<bool> = (0..6).map(|_| d.tick()).collect();
        assert_eq!(ticks, [false, true, false, true, false, true]);
    }

    #[test]
    fn long_run_ratio_is_exact() {
        let mut d = ClockDivider::new(1_000, 1_350);
        let slow: u64 = (0..1_350_000).map(|_| u64::from(d.tick())).sum();
        assert_eq!(slow, 1_000_000);
    }
}
