//! HBM channel model: how polynomial vectors spread over the 32 channels.
//!
//! §IV-A: "A polynomial vector can be segmented by the number of HBM
//! channels, and we can abstract the multi-channel HBM into a vector
//! memory." This module makes that abstraction checkable: residue
//! polynomials are striped across channels in `burst`-sized segments, and
//! the model reports per-channel load so balance (the premise of quoting
//! the aggregate 460 GB/s) can be asserted rather than assumed.

use crate::config::AcceleratorConfig;

/// Channel-striping layout for polynomial transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmLayout {
    /// Number of channels (32 on the U280's two stacks).
    pub channels: u32,
    /// Stripe (burst) size in bytes — one channel's contiguous chunk.
    pub burst_bytes: u64,
}

impl HbmLayout {
    /// Layout from an accelerator configuration with a 256-byte burst
    /// (64-bit channel × 32-beat burst).
    pub fn from_config(cfg: &AcceleratorConfig) -> Self {
        Self {
            channels: cfg.hbm_channels,
            burst_bytes: 256,
        }
    }

    /// The channel serving byte offset `addr` of a stream.
    #[inline]
    pub fn channel_of(&self, addr: u64) -> u32 {
        ((addr / self.burst_bytes) % self.channels as u64) as u32
    }

    /// Per-channel bytes for a contiguous transfer of `bytes` starting at
    /// offset 0.
    pub fn channel_loads(&self, bytes: u64) -> Vec<u64> {
        let mut loads = vec![0u64; self.channels as usize];
        let full_rounds = bytes / (self.burst_bytes * self.channels as u64);
        for l in &mut loads {
            *l = full_rounds * self.burst_bytes;
        }
        let mut rem = bytes - full_rounds * self.burst_bytes * self.channels as u64;
        let mut ch = 0usize;
        while rem > 0 {
            let take = rem.min(self.burst_bytes);
            loads[ch] += take;
            rem -= take;
            ch = (ch + 1) % self.channels as usize;
        }
        loads
    }

    /// Load imbalance of a transfer: `max/mean − 1` (0 = perfectly even).
    pub fn imbalance(&self, bytes: u64) -> f64 {
        let loads = self.channel_loads(bytes);
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let mean = bytes as f64 / self.channels as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean - 1.0
        }
    }

    /// Effective transfer time for `bytes` at `per_channel_bw` bytes/s per
    /// channel: bounded by the most-loaded channel.
    pub fn transfer_seconds(&self, bytes: u64, per_channel_bw: f64) -> f64 {
        let loads = self.channel_loads(bytes);
        *loads.iter().max().unwrap_or(&0) as f64 / per_channel_bw
    }

    /// Bytes of one residue polynomial at degree `n` with `word` bytes.
    pub fn poly_bytes(n: usize, word: u64) -> u64 {
        n as u64 * word
    }

    /// Streams a residue vector through the striped channels and returns
    /// the per-channel byte loads of the transfer. The timing model alone
    /// never touches data; this is the data-bearing variant the integrity
    /// layer exercises — with an armed `HbmChannel` plan, the payload is corrupted in flight, the model's
    /// stand-in for a bad beat on one channel of a striped read.
    pub fn stream_through(&self, words: &mut [u64]) -> Vec<u64> {
        poseidon_faults::tamper(poseidon_faults::FaultSite::HbmChannel, words);
        self.channel_loads(words.len() as u64 * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> HbmLayout {
        HbmLayout::from_config(&AcceleratorConfig::poseidon_u280())
    }

    #[test]
    fn large_polynomials_stripe_evenly() {
        // One residue poly at N = 2^16, 4-byte words = 256 KiB: a whole
        // number of rounds over 32 channels × 256 B bursts.
        let l = layout();
        let bytes = HbmLayout::poly_bytes(1 << 16, 4);
        assert!(
            l.imbalance(bytes) < 1e-9,
            "imbalance {}",
            l.imbalance(bytes)
        );
        let loads = l.channel_loads(bytes);
        assert!(loads.iter().all(|&b| b == loads[0]));
    }

    #[test]
    fn small_transfers_are_imbalanced() {
        // A single burst lands on one channel: worst-case imbalance.
        let l = layout();
        assert!(l.imbalance(256) > 10.0);
        // Paper-scale polynomials avoid this regime entirely.
        assert!(l.imbalance(HbmLayout::poly_bytes(1 << 12, 4)) < 1e-9);
    }

    #[test]
    fn transfer_time_matches_aggregate_bandwidth_when_balanced() {
        let l = layout();
        let cfg = AcceleratorConfig::poseidon_u280();
        let per_channel = cfg.hbm_bytes_per_sec / cfg.hbm_channels as f64;
        let bytes = HbmLayout::poly_bytes(1 << 16, 4);
        let t = l.transfer_seconds(bytes, per_channel);
        let ideal = bytes as f64 / cfg.hbm_bytes_per_sec;
        assert!((t - ideal).abs() < ideal * 1e-9, "{t} vs {ideal}");
    }

    #[test]
    fn stream_through_reports_loads_and_passes_data() {
        // The injector is linked in: hold its lock so no concurrently armed
        // plan corrupts the words this test expects untouched.
        let _lock = poseidon_faults::test_lock();
        let l = layout();
        let mut words = vec![0xAAu64; 1 << 12];
        let loads = l.stream_through(&mut words);
        assert_eq!(loads.iter().sum::<u64>(), (1u64 << 12) * 8);
        assert!(words.iter().all(|&w| w == 0xAA));
    }

    #[test]
    fn stream_through_corrupts_when_channel_fault_armed() {
        use poseidon_faults::{arm, disarm, FaultKind, FaultPlan, FaultSite};
        let _lock = poseidon_faults::test_lock();
        let l = layout();
        arm(FaultPlan::transient(
            FaultSite::HbmChannel,
            FaultKind::BitFlip,
            0xC0FFEE,
        ));
        let mut words = vec![0u64; 1 << 10];
        l.stream_through(&mut words);
        disarm();
        assert_eq!(
            words.iter().filter(|&&w| w != 0).count(),
            1,
            "exactly one word corrupted in flight"
        );
    }

    #[test]
    fn channel_mapping_cycles() {
        let l = layout();
        assert_eq!(l.channel_of(0), 0);
        assert_eq!(l.channel_of(256), 1);
        assert_eq!(l.channel_of(256 * 32), 0);
        assert_eq!(l.channel_of(255), 0);
    }
}
