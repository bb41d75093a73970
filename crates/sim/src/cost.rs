//! Time-cost constants for the simulated testbed.
//!
//! Calibrated against the paper's hardware (§3): 400 MHz Pentium II,
//! FreeBSD 2.2.7, 100 Mb/s switched Ethernet, X11 display. Only the *shape*
//! of Figure 8 depends on these — ratios between syscall costs, commit
//! costs, and think times — not the absolute values.

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// One millisecond.
pub const MS: SimTime = 1_000_000;
/// One microsecond.
pub const US: SimTime = 1_000;
/// One second.
pub const SEC: SimTime = 1_000_000_000;

/// Per-operation costs charged by the syscall layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Base cost of entering/leaving a (interposed) system call.
    pub syscall_ns: SimTime,
    /// `gettimeofday`.
    pub gettimeofday_ns: SimTime,
    /// Reading one user-input token.
    pub read_input_ns: SimTime,
    /// Local cost of a message send (copy + protocol stack).
    pub send_ns: SimTime,
    /// Local cost of a message receive.
    pub recv_ns: SimTime,
    /// Cost of a visible output event (an X protocol round, a terminal
    /// write).
    pub visible_ns: SimTime,
    /// `open` (path lookup + file-table slot).
    pub open_ns: SimTime,
    /// Per byte of file I/O through the buffer cache.
    pub file_ns_per_byte: SimTime,
    /// One-way network latency (switch + stacks).
    pub net_latency_ns: SimTime,
    /// Network bandwidth, bytes per second (100 Mb/s).
    pub net_bytes_per_sec: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            syscall_ns: 2 * US,
            gettimeofday_ns: US,
            read_input_ns: 3 * US,
            send_ns: 15 * US,
            recv_ns: 10 * US,
            visible_ns: 40 * US,
            open_ns: 20 * US,
            file_ns_per_byte: 15,
            net_latency_ns: 120 * US,
            net_bytes_per_sec: 12_500_000,
        }
    }
}

impl CostModel {
    /// Network transfer time for a payload of `bytes`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bytes * 1e9 / bandwidth fits u64 for any realistic transfer (< ~584 years of ns)"
    )]
    fn net_transfer_ns(&self, bytes: usize) -> SimTime {
        (bytes as u128 * 1_000_000_000 / self.net_bytes_per_sec as u128) as SimTime
    }

    /// Full one-way message time: latency + transfer.
    pub(crate) fn net_delivery_ns(&self, bytes: usize) -> SimTime {
        self.net_latency_ns + self.net_transfer_ns(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CostModel::default();
        assert!(c.syscall_ns < c.visible_ns);
        assert!(c.net_latency_ns > c.send_ns);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let c = CostModel::default();
        assert_eq!(c.net_transfer_ns(0), 0);
        // 12.5 MB at 12.5 MB/s = 1 s.
        assert_eq!(c.net_transfer_ns(12_500_000), SEC);
        assert!(c.net_delivery_ns(1000) > c.net_latency_ns);
    }
}
