//! Deterministic fault injection for the Poseidon datapath model.
//!
//! The paper's datapath (operator pool, 512-lane cores, scratchpad, 32 HBM
//! channels) is modeled in this workspace as pure-Rust functional cores. A
//! production service built on that stack has to survive corrupted buffers
//! and flaky workers, so the integrity layer (duplicate execution compared
//! by FNV digest, the MA core's retire check, and the one retry/escalation
//! policy in `he_ckks::integrity`) needs something to *catch*. This crate is that
//! something: a seeded, fully deterministic injector that corrupts residue
//! words at named hook sites sprinkled through the stack.
//!
//! Design constraints:
//!
//! * **Deterministic.** A [`FaultPlan`] carries a seed; the corrupted word
//!   index, bit position, and payload derive from `splitmix64(seed, hit)`.
//!   Re-arming the same plan reproduces the same corruption sequence
//!   exactly, so every detection test is replayable.
//! * **No-op when disarmed.** Every consumer crate links the injector and
//!   every hook is compiled in; a disarmed hook is one relaxed atomic load
//!   and leaves its buffer untouched, so digests do not move.
//! * **Dependency-free.** `std`-only, like the rest of the workspace.
//!
//! Hook sites (see [`FaultSite`]) map to the paper's hardware structures:
//! RNS residue vectors (register files / scratchpad lines), NTT twiddle
//! tables (BRAM), the eval-form key-switch key store (HBM-resident keys),
//! `poseidon-par` scratch buffers (on-chip scratchpad), the wire format
//! (the host↔accelerator link) and the serving sockets and workers.
//!
//! # Examples
//!
//! ```
//! use poseidon_faults::{arm, disarm, fired, tamper, FaultKind, FaultPlan, FaultSite};
//!
//! let _lock = poseidon_faults::test_lock();
//! arm(FaultPlan::transient(FaultSite::RnsResidue, FaultKind::BitFlip, 42));
//! let mut buf = vec![7u64; 16];
//! assert!(tamper(FaultSite::RnsResidue, &mut buf)); // fires once…
//! assert!(!tamper(FaultSite::RnsResidue, &mut buf)); // …then never again
//! assert_eq!(fired(), 1);
//! disarm();
//! ```

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Where in the modeled datapath a fault lands. Each variant corresponds
/// to one family of hook call sites in the consumer crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `RnsPoly` residue vectors at NTT entry (`he-rns`): register-file /
    /// scratchpad-line corruption of live ciphertext limbs.
    RnsResidue,
    /// NTT working vectors at transform entry (`he-ntt`): models a
    /// corrupted twiddle BRAM word poisoning the butterfly network.
    NttTwiddle,
    /// The eval-form key-switch key store read path (`he-ckks`): models a
    /// corrupted HBM-resident key digit.
    KeyCache,
    /// `poseidon-par` scratch-pool buffers at hand-out: models stale or
    /// flipped scratchpad contents.
    ParScratch,
    /// Serialized frames at wire decode entry (`poseidon-wire`): models
    /// corruption on the host↔accelerator link or in a network buffer —
    /// the decoder's checksum must catch every flip.
    WireFrame,
    /// Frame bytes arriving off a serving socket (`poseidon-serve`):
    /// models receive-path corruption, a peer hanging up mid-frame
    /// ([`FaultKind::Truncate`]), or the connection dropping outright.
    SocketRead,
    /// Frame bytes leaving on a serving socket: models transmit-path
    /// corruption or a write that fails because the peer vanished.
    SocketWrite,
    /// A socket endpoint that stops moving bytes for a while
    /// ([`FaultKind::Stall`]): the peer's timeout discipline must bound
    /// the damage.
    SocketStall,
    /// A dispatcher shard worker (`poseidon-serve`): the thread panics
    /// ([`FaultKind::Panic`]) or wedges ([`FaultKind::Stall`]) and the
    /// watchdog must contain, requeue, and respawn.
    ShardWorker,
}

impl FaultSite {
    /// Every site, in hook order.
    pub const ALL: [FaultSite; 9] = [
        FaultSite::RnsResidue,
        FaultSite::NttTwiddle,
        FaultSite::KeyCache,
        FaultSite::ParScratch,
        FaultSite::WireFrame,
        FaultSite::SocketRead,
        FaultSite::SocketWrite,
        FaultSite::SocketStall,
        FaultSite::ShardWorker,
    ];

    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::RnsResidue => "rns_residue",
            FaultSite::NttTwiddle => "ntt_twiddle",
            FaultSite::KeyCache => "key_cache",
            FaultSite::ParScratch => "par_scratch",
            FaultSite::WireFrame => "wire_frame",
            FaultSite::SocketRead => "socket_read",
            FaultSite::SocketWrite => "socket_write",
            FaultSite::SocketStall => "socket_stall",
            FaultSite::ShardWorker => "shard_worker",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::RnsResidue => 0,
            FaultSite::NttTwiddle => 1,
            FaultSite::KeyCache => 2,
            FaultSite::ParScratch => 3,
            FaultSite::WireFrame => 4,
            FaultSite::SocketRead => 5,
            FaultSite::SocketWrite => 6,
            FaultSite::SocketStall => 7,
            FaultSite::ShardWorker => 8,
        }
    }
}

/// What corruption a firing hook applies to the chosen word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit (position derived from the seed, confined to
    /// [`FaultPlan::bit_width`] so the word stays in-range for the modeled
    /// datapath width).
    BitFlip,
    /// Flip two distinct bits of the same word.
    DoubleBitFlip,
    /// Force the word to a fixed value (stuck-at pattern).
    StuckAt(u64),
    /// Zero a run of `len` words starting at the chosen index (clamped to
    /// the buffer end).
    ZeroRange(usize),
    /// Deliver only a seeded prefix of the buffer, then behave as a peer
    /// that vanished mid-frame. Chaos-only: fires through [`disrupt`],
    /// never through the corruption hooks.
    Truncate,
    /// Stop moving for this many milliseconds (a wedged socket or worker).
    /// Chaos-only: fires through [`disrupt`].
    Stall(u64),
    /// Drop the connection outright. Chaos-only: fires through
    /// [`disrupt`].
    Disconnect,
    /// Panic the current thread (a crashed shard worker). Chaos-only:
    /// fires through [`disrupt`].
    Panic,
}

impl FaultKind {
    /// Control-flow kinds model a disruption (cut, stall, crash) rather
    /// than data corruption; they fire only through [`disrupt`] and are
    /// inert in [`tamper`]/[`tamper_bytes`].
    fn is_control(self) -> bool {
        matches!(
            self,
            FaultKind::Truncate | FaultKind::Stall(_) | FaultKind::Disconnect | FaultKind::Panic
        )
    }
}

/// Whether a plan fires once or on every matching hook hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// Fire exactly once, then fall silent (a transient upset — SEU).
    Transient,
    /// Fire on every matching hit (a stuck datapath element).
    Persistent,
}

/// A complete, deterministic description of one injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Hook family to target.
    pub site: FaultSite,
    /// Corruption applied on fire.
    pub kind: FaultKind,
    /// One-shot or every-hit.
    pub persistence: Persistence,
    /// Number of matching hits to let pass before the first fire (selects
    /// *which* buffer in a pipeline gets hit — deterministically).
    pub skip: u64,
    /// Seed for the word/bit/payload choices.
    pub seed: u64,
    /// Bit width of the modeled datapath word: flips land in bits
    /// `0..bit_width`. Residues are < 2^31 here, so the default 28 keeps
    /// corrupted words inside the arithmetic range a real RNS lane holds
    /// (flipping bit 63 of a software u64 would model a fault in storage
    /// the hardware doesn't have).
    pub bit_width: u32,
}

impl FaultPlan {
    /// A one-shot plan with default skip 0 and bit width 28.
    pub fn transient(site: FaultSite, kind: FaultKind, seed: u64) -> Self {
        Self {
            site,
            kind,
            persistence: Persistence::Transient,
            skip: 0,
            seed,
            bit_width: 28,
        }
    }

    /// An every-hit plan with default skip 0 and bit width 28.
    pub fn persistent(site: FaultSite, kind: FaultKind, seed: u64) -> Self {
        Self {
            persistence: Persistence::Persistent,
            ..Self::transient(site, kind, seed)
        }
    }

    /// Lets the first `skip` matching hits pass untouched.
    pub fn after(mut self, skip: u64) -> Self {
        self.skip = skip;
        self
    }

    /// Overrides the modeled datapath word width.
    pub fn width(mut self, bits: u32) -> Self {
        self.bit_width = bits.clamp(1, 63);
        self
    }
}

#[derive(Debug)]
struct Armed {
    plan: FaultPlan,
    /// Matching hook hits seen since arming.
    hits: u64,
    /// Fires applied since arming.
    fired: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static FIRED: AtomicU64 = AtomicU64::new(0);
static SITE_HITS: [AtomicU64; 9] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

fn state() -> &'static Mutex<Option<Armed>> {
    static S: OnceLock<Mutex<Option<Armed>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(None))
}

/// SplitMix64 — the standard 64-bit mixer; deterministic and
/// dependency-free. Public so tests can predict injector choices.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Arms the global injector with `plan`, resetting hit/fire counters.
/// Any previously armed plan is replaced.
pub fn arm(plan: FaultPlan) {
    let mut s = state().lock().expect("fault injector poisoned");
    *s = Some(Armed {
        plan,
        hits: 0,
        fired: 0,
    });
    FIRED.store(0, Ordering::Relaxed);
    for h in &SITE_HITS {
        h.store(0, Ordering::Relaxed);
    }
    ACTIVE.store(true, Ordering::Release);
}

/// Disarms the injector. Hooks return to the single-atomic-load fast path.
pub fn disarm() {
    ACTIVE.store(false, Ordering::Release);
    let mut s = state().lock().expect("fault injector poisoned");
    *s = None;
}

/// Whether a plan is currently armed.
pub fn armed() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Total fires since the last [`arm`].
pub fn fired() -> u64 {
    FIRED.load(Ordering::Relaxed)
}

/// Matching-or-not hook hits per site since the last [`arm`] (coverage
/// observability: proves a sweep actually reached a site).
pub fn site_hits(site: FaultSite) -> u64 {
    SITE_HITS[site.index()].load(Ordering::Relaxed)
}

/// The hook. Call sites pass the site they model and the buffer about to
/// be consumed; when the armed plan matches and its trigger conditions are
/// met, the buffer is corrupted in place and `true` is returned.
///
/// Disarmed cost is one relaxed atomic load.
pub fn tamper(site: FaultSite, buf: &mut [u64]) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) || buf.is_empty() {
        return false;
    }
    let mut guard = state().lock().expect("fault injector poisoned");
    let Some(armed) = guard.as_mut() else {
        return false;
    };
    SITE_HITS[site.index()].fetch_add(1, Ordering::Relaxed);
    if armed.plan.site != site || armed.plan.kind.is_control() {
        return false;
    }
    armed.hits += 1;
    if armed.hits <= armed.plan.skip {
        return false;
    }
    if armed.plan.persistence == Persistence::Transient && armed.fired >= 1 {
        return false;
    }
    let draw = splitmix64(armed.plan.seed ^ armed.hits.wrapping_mul(0xA24B_AED4_963E_E407));
    let idx = (draw % buf.len() as u64) as usize;
    match armed.plan.kind {
        FaultKind::BitFlip => {
            let bit = (splitmix64(draw) % u64::from(armed.plan.bit_width)) as u32;
            buf[idx] ^= 1u64 << bit;
        }
        FaultKind::DoubleBitFlip => {
            let w = u64::from(armed.plan.bit_width);
            let b1 = (splitmix64(draw) % w) as u32;
            let b2 = ((splitmix64(draw ^ 1) % (w - 1) + 1 + u64::from(b1)) % w) as u32;
            buf[idx] ^= (1u64 << b1) | (1u64 << b2);
        }
        FaultKind::StuckAt(v) => {
            buf[idx] = v & ((1u64 << armed.plan.bit_width) - 1);
        }
        FaultKind::ZeroRange(len) => {
            let end = (idx + len.max(1)).min(buf.len());
            for w in &mut buf[idx..end] {
                *w = 0;
            }
        }
        // Control kinds were rejected above.
        FaultKind::Truncate | FaultKind::Stall(_) | FaultKind::Disconnect | FaultKind::Panic => {
            unreachable!("control kinds fire only through disrupt")
        }
    }
    armed.fired += 1;
    FIRED.fetch_add(1, Ordering::Relaxed);
    true
}

/// Byte-buffer variant of [`tamper`] for serialized frames: the same plan
/// logic (site match, skip, persistence, seeded draws) applied to a byte
/// slice — the chosen index is a byte, and flips land within that byte.
/// [`FaultKind::StuckAt`]/[`ZeroRange`](FaultKind::ZeroRange) act on bytes.
pub fn tamper_bytes(site: FaultSite, buf: &mut [u8]) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) || buf.is_empty() {
        return false;
    }
    let mut guard = state().lock().expect("fault injector poisoned");
    let Some(armed) = guard.as_mut() else {
        return false;
    };
    SITE_HITS[site.index()].fetch_add(1, Ordering::Relaxed);
    if armed.plan.site != site || armed.plan.kind.is_control() {
        return false;
    }
    armed.hits += 1;
    if armed.hits <= armed.plan.skip {
        return false;
    }
    if armed.plan.persistence == Persistence::Transient && armed.fired >= 1 {
        return false;
    }
    let draw = splitmix64(armed.plan.seed ^ armed.hits.wrapping_mul(0xA24B_AED4_963E_E407));
    let idx = (draw % buf.len() as u64) as usize;
    corrupt_byte(armed.plan.kind, buf, idx, draw);
    armed.fired += 1;
    FIRED.fetch_add(1, Ordering::Relaxed);
    true
}

/// Applies a corruption kind to `buf[idx]` (shared by [`tamper_bytes`]
/// and the corrupting arm of [`disrupt`]).
fn corrupt_byte(kind: FaultKind, buf: &mut [u8], idx: usize, draw: u64) {
    match kind {
        FaultKind::BitFlip => {
            let bit = (splitmix64(draw) % 8) as u32;
            buf[idx] ^= 1u8 << bit;
        }
        FaultKind::DoubleBitFlip => {
            let b1 = (splitmix64(draw) % 8) as u32;
            let b2 = ((splitmix64(draw ^ 1) % 7 + 1 + u64::from(b1)) % 8) as u32;
            buf[idx] ^= (1u8 << b1) | (1u8 << b2);
        }
        FaultKind::StuckAt(v) => {
            buf[idx] = v as u8;
        }
        FaultKind::ZeroRange(len) => {
            let end = (idx + len.max(1)).min(buf.len());
            for b in &mut buf[idx..end] {
                *b = 0;
            }
        }
        FaultKind::Truncate | FaultKind::Stall(_) | FaultKind::Disconnect | FaultKind::Panic => {
            unreachable!("control kinds are handled by disrupt before corruption")
        }
    }
}

/// What a fired chaos plan asks the call site to model. Corruption is
/// applied in place; control effects (truncation, stalls, disconnects,
/// panics) happen outside the buffer, so [`disrupt`] reports them for
/// the socket/worker code to enact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disruption {
    /// The buffer was corrupted in place (a data-corruption kind fired).
    Corrupted,
    /// Deliver only the first `n` bytes, then behave as a peer that
    /// vanished mid-frame (`n` is a seeded strict prefix).
    Truncated(usize),
    /// Stop moving bytes for this many milliseconds before continuing.
    Stalled(u64),
    /// Drop the connection now.
    Disconnected,
    /// Panic the current thread.
    Panicked,
}

/// The network/worker chaos hook. Same plan machinery as [`tamper`]
/// (site match, skip, persistence, seeded draws), but the fired effect
/// may be a control disruption rather than data corruption; the caller
/// models whatever is returned. Corruption kinds mutate `buf` in place
/// and report [`Disruption::Corrupted`]; an empty buffer cannot be
/// corrupted (no fire), while control kinds fire regardless of `buf`.
///
/// Disarmed cost is one relaxed atomic load.
pub fn disrupt(site: FaultSite, buf: &mut [u8]) -> Option<Disruption> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let mut guard = state().lock().expect("fault injector poisoned");
    let armed = guard.as_mut()?;
    SITE_HITS[site.index()].fetch_add(1, Ordering::Relaxed);
    if armed.plan.site != site {
        return None;
    }
    if !armed.plan.kind.is_control() && buf.is_empty() {
        return None;
    }
    armed.hits += 1;
    if armed.hits <= armed.plan.skip {
        return None;
    }
    if armed.plan.persistence == Persistence::Transient && armed.fired >= 1 {
        return None;
    }
    let draw = splitmix64(armed.plan.seed ^ armed.hits.wrapping_mul(0xA24B_AED4_963E_E407));
    let effect = match armed.plan.kind {
        FaultKind::Truncate => {
            // A strict prefix: at least one byte is always withheld.
            Disruption::Truncated(if buf.is_empty() {
                0
            } else {
                (draw % buf.len() as u64) as usize
            })
        }
        FaultKind::Stall(ms) => Disruption::Stalled(ms),
        FaultKind::Disconnect => Disruption::Disconnected,
        FaultKind::Panic => Disruption::Panicked,
        kind => {
            let idx = (draw % buf.len() as u64) as usize;
            corrupt_byte(kind, buf, idx, draw);
            Disruption::Corrupted
        }
    };
    armed.fired += 1;
    FIRED.fetch_add(1, Ordering::Relaxed);
    Some(effect)
}

/// Convenience hook for per-limb residue matrices: tampers each row in
/// order (serially, before any parallel dispatch, so the firing sequence
/// is independent of thread count).
pub fn tamper_rows(site: FaultSite, rows: &mut [Vec<u64>]) -> bool {
    let mut any = false;
    for row in rows {
        any |= tamper(site, row);
    }
    any
}

/// Runs `f` with the injector temporarily silenced, restoring the previous
/// armed state afterwards — models re-dispatching work to a known-good
/// spare unit. Panic-safe.
pub fn suppressed<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.store(self.0, Ordering::Release);
        }
    }
    let _restore = Restore(ACTIVE.swap(false, Ordering::AcqRel));
    f()
}

/// Serialises tests that arm the global injector. Every test (in any
/// crate) that calls [`arm`] should hold this for its duration; the guard
/// also recovers from a poisoned lock so one failing test doesn't cascade.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hook_is_inert() {
        let _l = test_lock();
        disarm();
        let mut buf = vec![3u64; 8];
        assert!(!tamper(FaultSite::RnsResidue, &mut buf));
        assert_eq!(buf, vec![3u64; 8]);
    }

    #[test]
    fn transient_fires_exactly_once_and_is_reproducible() {
        let _l = test_lock();
        let run = || {
            arm(FaultPlan::transient(
                FaultSite::NttTwiddle,
                FaultKind::BitFlip,
                0xFEED,
            ));
            let mut buf = vec![0u64; 32];
            assert!(tamper(FaultSite::NttTwiddle, &mut buf));
            let first = buf.clone();
            assert!(!tamper(FaultSite::NttTwiddle, &mut buf));
            assert_eq!(buf, first, "transient must not fire twice");
            disarm();
            first
        };
        assert_eq!(run(), run(), "same seed must corrupt identically");
    }

    #[test]
    fn persistent_fires_every_hit() {
        let _l = test_lock();
        arm(FaultPlan::persistent(
            FaultSite::ParScratch,
            FaultKind::StuckAt(0xAB),
            7,
        ));
        let mut buf = vec![1u64; 16];
        for _ in 0..4 {
            assert!(tamper(FaultSite::ParScratch, &mut buf));
        }
        assert_eq!(fired(), 4);
        disarm();
    }

    #[test]
    fn skip_delays_the_first_fire() {
        let _l = test_lock();
        arm(FaultPlan::transient(FaultSite::KeyCache, FaultKind::BitFlip, 1).after(2));
        let mut buf = vec![9u64; 8];
        assert!(!tamper(FaultSite::KeyCache, &mut buf));
        assert!(!tamper(FaultSite::KeyCache, &mut buf));
        assert_eq!(buf, vec![9u64; 8]);
        assert!(tamper(FaultSite::KeyCache, &mut buf));
        disarm();
    }

    #[test]
    fn mismatched_site_counts_hits_but_never_fires() {
        let _l = test_lock();
        arm(FaultPlan::persistent(
            FaultSite::KeyCache,
            FaultKind::BitFlip,
            3,
        ));
        let mut buf = vec![5u64; 4];
        assert!(!tamper(FaultSite::RnsResidue, &mut buf));
        assert_eq!(buf, vec![5u64; 4]);
        assert_eq!(site_hits(FaultSite::RnsResidue), 1);
        assert_eq!(fired(), 0);
        disarm();
    }

    #[test]
    fn bit_flip_respects_modeled_word_width() {
        let _l = test_lock();
        for seed in 0..64u64 {
            arm(FaultPlan::persistent(FaultSite::RnsResidue, FaultKind::BitFlip, seed).width(28));
            let mut buf = vec![0u64; 8];
            assert!(tamper(FaultSite::RnsResidue, &mut buf));
            let word = *buf.iter().find(|&&w| w != 0).expect("one bit flipped");
            assert!(
                word < (1 << 28),
                "flip escaped the datapath width: {word:#x}"
            );
            disarm();
        }
    }

    #[test]
    fn double_flip_touches_two_distinct_bits() {
        let _l = test_lock();
        arm(FaultPlan::transient(
            FaultSite::RnsResidue,
            FaultKind::DoubleBitFlip,
            11,
        ));
        let mut buf = vec![0u64; 4];
        assert!(tamper(FaultSite::RnsResidue, &mut buf));
        let word = *buf.iter().find(|&&w| w != 0).expect("bits flipped");
        assert_eq!(word.count_ones(), 2);
        disarm();
    }

    #[test]
    fn zero_range_clamps_to_buffer_end() {
        let _l = test_lock();
        arm(FaultPlan::transient(
            FaultSite::ParScratch,
            FaultKind::ZeroRange(1000),
            5,
        ));
        let mut buf = vec![7u64; 8];
        assert!(tamper(FaultSite::ParScratch, &mut buf));
        assert!(buf.contains(&0));
        disarm();
    }

    #[test]
    fn tamper_bytes_flips_within_one_byte_and_is_reproducible() {
        let _l = test_lock();
        let run = || {
            arm(FaultPlan::transient(
                FaultSite::WireFrame,
                FaultKind::BitFlip,
                0xBEEF,
            ));
            let mut buf = vec![0u8; 64];
            assert!(tamper_bytes(FaultSite::WireFrame, &mut buf));
            assert_eq!(
                buf.iter().map(|b| b.count_ones()).sum::<u32>(),
                1,
                "exactly one bit flipped"
            );
            assert!(!tamper_bytes(FaultSite::WireFrame, &mut buf));
            disarm();
            buf
        };
        assert_eq!(run(), run(), "same seed must corrupt identically");
    }

    #[test]
    fn control_kinds_are_inert_in_the_corruption_hooks() {
        let _l = test_lock();
        for kind in [
            FaultKind::Truncate,
            FaultKind::Stall(50),
            FaultKind::Disconnect,
            FaultKind::Panic,
        ] {
            arm(FaultPlan::persistent(FaultSite::SocketRead, kind, 9));
            let mut words = vec![5u64; 8];
            let mut bytes = vec![5u8; 8];
            assert!(!tamper(FaultSite::SocketRead, &mut words));
            assert!(!tamper_bytes(FaultSite::SocketRead, &mut bytes));
            assert_eq!(words, vec![5u64; 8]);
            assert_eq!(bytes, vec![5u8; 8]);
            assert_eq!(fired(), 0, "{kind:?} must not fire through tamper");
            disarm();
        }
    }

    #[test]
    fn disrupt_reports_control_effects_and_is_reproducible() {
        let _l = test_lock();
        let run = || {
            arm(FaultPlan::transient(
                FaultSite::SocketRead,
                FaultKind::Truncate,
                0x7A0,
            ));
            let mut buf = vec![1u8; 100];
            let effect = disrupt(FaultSite::SocketRead, &mut buf).expect("fires");
            let Disruption::Truncated(n) = effect else {
                panic!("expected truncation, got {effect:?}");
            };
            assert!(n < buf.len(), "truncation must be a strict prefix");
            assert_eq!(buf, vec![1u8; 100], "truncation must not corrupt bytes");
            assert!(disrupt(FaultSite::SocketRead, &mut buf).is_none());
            disarm();
            n
        };
        assert_eq!(run(), run(), "same seed must truncate identically");

        arm(FaultPlan::transient(
            FaultSite::ShardWorker,
            FaultKind::Panic,
            3,
        ));
        assert_eq!(
            disrupt(FaultSite::ShardWorker, &mut []),
            Some(Disruption::Panicked),
            "control kinds fire on an empty buffer"
        );
        disarm();

        arm(FaultPlan::transient(
            FaultSite::SocketStall,
            FaultKind::Stall(25),
            4,
        ));
        assert_eq!(
            disrupt(FaultSite::SocketStall, &mut []),
            Some(Disruption::Stalled(25))
        );
        disarm();
    }

    #[test]
    fn disrupt_corrupts_in_place_for_data_kinds() {
        let _l = test_lock();
        arm(FaultPlan::transient(
            FaultSite::SocketWrite,
            FaultKind::BitFlip,
            0xC0,
        ));
        let mut buf = vec![0u8; 32];
        assert_eq!(
            disrupt(FaultSite::SocketWrite, &mut buf),
            Some(Disruption::Corrupted)
        );
        assert_eq!(
            buf.iter().map(|b| b.count_ones()).sum::<u32>(),
            1,
            "exactly one bit flipped"
        );
        // An empty buffer cannot be corrupted: no fire, still armed.
        disarm();
        arm(FaultPlan::transient(
            FaultSite::SocketWrite,
            FaultKind::BitFlip,
            0xC0,
        ));
        assert_eq!(disrupt(FaultSite::SocketWrite, &mut []), None);
        assert_eq!(fired(), 0);
        disarm();
    }

    #[test]
    fn all_sites_are_enumerated_once() {
        let mut seen = std::collections::HashSet::new();
        for site in FaultSite::ALL {
            assert!(seen.insert(site.index()), "duplicate index for {site:?}");
            assert!(!site.as_str().is_empty());
        }
        assert_eq!(seen.len(), FaultSite::ALL.len());
    }

    #[test]
    fn suppressed_silences_and_restores() {
        let _l = test_lock();
        arm(FaultPlan::persistent(
            FaultSite::RnsResidue,
            FaultKind::BitFlip,
            2,
        ));
        let mut buf = vec![1u64; 8];
        suppressed(|| {
            assert!(!tamper(FaultSite::RnsResidue, &mut buf));
        });
        assert_eq!(buf, vec![1u64; 8]);
        assert!(armed(), "suppression must restore the armed state");
        assert!(tamper(FaultSite::RnsResidue, &mut buf));
        disarm();
    }
}
