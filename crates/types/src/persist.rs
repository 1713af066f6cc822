//! Binary state persistence for checkpoint/restore.
//!
//! Every component that participates in simulator snapshots implements one
//! of two traits over the little-endian byte codec defined here:
//!
//! * [`Persist`] — *value* types that are reconstructed from bytes
//!   ([`Persist::load`] returns a fresh value). Used for plain data:
//!   counters, table entries, ROB entries, RNG state.
//! * [`PersistState`] — *components* that carry configuration-derived
//!   fields which must **not** travel in a snapshot (table geometries,
//!   latencies, policy kinds). [`PersistState::restore_state`] loads the
//!   dynamic fields *into* an already-constructed component, leaving the
//!   configuration fields untouched. Snapshots are only ever restored
//!   into a simulator built from the same configuration; the snapshot
//!   container enforces that with a configuration fingerprint.
//!
//! Decoding never panics: every malformed input surfaces as a
//! [`DecodeError`], which the snapshot layer maps to a typed
//! `SimError::SnapshotCorrupt`. The [`Reader`] is bounds-checked and
//! length-capped, so truncated or bit-flipped payloads fail cleanly.
//!
//! The [`impl_persist!`] and [`impl_persist_state!`] macros generate the
//! field-by-field implementations; they are invoked inside the module
//! that owns each type so private fields remain private.

use std::collections::VecDeque;
use std::fmt;

/// A decoding failure: the byte stream does not describe a valid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong, with enough context to identify the bad field.
    pub reason: String,
}

impl DecodeError {
    /// Creates an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        DecodeError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A bounds-checked little-endian byte source. All reads are fallible;
/// running off the end of the buffer is a [`DecodeError`], never a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed (a well-formed section must
    /// end exactly at its boundary).
    pub fn is_finished(&self) -> bool {
        self.remaining() == 0
    }

    /// A [`DecodeError`] annotated with the current offset.
    pub fn err(&self, what: impl fmt::Display) -> DecodeError {
        DecodeError::new(format!("{what} (at byte {})", self.pos))
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(self.err(format_args!(
                "truncated: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// Value persistence: serialize to bytes, reconstruct from bytes.
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut Writer);
    /// Reconstructs a value from `r`.
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Component persistence: serialize the dynamic fields, restore them
/// *into* an existing component whose configuration-derived fields are
/// already correct (because it was built from the same configuration the
/// snapshot was captured under).
pub trait PersistState {
    /// Appends this component's dynamic state to `w`.
    fn save_state(&self, w: &mut Writer);
    /// Overwrites this component's dynamic state from `r`.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError>;
}

// Boxed (including trait-object) components persist through the box, so
// a `Box<dyn TraceSource + PersistState>`-style source can sit where a
// concrete one does (the `RunRequest` runner relies on this).
impl<T: PersistState + ?Sized> PersistState for Box<T> {
    fn save_state(&self, w: &mut Writer) {
        (**self).save_state(w);
    }
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        (**self).restore_state(r)
    }
}

macro_rules! persist_le_int {
    ($($ty:ty),*) => {$(
        impl Persist for $ty {
            fn save(&self, w: &mut Writer) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let n = std::mem::size_of::<$ty>();
                let bytes = r.take(n)?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

persist_le_int!(u8, u16, u32, u64, i8, i64);

impl Persist for bool {
    fn save(&self, w: &mut Writer) {
        w.put_bytes(&[u8::from(*self)]);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(r.err(format_args!("invalid bool byte {b:#x}"))),
        }
    }
}

impl Persist for usize {
    fn save(&self, w: &mut Writer) {
        (*self as u64).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = u64::load(r)?;
        usize::try_from(v).map_err(|_| r.err(format_args!("usize {v} out of range")))
    }
}

impl Persist for String {
    fn save(&self, w: &mut Writer) {
        self.len().save(w);
        w.put_bytes(self.as_bytes());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::load(r)?;
        if len > r.remaining() {
            return Err(r.err(format_args!(
                "string length {len} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("string is not UTF-8"))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => false.save(w),
            Some(v) => {
                true.save(w);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(if bool::load(r)? {
            Some(T::load(r)?)
        } else {
            None
        })
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut Writer) {
        self.len().save(w);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::load(r)?;
        // Every element costs at least one byte, so a length exceeding
        // the remaining bytes is corrupt — reject before allocating.
        if len > r.remaining() {
            return Err(r.err(format_args!(
                "length {len} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn save(&self, w: &mut Writer) {
        self.len().save(w);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::<T>::load(r)?.into())
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut Writer) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| DecodeError::new("array length mismatch"))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Implements [`Persist`] for a struct by listing **all** of its fields.
/// Must be invoked in a module with visibility of every field (normally
/// the defining module). Loading reconstructs the struct literal, so a
/// missing field is a compile error — the list cannot silently drift.
#[macro_export]
macro_rules! impl_persist {
    ($ty:ty { $($f:ident),* $(,)? }) => {
        impl $crate::persist::Persist for $ty {
            fn save(&self, w: &mut $crate::persist::Writer) {
                $( $crate::persist::Persist::save(&self.$f, w); )*
            }
            fn load(
                r: &mut $crate::persist::Reader<'_>,
            ) -> Result<Self, $crate::persist::DecodeError> {
                Ok(Self { $( $f: $crate::persist::Persist::load(r)?, )* })
            }
        }
    };
}

/// Implements [`PersistState`] for a component by listing its *dynamic*
/// fields; configuration-derived fields are simply omitted and keep the
/// values of the restore target. An optional second section (after `;`)
/// names fields that are themselves [`PersistState`] components and are
/// recursed into instead of reconstructed.
#[macro_export]
macro_rules! impl_persist_state {
    ($ty:ty { $($f:ident),* $(,)? }) => {
        $crate::impl_persist_state!($ty { $($f),* ; });
    };
    ($ty:ty { $($f:ident),* ; $($n:ident),* $(,)? }) => {
        impl $crate::persist::PersistState for $ty {
            fn save_state(&self, w: &mut $crate::persist::Writer) {
                $( $crate::persist::Persist::save(&self.$f, w); )*
                $( $crate::persist::PersistState::save_state(&self.$n, w); )*
            }
            fn restore_state(
                &mut self,
                r: &mut $crate::persist::Reader<'_>,
            ) -> Result<(), $crate::persist::DecodeError> {
                $( self.$f = $crate::persist::Persist::load(r)?; )*
                $( $crate::persist::PersistState::restore_state(&mut self.$n, r)?; )*
                Ok(())
            }
        }
    };
}

// ---- Identifier newtypes ------------------------------------------------

impl Persist for crate::Cycle {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::Cycle::new(u64::load(r)?))
    }
}

impl Persist for crate::Addr {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::Addr::new(u64::load(r)?))
    }
}

impl Persist for crate::Pc {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::Pc::new(u64::load(r)?))
    }
}

impl Persist for crate::SeqNum {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::SeqNum::new(u64::load(r)?))
    }
}

impl Persist for crate::PhysReg {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::PhysReg::new(u16::load(r)?))
    }
}

impl Persist for crate::ArchReg {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let raw = u8::load(r)?;
        // ArchReg::new panics out of range; decode must not.
        if (raw as usize) >= crate::ArchReg::COUNT {
            return Err(r.err(format_args!("arch reg {raw} out of range")));
        }
        Ok(crate::ArchReg::new(raw))
    }
}

// ---- Small enums --------------------------------------------------------

impl Persist for crate::BranchKind {
    fn save(&self, w: &mut Writer) {
        use crate::BranchKind::*;
        let tag: u8 = match self {
            Conditional => 0,
            Direct => 1,
            Indirect => 2,
            Call => 3,
            Return => 4,
        };
        tag.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        use crate::BranchKind::*;
        Ok(match u8::load(r)? {
            0 => Conditional,
            1 => Direct,
            2 => Indirect,
            3 => Call,
            4 => Return,
            t => return Err(r.err(format_args!("invalid BranchKind tag {t}"))),
        })
    }
}

impl Persist for crate::OpClass {
    fn save(&self, w: &mut Writer) {
        use crate::OpClass::*;
        match self {
            IntAlu => 0u8.save(w),
            IntMul => 1u8.save(w),
            IntDiv => 2u8.save(w),
            FpAlu => 3u8.save(w),
            FpMul => 4u8.save(w),
            FpDiv => 5u8.save(w),
            Load => 6u8.save(w),
            Store => 7u8.save(w),
            Branch(k) => {
                8u8.save(w);
                k.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        use crate::OpClass::*;
        Ok(match u8::load(r)? {
            0 => IntAlu,
            1 => IntMul,
            2 => IntDiv,
            3 => FpAlu,
            4 => FpMul,
            5 => FpDiv,
            6 => Load,
            7 => Store,
            8 => Branch(crate::BranchKind::load(r)?),
            t => return Err(r.err(format_args!("invalid OpClass tag {t}"))),
        })
    }
}

impl Persist for crate::RegClass {
    fn save(&self, w: &mut Writer) {
        let tag: u8 = match self {
            crate::RegClass::Int => 0,
            crate::RegClass::Float => 1,
        };
        tag.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::load(r)? {
            0 => crate::RegClass::Int,
            1 => crate::RegClass::Float,
            t => return Err(r.err(format_args!("invalid RegClass tag {t}"))),
        })
    }
}

impl Persist for crate::ReplayCause {
    fn save(&self, w: &mut Writer) {
        use crate::ReplayCause::*;
        let tag: u8 = match self {
            L1Miss => 0,
            BankConflict => 1,
            PrfConflict => 2,
        };
        tag.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        use crate::ReplayCause::*;
        Ok(match u8::load(r)? {
            0 => L1Miss,
            1 => BankConflict,
            2 => PrfConflict,
            t => return Err(r.err(format_args!("invalid ReplayCause tag {t}"))),
        })
    }
}

crate::impl_persist!(crate::CommitRecord { seq, pc, kind, dst });

crate::impl_persist!(crate::CacheStats {
    accesses,
    hits,
    misses,
    mshr_merges,
    prefetches,
    prefetch_hits,
});

crate::impl_persist!(crate::SimStats {
    cycles,
    committed_uops,
    committed_loads,
    unique_issued,
    issued_total,
    replayed_miss,
    replayed_bank,
    replayed_prf,
    replay_events_miss,
    replay_events_bank,
    replay_events_prf,
    wrong_path_issued,
    cond_branches,
    cond_mispredicts,
    target_mispredicts,
    l1d,
    l2,
    bank_delayed_loads,
    bank_delay_cycles,
    loads_merged_into_mshr,
    dram_row_hits,
    dram_row_misses,
    loads_spec_woken,
    loads_conservative,
    filter_sure_hit,
    filter_sure_miss,
    filter_unstable,
    crit_predicted_critical,
    crit_predicted_noncritical,
    memdep_violations,
    dispatch_stall_cycles,
    recovery_buffer_replays,
    degrade_entries,
    degrade_cycles,
    faults_injected,
});

/// FNV-1a 64-bit hash — the workspace's integrity checksum (it also names
/// the harness's result-store files).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::load(&mut r).expect("decodes");
        assert!(r.is_finished(), "trailing bytes after {back:?}");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0xABu8);
        roundtrip(0xAB_CDu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-5i8);
        roundtrip(-123_456i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(VecDeque::from(vec![9u8, 8]));
        roundtrip([1u16, 2, 3, 4]);
        roundtrip((crate::Cycle::new(3), crate::SeqNum::new(4), 5u32));
    }

    #[test]
    fn ids_roundtrip() {
        roundtrip(crate::Cycle::new(42));
        roundtrip(crate::Addr::new(0x1234));
        roundtrip(crate::Pc::new(0x4000));
        roundtrip(crate::SeqNum::new(9));
        roundtrip(crate::PhysReg::new(130));
        roundtrip(crate::ArchReg::new(31));
    }

    #[test]
    fn enums_roundtrip() {
        for k in [
            crate::BranchKind::Conditional,
            crate::BranchKind::Return,
            crate::BranchKind::Call,
        ] {
            roundtrip(k);
            roundtrip(crate::OpClass::Branch(k));
        }
        roundtrip(crate::OpClass::Load);
        roundtrip(crate::RegClass::Float);
        for c in crate::ReplayCause::ALL {
            roundtrip(c);
        }
    }

    #[test]
    fn stats_roundtrip() {
        let mut s = crate::SimStats {
            cycles: 11,
            committed_uops: 22,
            faults_injected: 3,
            ..Default::default()
        };
        s.l1d.misses = 5;
        s.l2.prefetch_hits = 7;
        roundtrip(s);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(Vec::<u64>::load(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn absurd_length_rejected_before_allocation() {
        let mut w = Writer::new();
        (u64::MAX - 3).save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(Vec::<u8>::load(&mut r).is_err());
    }

    #[test]
    fn invalid_tags_rejected() {
        let mut r = Reader::new(&[200]);
        assert!(crate::OpClass::load(&mut r).is_err());
        let mut r = Reader::new(&[2]);
        assert!(bool::load(&mut r).is_err());
        let mut r = Reader::new(&[63]);
        assert!(crate::ArchReg::load(&mut r).is_err());
        let mut r = Reader::new(&[32]);
        assert!(crate::ArchReg::load(&mut r).is_err());
    }

    #[test]
    fn fnv_matches_reference() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
