//! Identifier newtypes shared across the workspace, and the fixed hasher
//! for maps keyed by them.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies a job within one trace. Ids are assigned in submission order,
/// which also makes them a deterministic FCFS tie-breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Identifies an allocation project (the unit the paper uses to assign job
/// types: "we group jobs by their project names and assume that all jobs
/// belonging to one project have the same job types").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProjectId(pub u32);

/// Fixed (unseeded) hasher for integer ids.
///
/// One widening multiply by a 64-bit odd constant, folding the high half
/// of the product onto the low half, so that both the low bits a hash
/// table indexes buckets with and the top bits it keeps as probe tags
/// depend on every bit of the id: dense, strided and sparse ids (SWF job
/// numbers, live submission ids) all spread. It costs one multiply where
/// the default `RandomState` runs SipHash. Being unseeded, it gives no
/// protection against ids chosen to collide; it suits keys that name jobs,
/// where a crafted collision costs lookup speed, never correctness.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

/// Multiplier of [`IdHasher`]: 2⁶⁴ divided by the golden ratio, rounded to
/// odd.
const ID_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * u128::from(ID_MIX);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s; the hasher parameter of [`IdMap`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A hash map keyed by [`JobId`] with the fixed [`IdHasher`]. Construct
/// with `IdMap::default()`.
pub type IdMap<V> = HashMap<JobId, V, IdBuildHasher>;

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

impl fmt::Display for ProjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(JobId(7).to_string(), "J7");
        assert_eq!(ProjectId(3).to_string(), "P3");
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(JobId(2) < JobId(10));
        assert!(ProjectId(0) < ProjectId(1));
    }

    fn id_hash(id: JobId) -> u64 {
        use std::hash::BuildHasher;
        IdBuildHasher::default().hash_one(id)
    }

    /// Hash tables index buckets with the low bits of a hash and keep the
    /// top 7 bits as a probe tag. A std map holding 4,096 ids has 8,192
    /// buckets (load factor ⅞), so for 4,096 ids at stride 1, 2¹² and 2³²
    /// the low 13 bits must take at least ¾ as many distinct values as
    /// there are ids, and the top 7 bits must take all 128: sparse id
    /// spaces cannot degrade an [`IdMap`] into a linear scan.
    #[test]
    fn id_hasher_spreads_strided_ids() {
        const N: u64 = 4_096;
        const BUCKETS: u64 = 2 * N;
        for stride in [1u64, 1 << 12, 1 << 32] {
            let mut buckets = std::collections::HashSet::new();
            let mut tags = [false; 128];
            for i in 0..N {
                let h = id_hash(JobId(i * stride));
                buckets.insert(h & (BUCKETS - 1));
                tags[(h >> 57) as usize] = true;
            }
            assert!(
                buckets.len() as u64 * 4 >= N * 3,
                "stride {stride}: {} distinct buckets for {N} ids",
                buckets.len()
            );
            let missing = tags.iter().filter(|&&t| !t).count();
            assert_eq!(missing, 0, "stride {stride}: {missing} tags never occur");
        }
    }
}
