//! Output checks: every op's output is compared with a reference, and
//! every op's simulated counts must repeat exactly.
//!
//! A failed op is an output mismatch, an `Err` or a panic; each counts
//! against the ops attempted.

use mlperf_mobile::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Failures printed in full; later ones are only counted.
const SHOWN_FAILURES: usize = 8;

/// Tally of output-checked ops.
#[derive(Debug, Default)]
pub struct Checker {
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
}

impl Checker {
    /// Counts one checked op; a failure is reported on stderr.
    pub fn record(&mut self, what: impl Display, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= SHOWN_FAILURES as u64 {
                eprintln!("FAILED {what}: {e}");
            }
        }
    }

    /// Adds another tally (a child process's) to this one.
    pub fn merge(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every checked op passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs one op, turning a panic into an `Err`.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// Simulated counts of one op, by name. A simulator-speed change must
/// leave every one of them identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(pub Vec<(&'static str, u64)>);

impl Counts {
    /// The registry counters an op moved (`after.since(before)`).
    #[must_use]
    pub fn of_delta(d: &MetricsSnapshot) -> Counts {
        Counts(vec![
            ("compile_misses", d.compile_misses as u64),
            ("plan_misses", d.plan_misses as u64),
            ("tuned_misses", d.tuned_misses as u64),
            ("queries_issued", d.queries_issued),
            ("tuner_candidates", d.tuner_candidates),
            ("tuner_pruned", d.tuner_pruned),
            ("fleet_devices", d.fleet_devices_simulated),
            ("fleet_lanes_deduped", d.fleet_lanes_deduped),
        ])
    }

    /// Appends one workload-specific count.
    pub fn push(&mut self, name: &'static str, value: u64) {
        self.0.push((name, value));
    }
}

/// Exact-repeat check: the first sighting of an op key sets its
/// reference counts; any later drift fails the op.
#[derive(Debug, Default)]
pub struct RepeatCounts {
    reference: BTreeMap<usize, Counts>,
}

impl RepeatCounts {
    /// Compares `counts` for op `key` with its first sighting.
    ///
    /// # Errors
    ///
    /// Names every count that drifted.
    pub fn check(&mut self, key: usize, counts: Counts) -> Result<(), String> {
        let Some(reference) = self.reference.get(&key) else {
            self.reference.insert(key, counts);
            return Ok(());
        };
        if *reference == counts {
            return Ok(());
        }
        let drift: Vec<String> = reference
            .0
            .iter()
            .zip(&counts.0)
            .filter(|(a, b)| a != b)
            .map(|((name, was), (_, now))| format!("{name} {now} != {was}"))
            .collect();
        Err(format!("count drift: {}", drift.join(", ")))
    }

    /// Digest of every op's reference counts, to compare processes.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (key, counts) in &self.reference {
            h.write(&key.to_le_bytes());
            for (name, v) in &counts.0 {
                h.write(name.as_bytes());
                h.write(&v.to_le_bytes());
            }
        }
        h.finish()
    }
}

/// 64-bit FNV-1a: a digest that is the same in every process.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }

    /// Digest of one byte string.
    #[must_use]
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.finish()
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Compares two floats at 0 ULPs.
///
/// # Errors
///
/// Names the field and both values.
pub fn same_bits(field: &str, got: f64, want_bits: u64) -> Result<(), String> {
    if got.to_bits() == want_bits {
        Ok(())
    } else {
        Err(format!(
            "{field} {got:?} != {:?}",
            f64::from_bits(want_bits)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatch_err_and_panic_each_fail_one_op() {
        let mut c = Checker::default();
        c.record("ok", Ok(()));
        assert!(c.correct());
        c.record("mismatch", same_bits("score", 1.0, 2.0f64.to_bits()));
        c.record("err", guarded::<()>(|| Err("compile failed".into())));
        let panicked = guarded::<()>(|| panic!("boom"));
        assert_eq!(panicked, Err("panicked: boom".to_owned()));
        c.record("panic", panicked);
        assert_eq!((c.attempted, c.failed), (4, 3));
        assert!(!c.correct());
    }

    #[test]
    fn nothing_checked_is_not_correct() {
        assert!(!Checker::default().correct());
    }

    #[test]
    fn counts_must_repeat_exactly() {
        let mut r = RepeatCounts::default();
        let counts = |q| Counts(vec![("queries_issued", q), ("server_probes", 10)]);
        assert!(
            r.check(3, counts(1024)).is_ok(),
            "first sighting sets the reference"
        );
        assert!(r.check(3, counts(1024)).is_ok());
        assert!(
            r.check(4, counts(7)).is_ok(),
            "other ops have their own reference"
        );
        let err = r.check(3, counts(1025)).unwrap_err();
        assert_eq!(err, "count drift: queries_issued 1025 != 1024");
    }

    #[test]
    fn fnv_is_the_reference_digest() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
