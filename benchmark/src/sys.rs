//! The few Linux calls the method needs and `std` does not offer: CPU
//! affinity (one pinned core is what makes runs repeat), process CPU
//! time, and the filesystem type under the WAL directory.

use std::ffi::CString;
use std::os::raw::{c_char, c_int, c_long};
use std::path::Path;

/// `cpu_set_t` is 1024 bits on Linux.
const MASK_WORDS: usize = 16;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn statfs(path: *const c_char, buf: *mut u64) -> c_int;
}

/// The CPUs this thread may run on, ascending; empty if the call failed.
pub fn affinity() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// What [`pin_to_one_cpu`] found and did.
#[derive(Debug, Clone)]
pub struct Pinning {
    /// CPUs available before pinning (`nproc`).
    pub cores: usize,
    /// The CPU chosen, if pinning succeeded.
    pub cpu: Option<usize>,
}

/// Confines the calling thread — and every thread it later spawns — to the
/// highest-numbered CPU of its current mask. Call before anything spawns.
pub fn pin_to_one_cpu() -> Pinning {
    let before = affinity();
    let cores = before.len();
    let Some(&cpu) = before.last() else {
        return Pinning { cores, cpu: None };
    };
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    Pinning {
        cores,
        cpu: (rc == 0).then_some(cpu),
    }
}

/// CPU time (user + system) this process has consumed, in microseconds.
pub fn process_cpu_micros() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

/// The filesystem type holding `path`, by name where known and as the
/// `statfs` magic number otherwise.
pub fn filesystem_type(path: &Path) -> String {
    let Some(c_path) = path.to_str().and_then(|s| CString::new(s).ok()) else {
        return "unknown".into();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux; `f_type` is its first word.
    let mut buf = [0u64; 16];
    // SAFETY: `c_path` is NUL-terminated and `buf` is larger than `struct statfs`.
    let rc = unsafe { statfs(c_path.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return "unknown".into();
    }
    match buf[0] {
        0xEF53 => "ext4".into(),
        0x794C_7630 => "overlayfs".into(),
        0x0102_1994 => "tmpfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        other => format!("{other:#x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_lists_at_least_one_cpu() {
        assert!(!affinity().is_empty());
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_micros();
        let mut x = 1u64;
        while process_cpu_micros() == before {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_micros() > before);
    }

    #[test]
    fn filesystem_of_manifest_dir_is_known() {
        assert_ne!(
            filesystem_type(Path::new(env!("CARGO_MANIFEST_DIR"))),
            "unknown"
        );
    }
}
