//! CPU affinity of the measuring thread (Linux `sched_{get,set}affinity`).
//!
//! On a shared host each vCPU goes through its own slow phases, and a
//! busy thread stays on one vCPU, so a whole run can read slow. The
//! compute workloads therefore move their thread to the next allowed CPU
//! at every round: a job's fastest round is then taken over the quiet
//! phases of every CPU. One thread still does all the work.

use std::os::raw::c_int;

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// The affinity mask of the calling thread, if the call succeeds.
pub fn current() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    (rc == 0).then_some(mask)
}

/// Restricts the calling thread, and the threads it spawns from now on,
/// to `mask`. Returns whether the kernel accepted it.
pub fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed, and pid
    // 0 names the calling thread; the kernel only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// The CPUs in `mask`, each as a mask of its own.
pub fn singles(mask: &CpuSet) -> Vec<CpuSet> {
    let mut out = Vec::new();
    for (word, bits) in mask.iter().enumerate() {
        for bit in 0..64 {
            if bits & (1 << bit) != 0 {
                let mut one: CpuSet = [0; 16];
                one[word] = 1 << bit;
                out.push(one);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singles_split_a_mask() {
        let mut mask: CpuSet = [0; 16];
        mask[0] = 0b101;
        mask[1] = 1;
        let s = singles(&mask);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0][0], 1);
        assert_eq!(s[1][0], 4);
        assert_eq!(s[2][1], 1);
    }

    #[test]
    fn current_mask_round_trips() {
        let mask = current().expect("sched_getaffinity");
        assert!(!singles(&mask).is_empty());
        assert!(set(&mask));
    }
}
