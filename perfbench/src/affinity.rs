//! Thread placement. On the 2-CPU VM this benchmark was built on, where the
//! kernel puts a thread decides run by run whether a wake-up crosses CPUs,
//! and a cross-CPU wake-up costs an inter-processor interrupt whose latency
//! depends on how busy the host is: round trips differed by half between
//! runs. Each phase therefore fixes its placement. The open-loop phases
//! run generator and system on one CPU, so a round trip is the CPU work of
//! both sides plus local context switches, and no wake-up crosses CPUs. The
//! pairs phase puts one worker on each CPU, since cross-CPU cache-line
//! traffic is what it measures. Threads inherit the mask of the thread that
//! spawns them, which is how the server's and the scheduler's own threads
//! land on the pinned CPU.

use std::sync::OnceLock;

/// CPU the open-loop phases run on.
pub const OPEN_LOOP: usize = 0;

/// A CPU mask wide enough for 1024 CPUs, as the kernel lays it out.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The mask the process started with, or `None` if it could not be read
/// or does not hold both CPUs 0 and 1 (then nothing is pinned).
fn original() -> Option<&'static Mask> {
    static ORIGINAL: OnceLock<Option<Mask>> = OnceLock::new();
    ORIGINAL
        .get_or_init(|| {
            let mut mask: Mask = [0; 16];
            // SAFETY: `mask` is a live, writable buffer of exactly the size
            // passed; pid 0 names the calling thread.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
            (rc == 0 && mask[0] & 0b11 == 0b11).then_some(mask)
        })
        .as_ref()
}

fn set(mask: &Mask) {
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread. The call only changes where the kernel
    // runs this thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    if rc != 0 {
        eprintln!("affinity: could not set the CPU mask; placement left to the kernel");
    }
}

/// Pins the calling thread to `cpu` (0 or 1).
pub fn pin(cpu: usize) {
    if original().is_some() {
        let mut mask: Mask = [0; 16];
        mask[0] = 1 << cpu;
        set(&mask);
    }
}

/// Lets the calling thread run wherever the process could at start.
pub fn unpin() {
    if let Some(mask) = original() {
        set(mask);
    }
}
