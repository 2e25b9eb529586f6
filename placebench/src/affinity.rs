//! CPU affinity of the calling thread (Linux), so `hit_floor` can confine the
//! client and the service it starts to one core.
//!
//! Threads inherit the affinity of the thread that spawns them: pinning the
//! main thread before the service starts pins the reactor and the workers
//! too, and restoring it before the reference solves lets their threads use
//! every core again.

use std::io;

/// A CPU set as the kernel's `cpu_set_t` lays it out (1024 bits).
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's current CPU set.
#[cfg(target_os = "linux")]
fn current() -> io::Result<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Sets the calling thread's CPU set.
#[cfg(target_os = "linux")]
fn set(set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` is a live buffer of exactly the size passed, which the
    // kernel only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Confines the calling thread (and every thread it spawns from now on) to
/// the lowest CPU it may run on; returns the previous set for [`restore`].
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> io::Result<CpuSet> {
    let previous = current()?;
    let (word, bits) = previous
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("empty CPU set"))?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    set(&one)?;
    Ok(previous)
}

/// Gives the calling thread back the CPU set [`pin_to_one_cpu`] replaced.
#[cfg(target_os = "linux")]
pub fn restore(previous: &CpuSet) -> io::Result<()> {
    set(previous)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> io::Result<CpuSet> {
    Err(io::Error::other("CPU pinning needs Linux"))
}

#[cfg(not(target_os = "linux"))]
pub fn restore(_previous: &CpuSet) -> io::Result<()> {
    Ok(())
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_restore_gives_the_set_back() {
        std::thread::spawn(|| {
            let previous = pin_to_one_cpu().expect("pins");
            let pinned = current().expect("reads");
            assert_eq!(pinned.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            let inherited = std::thread::spawn(|| current().expect("reads")).join().expect("joins");
            assert_eq!(inherited, pinned, "spawned threads inherit the pin");
            restore(&previous).expect("restores");
            assert_eq!(current().expect("reads"), previous);
        })
        .join()
        .expect("test thread");
    }
}
