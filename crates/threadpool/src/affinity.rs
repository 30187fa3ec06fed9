//! Best-effort thread-to-core binding, cpuset enumeration, and core
//! reservation.
//!
//! The paper binds each worker to a disjoint physical core "to minimize the
//! hardware contention". On Linux this is `sched_setaffinity(2)`; to stay
//! within the approved dependency set we issue the raw syscall instead of
//! pulling in `libc`. On other platforms (or if the kernel rejects the
//! mask) binding silently degrades to a no-op — it is a performance hint,
//! not a correctness requirement.
//!
//! Two bugs shaped this module's current form:
//!
//! 1. **Cpuset blindness.** Binding used absolute core indices, so a
//!    process confined to cores 4–7 (a container cpuset) would ask for
//!    core 0 and fail — or worse, a kernel without cpuset enforcement
//!    would happily bind outside the allowed set. [`allowed_cores`] now
//!    enumerates the actual mask via `sched_getaffinity(2)` and
//!    [`bind_current_thread`] refuses cores outside it.
//! 2. **Cross-engine pile-up.** Every pool/engine pinned worker `w` to
//!    core `w % n` starting at 0, so two engines in one process stacked
//!    all their workers onto the same low cores. [`reserve_cores`] hands
//!    out slots from a process-global cursor so independent engines land
//!    on disjoint cores by default (when enough cores exist).
//!
//! [`CoreSet`] is the currency: an ordered set of usable core indices.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maximum CPU index representable in the affinity mask we pass.
pub const MAX_CPUS: usize = 1024;

/// An ordered set of CPU core indices this process may run on.
///
/// Construction sorts, dedups, and drops indices `>= MAX_CPUS`. The set is
/// the unit of core accounting everywhere above this module: engines carry
/// a `CoreSet` describing where their workers may pin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreSet {
    cores: Vec<usize>,
}

impl CoreSet {
    /// Builds a set from arbitrary core indices (sorted, deduped, indices
    /// `>= MAX_CPUS` dropped).
    pub fn from_cores<I: IntoIterator<Item = usize>>(cores: I) -> Self {
        let mut cores: Vec<usize> = cores.into_iter().filter(|&c| c < MAX_CPUS).collect();
        cores.sort_unstable();
        cores.dedup();
        Self { cores }
    }

    /// The core indices, ascending.
    pub fn cores(&self) -> &[usize] {
        &self.cores
    }

    /// Number of cores in the set.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Whether `core` is a member.
    pub fn contains(&self, core: usize) -> bool {
        self.cores.binary_search(&core).is_ok()
    }

    /// The `slot`-th core of the set, wrapping when `slot >= len` — so a
    /// pool with more workers than cores oversubscribes round-robin
    /// instead of failing. `None` only when the set is empty.
    pub fn core_at(&self, slot: usize) -> Option<usize> {
        if self.cores.is_empty() {
            return None;
        }
        Some(self.cores[slot % self.cores.len()])
    }

    /// Whether `self` and `other` share no cores.
    pub fn is_disjoint(&self, other: &CoreSet) -> bool {
        self.cores.iter().all(|c| !other.contains(*c))
    }
}

/// Pins the calling thread to `core` (best effort).
///
/// `core` must be a member of [`allowed_cores`] — the process cpuset as
/// observed at startup. Asking for a core outside it (e.g. absolute core 0
/// in a container confined to cores 4–7) returns `false` without touching
/// the kernel; this is what made the old absolute-index binding flaky
/// under restricted cpusets.
///
/// Returns `true` if the kernel accepted the new affinity mask, `false` if
/// the core is outside the allowed set, binding is unsupported on this
/// platform, or the syscall failed. Callers treat `false` as "run
/// unbound".
pub fn bind_current_thread(core: usize) -> bool {
    if core >= MAX_CPUS || !allowed_cores().contains(core) {
        return false;
    }
    bind_impl(core)
}

/// The set of cores the process was allowed to run on at startup, read
/// once via `sched_getaffinity(2)` and cached.
///
/// Cached because the per-thread mask narrows as workers bind themselves:
/// a worker pinned to core 5 that asked the kernel again would see `{5}`
/// and conclude the whole machine is one core. The first call happens on
/// an engine's control thread before any binding, so the cache holds the
/// true cpuset. Falls back to `0..available_parallelism` when the syscall
/// is unavailable (non-Linux) or fails.
pub fn allowed_cores() -> &'static CoreSet {
    static ALLOWED: OnceLock<CoreSet> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        read_affinity_mask().unwrap_or_else(|| CoreSet::from_cores(0..available_cores()))
    })
}

/// Reads the calling thread's *current* affinity mask from the kernel
/// (uncached). After a successful [`bind_current_thread`] this is the
/// bound mask — tests use it to prove two engines' workers landed on
/// disjoint cores. `None` when the syscall is unavailable.
pub fn current_thread_affinity() -> Option<CoreSet> {
    read_affinity_mask()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn read_affinity_mask() -> Option<CoreSet> {
    const SYS_SCHED_GETAFFINITY: i64 = 204;
    let mut mask = [0u64; MAX_CPUS / 64];
    let ret: i64;
    // SAFETY: `sched_getaffinity(0, len, mask)` writes at most `len` bytes
    // into `mask`, a live stack buffer of exactly that size; pid 0 means
    // the calling thread. Clobbers rcx/r11 per the x86-64 Linux ABI.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_GETAFFINITY => ret,
            in("rdi") 0i64,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    // On success the kernel returns the number of bytes it copied.
    if ret <= 0 {
        return None;
    }
    let cores = (0..MAX_CPUS).filter(|&c| mask[c / 64] & (1u64 << (c % 64)) != 0);
    let set = CoreSet::from_cores(cores);
    (!set.is_empty()).then_some(set)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn read_affinity_mask() -> Option<CoreSet> {
    None
}

/// Reserves `count` core slots from a process-global cursor over
/// [`allowed_cores`], so independently constructed engines land on
/// disjoint cores by default.
///
/// The first caller gets allowed cores `[0, count)`, the next
/// `[count, 2·count)`, and so on, wrapping modulo the cpuset size — with
/// more total workers than cores the reservations overlap (the machine is
/// oversubscribed either way), but they never all stack onto the same low
/// cores the way `w % n` binding did. Slots are never returned; the
/// cursor only advances. `count = 0` reserves nothing and returns an
/// empty set.
pub fn reserve_cores(count: usize) -> CoreSet {
    static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
    if count == 0 {
        return CoreSet::from_cores([]);
    }
    let allowed = allowed_cores();
    let start = NEXT_SLOT.fetch_add(count, Ordering::Relaxed);
    CoreSet::from_cores(
        (start..start + count).filter_map(|slot| allowed.core_at(slot)),
    )
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn bind_impl(core: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    let mut mask = [0u64; MAX_CPUS / 64];
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: i64;
    // SAFETY: `sched_setaffinity(0, len, mask)` only reads `len` bytes from
    // `mask`, which is a live stack buffer of exactly that size; pid 0 means
    // the calling thread, so no other process state is touched. The syscall
    // clobbers rcx/r11 per the x86-64 Linux ABI, declared below.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0i64,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn bind_impl(_core: usize) -> bool {
    false
}

/// Number of CPUs available to this process.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_to_first_allowed_core_succeeds_on_linux() {
        // Regression: the old test bound absolute core 0, which fails in a
        // container whose cpuset starts above 0. The first *allowed* core
        // must always be bindable.
        let first = allowed_cores().core_at(0).expect("cpuset cannot be empty");
        let ok = bind_current_thread(first);
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert!(ok, "binding to the first allowed core ({first}) must succeed on Linux");
            let observed = current_thread_affinity().expect("getaffinity works where bind does");
            assert_eq!(observed.cores(), &[first], "bound mask must be exactly the asked core");
            // Restore the full mask so later tests on this thread (and any
            // threads it spawns) see the whole cpuset.
            restore_full_mask();
        } else {
            assert!(!ok);
        }
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn restore_full_mask() {
        const SYS_SCHED_SETAFFINITY: i64 = 203;
        let mut mask = [0u64; MAX_CPUS / 64];
        for &c in allowed_cores().cores() {
            mask[c / 64] |= 1u64 << (c % 64);
        }
        let ret: i64;
        // SAFETY: same contract as `bind_impl`, with a multi-bit mask.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
                in("rdi") 0i64,
                in("rsi") std::mem::size_of_val(&mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        assert_eq!(ret, 0);
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn restore_full_mask() {}

    #[test]
    fn bind_out_of_range_fails_cleanly() {
        assert!(!bind_current_thread(MAX_CPUS));
        assert!(!bind_current_thread(MAX_CPUS + 5));
    }

    #[test]
    fn bind_outside_allowed_set_fails_cleanly() {
        // Find a core index < MAX_CPUS that is not in the cpuset; under an
        // unrestricted mask on a small machine one always exists well above
        // the top allowed core.
        let top = *allowed_cores().cores().last().unwrap();
        if top + 1 < MAX_CPUS && !allowed_cores().contains(top + 1) {
            assert!(!bind_current_thread(top + 1));
        }
    }

    #[test]
    fn allowed_cores_is_nonempty_and_within_range() {
        let allowed = allowed_cores();
        assert!(!allowed.is_empty());
        assert!(allowed.cores().iter().all(|&c| c < MAX_CPUS));
    }

    #[test]
    fn available_cores_is_positive() {
        assert!(available_cores() >= 1);
    }

    #[test]
    fn core_set_sorts_dedups_and_filters() {
        let set = CoreSet::from_cores([5, 1, 5, 3, MAX_CPUS + 7]);
        assert_eq!(set.cores(), &[1, 3, 5]);
        assert!(set.contains(3) && !set.contains(2));
        assert_eq!(set.core_at(0), Some(1));
        assert_eq!(set.core_at(4), Some(3), "core_at wraps modulo len");
        assert_eq!(CoreSet::from_cores([]).core_at(0), None);
    }

    #[test]
    fn reserve_cores_advances_and_never_collides_while_slots_remain() {
        let a = reserve_cores(1);
        let b = reserve_cores(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        // Reservations are subsets of the cpuset.
        assert!(a.cores().iter().all(|&c| allowed_cores().contains(c)));
        assert!(b.cores().iter().all(|&c| allowed_cores().contains(c)));
        if allowed_cores().len() >= 2 {
            // Other tests share the cursor, so we cannot assert exact
            // cores — only that back-to-back reservations do not collide
            // when the machine has room. Wrapping can still collide once
            // the cursor laps the cpuset, which single-core boxes hit
            // immediately.
            let lapped = a.cores()[0] == b.cores()[0];
            assert!(
                !lapped || allowed_cores().len() == 1,
                "consecutive 1-core reservations collided on a multi-core cpuset"
            );
        }
        assert!(reserve_cores(0).is_empty());
    }
}
