//! Process CPU time (user + system) from `getrusage`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cpu.rs declares the 64-bit Linux layout of `struct rusage`");

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// User + system CPU seconds consumed by every thread of this process.
pub fn process_cpu_s() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `Rusage` whose layout matches the
    // C `struct rusage` of the target the cfg above admits, and
    // `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}
