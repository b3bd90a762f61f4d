//! A SIGPROF sampling profiler, loaded into a process with `LD_PRELOAD`.
//!
//! With `SAMPLER_OUT` set, a constructor in `.init_array` installs a
//! `SIGPROF` handler and arms `ITIMER_PROF` at 1 ms of process CPU time.
//! Each tick the handler records the interrupted instruction pointer and
//! the return addresses of the frame-pointer chain above it into one static
//! buffer; an `atexit` hook writes them to `SAMPLER_OUT.<pid>` with the
//! executable's load base and text range, as raw addresses for
//! `addr2line` (`tools/profile.sh` does both steps).
//!
//! The handler only loads, compares and stores: no allocation, no lock, no
//! call into libc. The chain is walked only while the frame pointer stays
//! inside the stack the signal arrived on — the main thread's, whose range
//! the constructor reads from `/proc/self/maps`; on any other thread a
//! sample is the instruction pointer alone. Frames compiled without frame
//! pointers (std, libc) can cut a chain short or skip a caller; build the
//! profiled program with `-C force-frame-pointers=yes`.
//!
//! Output format, one record per line:
//!
//! ```text
//! base 0x…          load address of the executable's first mapping
//! text 0x… 0x…      its executable mapping (addresses outside are not its)
//! dropped N         samples that did not fit the buffer
//! 0x… 0x… …         one sample, innermost first
//! ```

#![allow(unsafe_code)]

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!("the sampler reads x86_64 Linux signal frames");

use std::ffi::{c_int, c_void, OsString};
use std::fs;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Words in the sample buffer (16 MiB of `.bss`; pages are committed as
/// samples reach them).
const CAPACITY: usize = 1 << 21;
/// Frames kept per sample, innermost first.
const MAX_DEPTH: usize = 96;

const SIGPROF: c_int = 27;
const SA_SIGINFO: c_int = 4;
const SA_RESTART: c_int = 0x1000_0000;
const ITIMER_PROF: c_int = 2;
/// Byte offset of `uc_mcontext.gregs` in x86_64 glibc's `ucontext_t`
/// (`uc_flags`, `uc_link`, a 24-byte `stack_t`).
const GREGS_OFFSET: usize = 40;
const REG_RBP: usize = 10;
const REG_RSP: usize = 15;
const REG_RIP: usize = 16;

#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: c_int,
    restorer: usize,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct ITimerVal {
    interval: TimeVal,
    value: TimeVal,
}

extern "C" {
    fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
    fn setitimer(which: c_int, new: *const ITimerVal, old: *mut ITimerVal) -> c_int;
    fn atexit(f: extern "C" fn()) -> c_int;
    fn getpid() -> c_int;
}

/// The samples: per sample a frame count, then that many addresses.
struct Buffer(std::cell::UnsafeCell<[u64; CAPACITY]>);

// SAFETY: writers reserve disjoint ranges through `NEXT` (one atomic
// add), and the one reader runs after the timer is disarmed.
unsafe impl Sync for Buffer {}

static BUF: Buffer = Buffer(std::cell::UnsafeCell::new([0; CAPACITY]));
static NEXT: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// The main thread's stack, `[STACK_LO, STACK_HI)`.
static STACK_LO: AtomicU64 = AtomicU64::new(0);
static STACK_HI: AtomicU64 = AtomicU64::new(0);
static OUT: OnceLock<OsString> = OnceLock::new();

#[used]
#[link_section = ".init_array"]
static INIT: extern "C" fn() = init;

extern "C" fn init() {
    let Some(out) = std::env::var_os("SAMPLER_OUT") else {
        return;
    };
    let _ = OUT.set(out);
    if let Some((lo, hi)) = maps()
        .lines()
        .find_map(|l| l.ends_with("[stack]").then(|| range(l)))
    {
        STACK_LO.store(lo, Ordering::Relaxed);
        STACK_HI.store(hi, Ordering::Relaxed);
    }
    let act = SigAction {
        handler: on_prof as extern "C" fn(c_int, *mut c_void, *mut c_void) as usize,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    let every = TimeVal { sec: 0, usec: 1000 };
    let timer = ITimerVal {
        interval: every,
        value: every,
    };
    // SAFETY: plain libc calls with valid pointers to initialized structs.
    unsafe {
        sigaction(SIGPROF, &act, std::ptr::null_mut());
        atexit(write_out);
        setitimer(ITIMER_PROF, &timer, std::ptr::null_mut());
    }
}

extern "C" fn on_prof(_sig: c_int, _info: *mut c_void, context: *mut c_void) {
    let mut frames = [0u64; MAX_DEPTH];
    // SAFETY: the kernel hands a SA_SIGINFO handler a valid `ucontext_t`.
    let reg = |r: usize| unsafe { *context.cast::<u8>().add(GREGS_OFFSET).cast::<u64>().add(r) };
    let (rip, mut fp, rsp) = (reg(REG_RIP), reg(REG_RBP), reg(REG_RSP));
    frames[0] = rip;
    let mut depth = 1;
    let (lo, hi) = (
        STACK_LO.load(Ordering::Relaxed),
        STACK_HI.load(Ordering::Relaxed),
    );
    if lo <= rsp && rsp < hi {
        // Every frame read lies in [rsp, hi): mapped stack of this thread.
        while depth < MAX_DEPTH && fp >= rsp && fp % 8 == 0 && fp <= hi - 16 {
            // SAFETY: checked above to lie inside the interrupted stack.
            let (next, ret) = unsafe { (*(fp as *const u64), *((fp + 8) as *const u64)) };
            if ret == 0 {
                break;
            }
            frames[depth] = ret;
            depth += 1;
            if next <= fp {
                break;
            }
            fp = next;
        }
    }
    let at = NEXT.fetch_add(depth + 1, Ordering::Relaxed);
    if at + depth + 1 > CAPACITY {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let buf = BUF.0.get().cast::<u64>();
    // SAFETY: `at .. at + depth + 1` is in bounds and reserved for this
    // sample alone by the `fetch_add` above.
    unsafe {
        *buf.add(at) = depth as u64;
        std::ptr::copy_nonoverlapping(frames.as_ptr(), buf.add(at + 1), depth);
    }
}

extern "C" fn write_out() {
    let off = ITimerVal {
        interval: TimeVal { sec: 0, usec: 0 },
        value: TimeVal { sec: 0, usec: 0 },
    };
    // SAFETY: disarms the timer; no handler runs after this returns.
    unsafe { setitimer(ITIMER_PROF, &off, std::ptr::null_mut()) };
    let Some(out) = OUT.get() else { return };
    // SAFETY: `getpid` has no preconditions.
    let pid = unsafe { getpid() };
    let mut path = out.clone();
    path.push(format!(".{pid}"));
    let Ok(file) = fs::File::create(&path) else {
        return;
    };
    let _ = write_samples(&mut BufWriter::new(file));
}

fn write_samples(w: &mut impl Write) -> std::io::Result<()> {
    let maps = maps();
    let exe = fs::read_link("/proc/self/exe").unwrap_or_default();
    let exe = exe.to_string_lossy();
    let mine = || maps.lines().filter(|l| l.ends_with(&*exe));
    let base = mine().next().map_or(0, |l| range(l).0);
    let text = mine().find(|l| l.split(' ').nth(1) == Some("r-xp"));
    let (lo, hi) = text.map_or((0, 0), range);
    writeln!(w, "base {base:#x}")?;
    writeln!(w, "text {lo:#x} {hi:#x}")?;
    writeln!(w, "dropped {}", DROPPED.load(Ordering::Relaxed))?;
    let end = NEXT.load(Ordering::Relaxed).min(CAPACITY);
    // SAFETY: see `write_out`; every word below `end` was written whole.
    let buf = unsafe { &*BUF.0.get() };
    let mut at = 0;
    while at < end {
        let depth = buf[at] as usize;
        // A zero count is the unwritten tail a dropped sample reserved.
        let frames = match buf.get(at + 1..at + 1 + depth) {
            Some(frames) if depth > 0 => frames,
            _ => break,
        };
        let line: Vec<String> = frames.iter().map(|a| format!("{a:#x}")).collect();
        writeln!(w, "{}", line.join(" "))?;
        at += depth + 1;
    }
    w.flush()
}

fn maps() -> String {
    fs::read_to_string("/proc/self/maps").unwrap_or_default()
}

/// The address range at the start of a `/proc/self/maps` line.
fn range(line: &str) -> (u64, u64) {
    let span = line.split(' ').next().unwrap_or("");
    let mut ends = span
        .split('-')
        .map(|h| u64::from_str_radix(h, 16).unwrap_or(0));
    (ends.next().unwrap_or(0), ends.next().unwrap_or(0))
}
