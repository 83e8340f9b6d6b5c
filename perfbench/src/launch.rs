//! `perfbench-trace launch`: runs one command and reports its wall time,
//! and the CPU time and peak RSS of it and every child it waited for.
//!
//! Linux charges a new program's peak RSS with the RSS of the process it
//! was spawned from, as that stood when the program replaced the copy
//! (exec). Spawned straight from the Python harness, whose RSS is about
//! radio-lab's own, the figure would read the harness. This launcher is
//! small, so the commands it spawns start clean, and it reaps them with
//! `wait4` to read their resource usage, which `std` does not expose.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_long};
use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, the
/// first of which is the peak RSS in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    other: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
}

/// What one launched command cost.
pub struct Usage {
    /// Spawn to reap.
    pub wall_s: f64,
    /// User plus system time of the command and its waited-for children.
    pub cpu_s: f64,
    /// The largest peak RSS of the command and its waited-for children.
    pub peak_rss_mb: f64,
    /// The exit code, or 128 + the signal that ended the command.
    pub code: i32,
}

fn output(path: Option<&Path>) -> io::Result<Stdio> {
    path.map_or(Ok(Stdio::null()), |p| File::create(p).map(Stdio::from))
}

fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// Runs `program args…` with stdout and stderr sent to the given files
/// (or discarded) and waits for it.
///
/// # Errors
///
/// Surfaces spawn and wait errors.
pub fn launch(
    program: &str,
    args: &[String],
    stdout: Option<&Path>,
    stderr: Option<&Path>,
) -> io::Result<Usage> {
    let mut command = Command::new(program);
    command
        .args(args)
        .stdin(Stdio::null())
        .stdout(output(stdout)?)
        .stderr(output(stderr)?);
    let start = Instant::now();
    let child = command.spawn()?;
    let pid = c_int::try_from(child.id())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `wait4` writes only through its two pointers, which point
        // at live locals laid out as the C types it expects (`int` and the
        // 64-bit Linux `struct rusage`); `pid` is our own unreaped child.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // The child is reaped; dropping its handle neither waits nor kills.
    drop(child);
    let signal = status & 0x7f;
    Ok(Usage {
        wall_s,
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        code: if signal == 0 {
            (status >> 8) & 0xff
        } else {
            128 + signal
        },
    })
}
