//! The machine fingerprint carried by every output, and the environment
//! knobs that must be unset for a run to start.
//!
//! Two result files are comparable only if they were measured on the same
//! kind of machine with the same resolved settings; `compare` refuses
//! anything else. The commit is recorded but not compared: comparing two
//! commits is the point.

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::Command;

/// Environment variables that change what the program executes. The run
/// refuses to start if any is set, so every result is of the defaults.
pub const KNOBS: [&str; 3] = ["LOCK_ANALYSIS", "CRACKER_KERNEL", "DBCRACKER_EXEC"];

/// Where and with what a result was measured.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Available hardware threads.
    pub nproc: String,
    /// Target architecture.
    pub arch: String,
    /// Detected CPU features the crack kernels can use.
    pub cpu_features: String,
    /// What `KernelPolicy::Auto` resolves to.
    pub kernel_policy: String,
    /// The operator pipeline `DBCRACKER_EXEC` selects.
    pub exec_mode: String,
    /// The state of every knob in [`KNOBS`].
    pub env_knobs: String,
    /// The allocator setting the run was pinned to (see `MALLOC_PIN`).
    pub malloc: String,
    /// Commit of the checkout, if it is a git repository.
    pub git_commit: String,
    /// Compiler version.
    pub rustc: String,
    /// File-system type under the durable files.
    pub tmp_fs: String,
}

impl Fingerprint {
    /// The fields `compare` requires to match — all but the commit.
    fn compared(&self) -> [(&'static str, &str); 9] {
        [
            ("nproc", &self.nproc),
            ("arch", &self.arch),
            ("cpu_features", &self.cpu_features),
            ("kernel_policy", &self.kernel_policy),
            ("exec_mode", &self.exec_mode),
            ("env_knobs", &self.env_knobs),
            ("malloc", &self.malloc),
            ("rustc", &self.rustc),
            ("tmp_fs", &self.tmp_fs),
        ]
    }
}

/// The knobs that are set, as `NAME=value`.
pub fn knobs_set() -> Vec<String> {
    KNOBS
        .iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| format!("{k}={v}")))
        .collect()
}

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_string())
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`), or `unknown`.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // "... <mount point> <options> [optional fields] - <fs type> ..."
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split_whitespace().nth(4)?;
            let fs = right.split_whitespace().next()?;
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

fn cpu_features() -> String {
    let mut found: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                found.push(name);
            }
        }
    }
    if cracker_core::simd_supported() {
        found.push("cracker-simd");
    }
    found.join(",")
}

/// Collect the fingerprint; `tmp` is where durable files will go.
pub fn collect(tmp: &Path) -> Fingerprint {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let knobs: Vec<String> = KNOBS
        .iter()
        .map(|k| {
            format!(
                "{k}={}",
                std::env::var(k).unwrap_or_else(|_| "unset".into())
            )
        })
        .collect();
    Fingerprint {
        nproc: nproc.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        cpu_features: cpu_features(),
        kernel_policy: format!("{:?}", cracker_core::KernelPolicy::Auto.resolve()),
        exec_mode: format!("{:?}", engine::exec::ExecMode::from_env()),
        env_knobs: knobs.join(" "),
        malloc: format!(
            "{}={}",
            crate::MALLOC_PIN.0,
            std::env::var(crate::MALLOC_PIN.0).unwrap_or_else(|_| "unset".into())
        ),
        git_commit: first_line("git", &["rev-parse", "HEAD"]),
        rustc: first_line("rustc", &["--version"]),
        tmp_fs: fs_type(tmp),
    }
}

/// Fields on which two fingerprints differ, ignoring the commit.
pub fn mismatches(a: &Fingerprint, b: &Fingerprint) -> Vec<String> {
    a.compared()
        .into_iter()
        .zip(b.compared())
        .filter(|(x, y)| x != y)
        .map(|((key, x), (_, y))| format!("{key}: {x:?} vs {y:?}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_compares_all_but_the_commit() {
        let fp = collect(Path::new("."));
        assert_ne!(fp.nproc, "0");
        assert!(fp.rustc.starts_with("rustc"), "{}", fp.rustc);
        assert!(fp.env_knobs.contains("CRACKER_KERNEL="));
        let mut other = fp.clone();
        other.git_commit = "something else".into();
        assert!(mismatches(&fp, &other).is_empty());
        other.nproc = "1000".into();
        assert_eq!(mismatches(&fp, &other).len(), 1);
    }
}
