//! The host and build every result was measured on.

use phishinghook_evm::keccak::Digest;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Host and build facts recorded with each result.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Whether AVX2 is detected (the quantized row transform uses it).
    pub avx2: bool,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, when the checkout is a git repository.
    pub git_rev: String,
    /// Keccak-256 over the workspace sources and manifests: identifies the
    /// build even where the checkout carries no git metadata.
    pub source_digest: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Digest of `Cargo.toml`, `Cargo.lock` and every `.rs`/`.toml` file under
/// `crates/`, `src/` and `vendor/` of `root`, in sorted path order.
pub fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "src", "vendor"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.push(0);
        bytes.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    Digest::of(&bytes).to_hex()
}

impl Host {
    /// Probes the host, the toolchain and the checkout at `root`.
    pub fn probe(root: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            avx2,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
            // Only the checkout's own metadata counts, never an enclosing
            // repository's.
            git_rev: root
                .join(".git")
                .exists()
                .then(|| command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "none".to_owned()),
            source_digest: source_digest(root),
        }
    }
}
