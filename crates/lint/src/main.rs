//! `attila-lint` — run the source linter over a workspace tree.
//!
//! ```sh
//! cargo run -p attila-lint                 # lint the current tree
//! cargo run -p attila-lint -- path/to/repo # lint another checkout
//! ```
//!
//! Prints every finding and a summary line; exits 1 when any finding
//! survives suppression, or when the tree cannot be read.

use std::path::PathBuf;
use std::process::ExitCode;

use attila_lint::{check, scan_workspace};

fn run() -> Result<usize, String> {
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("usage: attila-lint [root]");
                return Ok(0);
            }
            other if !other.starts_with('-') => root = PathBuf::from(other),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let files =
        scan_workspace(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let findings = check(&files);
    for f in &findings {
        println!("{f}");
    }
    println!("attila-lint: {} file(s), {} finding(s)", files.len(), findings.len());
    Ok(findings.len())
}

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
