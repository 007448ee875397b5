//! The `probft-lint` binary: scan the repo, print stable diagnostics, and
//! exit nonzero on any finding. Run from the repo root (CI does) or pass
//! `--root <dir>`.

use std::path::PathBuf;
use std::process::ExitCode;

use probft_lint::{render, scan_repo};

const USAGE: &str = "usage: probft-lint [--root DIR]

Scans the workspace for violations of the repo lint rules (L001-L003,
L008, L010) and exits nonzero on any finding. A deliberate site is
fixed or restructured, not listed: there is no allowlist.";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root needs a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let findings = match scan_repo(&root) {
        Ok(findings) => findings,
        Err(err) => {
            eprintln!("error: failed to scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    print!("{}", render(&findings));
    if findings.is_empty() {
        println!("probft-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("probft-lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}
