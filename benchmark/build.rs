//! Bakes the compiler version into the binary so every result line can
//! name the toolchain it was built with.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=LEDGER_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
