//! Every `prevv-lint --explain` example is real: run under its stated
//! flags, it emits the code it documents.
//!
//! An example is kernel source (or a path to a `.pvk` file under the
//! repository root), optionally followed by a blank line and `flags: ...`;
//! a parenthesized remark after the flags is prose. Entries whose example
//! is prose only (no kernel text can trigger them) are listed in
//! [`PROSE_ONLY`].

use std::path::{Path, PathBuf};
use std::process::Command;

use prevv_analyze::explain::ALL;

/// Codes whose example is a description, not a kernel: netlist-level
/// faults synthesis never produces, a programmatic checker fixture, and a
/// runtime-only comparison.
const PROSE_ONLY: &[&str] = &["PV101", "PV102", "PV105", "PV204", "PV401", "PV403"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The kernel file and the flags of one example.
fn example_input(code: &str, example: &str) -> (PathBuf, Vec<String>) {
    let (kernel, flags) = example.split_once("\n\nflags:").unwrap_or((example, ""));
    let flags = flags
        .split_whitespace()
        .take_while(|f| !f.starts_with('('))
        .map(str::to_string)
        .collect();
    let path = if kernel.ends_with(".pvk") && !kernel.contains('\n') {
        repo_root().join(kernel)
    } else {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("explain_{code}.pvk"));
        std::fs::write(&path, kernel).expect("writes the example");
        path
    };
    (path, flags)
}

#[test]
fn every_kernel_example_emits_its_own_code() {
    let (mut prose, mut silent) = (Vec::new(), Vec::new());
    for entry in ALL {
        let code = entry.code.as_str();
        if entry.example.starts_with('(') {
            prose.push(code);
            continue;
        }
        let (path, flags) = example_input(code, entry.example);
        let out = Command::new(env!("CARGO_BIN_EXE_prevv-lint"))
            .args(&flags)
            .args(["--format", "json"])
            .arg(&path)
            .output()
            .expect("prevv-lint runs");
        if !String::from_utf8_lossy(&out.stdout).contains(&format!("\"code\":\"{code}\"")) {
            silent.push(format!(
                "{code}: prevv-lint {} {}",
                flags.join(" "),
                path.display()
            ));
        }
    }
    assert!(
        silent.is_empty(),
        "examples that miss their code: {silent:#?}"
    );
    assert_eq!(prose, PROSE_ONLY, "the prose-only examples");
}
