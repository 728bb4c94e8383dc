//! What the relay binaries (`relayd`, `flowctl`) and the node runtime
//! share: a `--key value` flag scanner and stderr logging that
//! survives a closed pipe.

use std::io::Write as _;

/// Tiny `--key value` scanner (no clap offline). A repeated flag's
/// last value wins, so wrappers can append overrides.
pub struct Args(pub Vec<String>);

impl Args {
    /// The value after the last `--name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.0
            .iter()
            .rposition(|a| *a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    /// `--name`'s value parsed, or `default` when absent or malformed.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether `--name` appears.
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| *a == format!("--{name}"))
    }

    /// Positional (non-flag) arguments, in order; a flag named in
    /// `valued` consumes the next argument as its value.
    pub fn positional(&self, valued: &[&str]) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &self.0 {
            if std::mem::take(&mut skip) {
                continue;
            }
            match a.strip_prefix("--") {
                Some(flag) => skip = valued.contains(&flag),
                None => out.push(a.as_str()),
            }
        }
        out
    }
}

/// Logging that survives a closed stderr: a supervisor (or a test
/// harness) dropping the pipe must degrade logging, never kill a node
/// mid-export (`eprintln!` panics on a broken pipe).
pub fn log(msg: core::fmt::Arguments<'_>) {
    let _ = writeln!(std::io::stderr(), "{msg}");
}
