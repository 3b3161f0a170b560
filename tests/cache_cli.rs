//! `pra cache` flag handling, through the built binary: a flag one
//! subcommand accepts must not be silently ignored by another.

use std::path::PathBuf;
use std::process::{Command, Output};

fn pra_cache(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pra"))
        .arg("cache")
        .args(args)
        .env("PRA_CACHE_DIR", dir)
        .output()
        .expect("run pra")
}

#[test]
fn stale_is_a_clear_flag_and_stats_rejects_it() {
    let dir = std::env::temp_dir().join(format!("pra-cache-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let out = pra_cache(&dir, &["stats", "--stale"]);
    assert!(!out.status.success(), "stats --stale must fail, not ignore the flag");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown cache flag '--stale'"), "stderr: {stderr}");

    assert!(pra_cache(&dir, &["stats"]).status.success());
    assert!(pra_cache(&dir, &["clear", "--stale"]).status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
