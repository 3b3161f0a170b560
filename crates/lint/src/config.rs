//! Rule configuration: which rules run where.
//!
//! This repository's policy lives in one place, the in-tree
//! `pra-lint.toml` (see DESIGN.md §11): the linter compiles it in as its
//! default, and a `pra-lint.toml` at the root of the tree being linted
//! is applied on top. The parser
//! handles exactly the subset the config needs — `[rule.<name>]`
//! sections with string-list and boolean keys — because the workspace
//! builds offline and the linter must stay dependency-free.

use std::collections::BTreeMap;

/// The in-tree policy file, the single source of [`Config::repo_default`].
const REPO_POLICY: &str = include_str!("../../../pra-lint.toml");

/// How a rule's findings count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Findings fail the run (exit 1).
    Deny,
    /// Findings are printed but do not fail the run.
    Warn,
}

/// Per-rule configuration.
#[derive(Debug, Clone)]
pub struct RuleCfg {
    /// Whether the rule runs at all.
    pub enabled: bool,
    /// Whether findings fail the run.
    pub severity: Severity,
    /// Path prefixes (relative, `/`-separated) the rule applies to.
    /// Empty means the whole tree.
    pub include: Vec<String>,
    /// Path prefixes exempt from the rule (checked after `include`).
    pub exclude: Vec<String>,
}

impl Default for RuleCfg {
    fn default() -> Self {
        RuleCfg {
            enabled: true,
            severity: Severity::Deny,
            include: Vec::new(),
            exclude: Vec::new(),
        }
    }
}

impl RuleCfg {
    /// Whether the rule applies to the file at relative `path`.
    pub fn applies_to(&self, path: &str) -> bool {
        if !self.enabled {
            return false;
        }
        let hit = |prefixes: &[String]| prefixes.iter().any(|p| path.starts_with(p.as_str()));
        (self.include.is_empty() || hit(&self.include)) && !hit(&self.exclude)
    }
}

/// The full linter configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes the walker never descends into.
    pub exclude: Vec<String>,
    /// Per-rule settings, keyed by rule id.
    pub rules: BTreeMap<String, RuleCfg>,
}

impl Config {
    /// This repository's policy: the in-tree `pra-lint.toml`, compiled
    /// in and applied to an empty config (see DESIGN.md §11 for the
    /// rationale per rule). Rules the file does not name keep
    /// [`Config::rule`]'s everywhere-deny default.
    pub fn repo_default() -> Config {
        let mut cfg = Config { exclude: Vec::new(), rules: BTreeMap::new() };
        cfg.apply_toml(REPO_POLICY).expect("the in-tree pra-lint.toml parses");
        cfg
    }

    /// A permissive configuration for fixture tests: every rule applies
    /// everywhere, nothing is excluded.
    pub fn all_paths() -> Config {
        let mut cfg = Config::repo_default();
        cfg.exclude.clear();
        for rule in cfg.rules.values_mut() {
            rule.include.clear();
            rule.exclude.clear();
        }
        cfg
    }

    /// The settings for `rule`, defaulting to an everywhere-deny rule
    /// when the config does not mention it.
    pub fn rule(&self, rule: &str) -> RuleCfg {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Applies a `pra-lint.toml` body on top of `self`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unparsable line.
    pub fn apply_toml(&mut self, body: &str) -> Result<(), String> {
        let mut section: Option<String> = None;
        for (lineno, raw) in body.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = Some(name.trim().to_string());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`: {raw}", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let err = |what: &str| format!("line {}: {what}: {raw}", lineno + 1);
            match section.as_deref() {
                Some("lint") | None => match key {
                    "exclude" => self.exclude = parse_list(value).ok_or_else(|| err("bad list"))?,
                    _ => return Err(err("unknown key in [lint]")),
                },
                Some(s) => {
                    let rule_name = s
                        .strip_prefix("rule.")
                        .ok_or_else(|| err("unknown section (expected [lint] or [rule.<name>])"))?;
                    let rule = self.rules.entry(rule_name.to_string()).or_default();
                    match key {
                        "enabled" => {
                            rule.enabled = parse_bool(value).ok_or_else(|| err("bad bool"))?
                        }
                        "severity" => {
                            rule.severity = match value.trim_matches('"') {
                                "deny" => Severity::Deny,
                                "warn" => Severity::Warn,
                                _ => return Err(err("severity must be \"deny\" or \"warn\"")),
                            }
                        }
                        "include" => {
                            rule.include = parse_list(value).ok_or_else(|| err("bad list"))?
                        }
                        "exclude" => {
                            rule.exclude = parse_list(value).ok_or_else(|| err("bad list"))?
                        }
                        _ => return Err(err("unknown key in [rule.*]")),
                    }
                }
            }
        }
        Ok(())
    }
}

/// Drops a trailing `# comment`, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_bool(v: &str) -> Option<bool> {
    match v {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// Parses `[ "a", "b" ]` (possibly empty) into its strings.
fn parse_list(v: &str) -> Option<Vec<String>> {
    let inner = v.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| Some(s.strip_prefix('"')?.strip_suffix('"')?.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_scopes_rules() {
        let cfg = Config::repo_default();
        assert!(cfg.rule("serve-no-panic").applies_to("crates/serve/src/queue.rs"));
        assert!(cfg.rule("serve-no-panic").applies_to("crates/serve/src/supervisor.rs"));
        assert!(!cfg.rule("serve-no-panic").applies_to("crates/serve/src/bench.rs"));
        assert!(cfg.rule("serve-no-panic").applies_to("crates/router/src/router.rs"));
        assert!(cfg.rule("serve-no-panic").applies_to("crates/router/src/health.rs"));
        assert!(!cfg.rule("serve-no-panic").applies_to("crates/router/src/cluster.rs"));
        assert!(cfg.rule("no-wall-clock").applies_to("crates/core/src/schedule.rs"));
        assert!(!cfg.rule("no-wall-clock").applies_to("crates/serve/src/queue.rs"));
        assert!(!cfg.rule("no-wall-clock").applies_to("crates/serve/src/supervisor.rs"));
        assert!(!cfg.rule("no-wall-clock").applies_to("crates/chaos/src/lib.rs"));
        assert!(!cfg.rule("no-wall-clock").applies_to("crates/router/src/health.rs"));
        assert!(cfg.rule("deterministic-iteration").applies_to("crates/bench/src/sweep.rs"));
        assert!(cfg.rule("deterministic-iteration").applies_to("crates/router/src/router.rs"));
        // The artifact serializer feeds content-addressed cache payloads:
        // iteration order there IS the byte stream, so it must stay in
        // scope (pra-lint.toml's `crates/core/src` prefix covers it).
        assert!(cfg.rule("deterministic-iteration").applies_to("crates/core/src/artifact.rs"));
        assert!(cfg.rule("unsafe-safety-comment").applies_to("anything/at/all.rs"));
    }

    #[test]
    fn toml_overrides_apply() {
        let mut cfg = Config::repo_default();
        cfg.apply_toml(
            "# policy\n[lint]\nexclude = [\"target\", \"shims\"]\n\n\
             [rule.no-wall-clock]\nexclude = [\"crates/x.rs\"]  # new allowlist\n\
             [rule.no-thread-id]\nenabled = false\nseverity = \"warn\"\n",
        )
        .expect("parses");
        assert_eq!(cfg.exclude, vec!["target", "shims"]);
        assert!(cfg.rule("no-wall-clock").applies_to("crates/serve/src/queue.rs"));
        assert!(!cfg.rule("no-wall-clock").applies_to("crates/x.rs"));
        assert!(!cfg.rule("no-thread-id").enabled);
    }

    #[test]
    fn toml_rejects_unknown_keys() {
        let mut cfg = Config::repo_default();
        assert!(cfg.apply_toml("[rule.no-thread-id]\ncolour = \"blue\"\n").is_err());
        assert!(cfg.apply_toml("[weird]\nx = 1\n").is_err());
        assert!(cfg.apply_toml("just words\n").is_err());
    }

    #[test]
    fn empty_and_quoted_lists_parse() {
        assert_eq!(parse_list("[]"), Some(vec![]));
        assert_eq!(parse_list("[\"a\", \"b\"]"), Some(vec!["a".to_string(), "b".to_string()]));
        assert_eq!(parse_list("[bare]"), None);
    }
}
