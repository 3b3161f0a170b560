//! The rule set: repo-specific invariants clippy cannot express.
//!
//! Every rule matches on the token stream of [`crate::lexer`], so
//! strings and comments can never fire one. Test code (a `tests/`,
//! `benches/` or `examples/` file, a `#[cfg(test)]` module, a `#[test]`
//! function) is exempt from the behavioral rules — a test that unwraps
//! is asserting, not serving — but never from `no-static-mut` or
//! `unsafe-safety-comment`, which guard properties the whole tree must
//! keep.
//!
//! Suppressions are inline comments — the marker `pra-lint:` followed
//! by `allow(<rule>): <reason>` — on the offending line or the
//! comment block directly above it. The reason is mandatory: an allow
//! without one is itself a finding (`suppression-without-reason`), so
//! every exemption in the tree carries its justification next to it.

use crate::config::Config;
use crate::lexer::{lex, Lexed, Tok, TokKind};

/// One rule violation (or meta finding about a suppression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id, e.g. `deterministic-iteration`.
    pub rule: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// A rule's identity and scope defaults.
#[derive(Debug, Clone, Copy)]
pub struct RuleSpec {
    /// Stable rule id (used in config sections and suppressions).
    pub id: &'static str,
    /// One-line description for `--list-rules` and the docs.
    pub description: &'static str,
    /// Whether the rule also applies inside test code.
    pub checks_tests: bool,
}

/// Every rule the linter knows, in documentation order.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        id: "deterministic-iteration",
        description: "no HashMap/HashSet in determinism-critical paths; use BTreeMap/BTreeSet \
                      or an explicit sort so no output ever depends on hash-iteration order",
        checks_tests: false,
    },
    RuleSpec {
        id: "no-wall-clock",
        description: "no Instant::now()/SystemTime::now() outside allowlisted telemetry \
                      modules; results must be functions of their inputs, never of time",
        checks_tests: false,
    },
    RuleSpec {
        id: "no-thread-id",
        description: "no std::thread::current().id()/ThreadId outside allowlisted modules; \
                      scheduling identity must never reach a result",
        checks_tests: false,
    },
    RuleSpec {
        id: "serve-no-panic",
        description: "no unwrap/expect/panic!/unguarded indexing in the serve request path; \
                      workers shed or answer typed errors, they never die",
        checks_tests: false,
    },
    RuleSpec {
        id: "relaxed-ordering-comment",
        description: "every Ordering::Relaxed carries a `// relaxed-ok: <why>` justification",
        checks_tests: false,
    },
    RuleSpec {
        id: "no-static-mut",
        description: "no `static mut` anywhere; use atomics or locks",
        checks_tests: true,
    },
    RuleSpec {
        id: "unsafe-safety-comment",
        description: "every `unsafe` carries a `// SAFETY: <why>` justification (the workspace \
                      is currently 100% safe code — keep it that way or argue in writing)",
        checks_tests: true,
    },
];

/// Meta rule id: a suppression comment without a written reason.
pub const SUPPRESSION_WITHOUT_REASON: &str = "suppression-without-reason";
/// Meta rule id: a suppression naming a rule the linter does not know.
pub const UNKNOWN_RULE: &str = "unknown-rule";

/// The result of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings that survived suppression.
    pub findings: Vec<Finding>,
    /// Findings silenced by a well-formed, reasoned suppression.
    pub suppressed: usize,
}

/// Lints one file's source under `cfg`. `path` is the repo-relative,
/// `/`-separated path used for rule scoping.
pub fn lint_source(cfg: &Config, path: &str, src: &str) -> FileOutcome {
    let lexed = lex(src);
    let file_is_test = path_is_test(path);
    let test_ranges = test_line_ranges(&lexed.toks);
    let in_test =
        |line: u32| file_is_test || test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let mut raw: Vec<(u32, &'static str, String)> = Vec::new();
    for spec in RULES {
        if !cfg.rule(spec.id).applies_to(path) {
            continue;
        }
        let mut hits = match spec.id {
            "deterministic-iteration" => deterministic_iteration(&lexed),
            "no-wall-clock" => no_wall_clock(&lexed),
            "no-thread-id" => no_thread_id(&lexed),
            "serve-no-panic" => serve_no_panic(&lexed),
            "relaxed-ordering-comment" => relaxed_ordering(&lexed),
            "no-static-mut" => static_mut(&lexed),
            "unsafe-safety-comment" => unsafe_without_safety(&lexed),
            _ => Vec::new(),
        };
        hits.retain(|&(line, _)| spec.checks_tests || !in_test(line));
        raw.extend(hits.into_iter().map(|(line, msg)| (line, spec.id, msg)));
    }

    let mut out = FileOutcome::default();
    for (line, rule, message) in raw {
        if suppression_covers(&lexed, line, rule) {
            out.suppressed += 1;
        } else {
            out.findings.push(Finding {
                file: path.to_string(),
                line,
                rule: rule.to_string(),
                message,
            });
        }
    }
    out.findings.extend(malformed_suppressions(&lexed, path));
    out.findings.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    out
}

/// Whether `path` is test-context by location alone.
fn path_is_test(path: &str) -> bool {
    path.split('/').any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

// ---------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------

/// Line ranges covered by `#[test]` functions and `#[cfg(test)]`
/// items (inclusive).
fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            let attr_line = toks[i].line;
            let (end, mentions_test) = scan_attribute(toks, i + 1);
            if mentions_test {
                if let Some(close_line) = item_body_close_line(toks, end + 1) {
                    ranges.push((attr_line, close_line));
                }
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// From the `[` at `open`, returns (index of the matching `]`, whether
/// the attribute mentions the ident `test`).
fn scan_attribute(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut mentions = false;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i, mentions);
                }
            }
            "test" if toks[i].kind == TokKind::Ident => mentions = true,
            _ => {}
        }
        i += 1;
    }
    (toks.len().saturating_sub(1), mentions)
}

/// Finds the line of the `}` closing the item that starts after an
/// attribute; `None` when the item is brace-less (ends at `;`).
fn item_body_close_line(toks: &[Tok], mut i: usize) -> Option<u32> {
    // Skip further attributes between the test attribute and the item
    // (`#[test] #[ignore] fn …`).
    while i < toks.len() {
        match toks[i].text.as_str() {
            "#" if toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") => {
                let (end, _) = scan_attribute(toks, i + 1);
                i = end + 1;
            }
            ";" => return None,
            "{" => {
                let mut depth = 0usize;
                while i < toks.len() {
                    match toks[i].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(toks[i].line);
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return Some(toks.last()?.line);
            }
            _ => i += 1,
        }
    }
    None
}

// ---------------------------------------------------------------------
// Matchers
// ---------------------------------------------------------------------

fn texts_at(toks: &[Tok], i: usize, n: usize) -> Option<Vec<&str>> {
    toks.get(i..i + n).map(|w| w.iter().map(|t| t.text.as_str()).collect())
}

fn is_ident(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn deterministic_iteration(lexed: &Lexed) -> Vec<(u32, String)> {
    lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet"))
        .map(|t| {
            (
                t.line,
                format!(
                    "{} in a determinism-critical path: iteration order is randomized per \
                     process; use BTree{} or sort before anything ordered leaves this value",
                    t.text,
                    if t.text == "HashMap" { "Map" } else { "Set" },
                ),
            )
        })
        .collect()
}

fn no_wall_clock(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        for clock in ["Instant", "SystemTime"] {
            if is_ident(toks, i, clock)
                && texts_at(toks, i + 1, 3).is_some_and(|w| w == [":", ":", "now"])
            {
                out.push((
                    toks[i].line,
                    format!(
                        "{clock}::now() outside the telemetry allowlist: results must be \
                         functions of their inputs, never of when they ran"
                    ),
                ));
            }
        }
    }
    out
}

fn no_thread_id(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if is_ident(toks, i, "current")
            && texts_at(toks, i + 1, 4).is_some_and(|w| w == ["(", ")", ".", "id"])
        {
            out.push((
                toks[i].line,
                "thread::current().id() outside the allowlist: scheduling identity must \
                 never influence a result"
                    .to_string(),
            ));
        }
        if is_ident(toks, i, "ThreadId") {
            out.push((
                toks[i].line,
                "ThreadId outside the allowlist: scheduling identity must never influence \
                 a result"
                    .to_string(),
            ));
        }
    }
    out
}

fn serve_no_panic(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        // `.unwrap(` / `.expect(` — method calls only, so `unwrap_or`
        // and friends never match.
        if t.text == "."
            && toks.get(i + 1).is_some_and(|x| {
                x.kind == TokKind::Ident && (x.text == "unwrap" || x.text == "expect")
            })
            && toks.get(i + 2).is_some_and(|x| x.text == "(")
        {
            let name = &toks[i + 1].text;
            out.push((
                toks[i + 1].line,
                format!(
                    ".{name}() on the serve request path: a malformed request or poisoned \
                     lock would kill this worker; shed or answer a typed error instead"
                ),
            ));
        }
        // Panicking macros.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|x| x.text == "!")
        {
            out.push((
                t.line,
                format!("{}! on the serve request path: workers must never die", t.text),
            ));
        }
        // Unguarded indexing: `expr[...]`. An index `[` directly follows
        // an ident, `)` or `]`; attribute brackets (`#[…]`, `#![…]`) and
        // macro brackets (`vec![…]`) do not.
        if t.text == "[" && i > 0 {
            let prev = &toks[i - 1];
            let indexable = prev.kind == TokKind::Ident
                && !matches!(prev.text.as_str(), "mut" | "in" | "return" | "break" | "as")
                || prev.text == ")"
                || prev.text == "]";
            if indexable {
                out.push((
                    t.line,
                    "unguarded indexing on the serve request path: a bad index panics the \
                     worker; use .get()/.get_mut() and handle None"
                        .to_string(),
                ));
            }
        }
    }
    out
}

fn relaxed_ordering(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if is_ident(toks, i, "Ordering")
            && texts_at(toks, i + 1, 3).is_some_and(|w| w == [":", ":", "Relaxed"])
            && !comment_context_contains(lexed, toks[i].line, "relaxed-ok:")
        {
            out.push((
                toks[i].line,
                "Ordering::Relaxed without a `// relaxed-ok: <why>` justification: relaxed \
                 atomics are correct only for reasons the code cannot show — write them down"
                    .to_string(),
            ));
        }
    }
    out
}

fn static_mut(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if is_ident(toks, i, "static") && is_ident(toks, i + 1, "mut") {
            out.push((
                toks[i].line,
                "`static mut` is a data race waiting to happen; use an atomic, a Mutex, or \
                 OnceLock"
                    .to_string(),
            ));
        }
    }
    out
}

fn unsafe_without_safety(lexed: &Lexed) -> Vec<(u32, String)> {
    lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text == "unsafe")
        .filter(|t| !comment_context_contains(lexed, t.line, "SAFETY:"))
        .map(|t| {
            (
                t.line,
                "`unsafe` without a `// SAFETY: <why>` comment; the workspace is 100% safe \
                 code today — new unsafe must argue its soundness in writing"
                    .to_string(),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Comment context: justifications and suppressions
// ---------------------------------------------------------------------

/// Whether `needle` appears in the comments attached to `line`: the
/// trailing comment on the line itself, or the contiguous comment block
/// ending on the line directly above.
fn comment_context_contains(lexed: &Lexed, line: u32, needle: &str) -> bool {
    if lexed.comment_on(line).is_some_and(|c| c.contains(needle)) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l > 0 {
        match lexed.comment_on(l) {
            Some(c) if c.contains(needle) => return true,
            Some(_) => l -= 1,
            None => break,
        }
    }
    false
}

/// A parsed suppression: `pra-lint:` followed by `allow(<rule>)[: reason]`.
struct Allow<'a> {
    rule: &'a str,
    reason: &'a str,
}

/// Extracts every allow marker from one comment line's text.
fn parse_allows(comment: &str) -> Vec<Allow<'_>> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("pra-lint:") {
        rest = rest[pos + "pra-lint:".len()..].trim_start();
        let Some(after_kw) = rest.strip_prefix("allow") else { continue };
        let after_kw = after_kw.trim_start();
        let Some(inner_start) = after_kw.strip_prefix('(') else { continue };
        let Some(close) = inner_start.find(')') else { continue };
        let rule = inner_start[..close].trim();
        let tail = inner_start[close + 1..].trim_start();
        let reason = match tail.strip_prefix(':') {
            Some(r) => {
                // The reason runs to the next `pra-lint:` marker (rare)
                // or the end of the comment.
                let r = r.trim();
                match r.find("pra-lint:") {
                    Some(next) => r[..next].trim(),
                    None => r,
                }
            }
            None => "",
        };
        out.push(Allow { rule, reason });
        rest = tail;
    }
    out
}

/// Whether a well-formed, reasoned suppression for `rule` covers `line`.
fn suppression_covers(lexed: &Lexed, line: u32, rule: &str) -> bool {
    let honored = |comment: &str| {
        parse_allows(comment)
            .iter()
            .any(|a| a.rule == rule && !a.reason.is_empty() && known_rule(a.rule))
    };
    if lexed.comment_on(line).is_some_and(honored) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l > 0 {
        match lexed.comment_on(l) {
            Some(c) if honored(c) => return true,
            Some(_) => l -= 1,
            None => break,
        }
    }
    false
}

fn known_rule(rule: &str) -> bool {
    RULES.iter().any(|s| s.id == rule)
}

/// Meta findings over every suppression in the file: a missing reason
/// and an unknown rule id are both errors wherever they appear —
/// including in test code, since a malformed allow silently suppresses
/// nothing and rots.
fn malformed_suppressions(lexed: &Lexed, path: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for (line, comment) in &lexed.comments {
        for allow in parse_allows(comment) {
            if !known_rule(allow.rule) {
                out.push(Finding {
                    file: path.to_string(),
                    line: *line,
                    rule: UNKNOWN_RULE.to_string(),
                    message: format!(
                        "suppression names unknown rule '{}' (known: {})",
                        allow.rule,
                        RULES.iter().map(|s| s.id).collect::<Vec<_>>().join(", "),
                    ),
                });
            } else if allow.reason.is_empty() {
                out.push(Finding {
                    file: path.to_string(),
                    line: *line,
                    rule: SUPPRESSION_WITHOUT_REASON.to_string(),
                    message: format!(
                        "suppression of '{}' has no reason; write \
                         `pra-lint: allow({}): <why this is sound>`",
                        allow.rule, allow.rule,
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> FileOutcome {
        lint_source(&Config::all_paths(), "lib.rs", src)
    }

    fn rules_of(out: &FileOutcome) -> Vec<&str> {
        out.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_behavioral_rules() {
        let src = "\
            fn prod() { let now = Instant::now(); }\n\
            #[cfg(test)]\n\
            mod tests {\n\
                fn helper() { let x: Option<u32> = None; x.unwrap(); Instant::now(); }\n\
            }\n";
        let out = run(src);
        assert_eq!(rules_of(&out), vec!["no-wall-clock"], "only the production hit survives");
        assert_eq!(out.findings[0].line, 1);
    }

    #[test]
    fn static_mut_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    static mut EVIL: u32 = 0;\n}\n";
        let out = run(src);
        assert_eq!(rules_of(&out), vec!["no-static-mut"]);
    }

    #[test]
    fn reasoned_suppression_silences_and_counts() {
        let src = "\
            // pra-lint: allow(no-wall-clock): this module is the latency telemetry itself\n\
            fn t() { let now = Instant::now(); }\n";
        let out = run(src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn reasonless_suppression_is_its_own_finding_and_does_not_suppress() {
        let src = "\
            // pra-lint: allow(no-wall-clock)\n\
            fn t() { let now = Instant::now(); }\n";
        let out = run(src);
        let rules = rules_of(&out);
        assert!(rules.contains(&"no-wall-clock"), "{rules:?}");
        assert!(rules.contains(&SUPPRESSION_WITHOUT_REASON), "{rules:?}");
        assert_eq!(out.suppressed, 0);
    }

    #[test]
    fn unknown_rule_in_suppression_is_flagged() {
        let out = run("// pra-lint: allow(no-such-rule): because\nfn t() {}\n");
        assert_eq!(rules_of(&out), vec![UNKNOWN_RULE]);
    }

    #[test]
    fn same_line_suppression_works() {
        let src = "fn t() { let m: HashMap<u8, u8> = HashMap::new(); } \
                   // pra-lint: allow(deterministic-iteration): never iterated, key lookups only\n";
        let out = run(src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed, 2, "both mentions on the line are covered");
    }

    #[test]
    fn unwrap_or_does_not_trip_the_panic_rule() {
        let src = "fn t(x: Option<u32>) -> u32 { x.unwrap_or(0).wrapping_add(1) }\n";
        assert!(run(src).findings.is_empty());
    }

    #[test]
    fn attribute_and_macro_brackets_are_not_indexing() {
        let src = "\
            #![allow(dead_code)]\n\
            #[derive(Debug)]\n\
            struct S;\n\
            fn t() { let v = vec![1, 2]; let w = [0u8; 4]; }\n";
        assert!(run(src).findings.is_empty(), "{:?}", run(src).findings);
    }

    #[test]
    fn real_indexing_fires() {
        let out = run("fn t(v: &[u32]) -> u32 { v[0] }\n");
        assert_eq!(rules_of(&out), vec!["serve-no-panic"]);
    }

    #[test]
    fn relaxed_justified_above_or_inline_passes() {
        let above = "\
            // relaxed-ok: monotonic counter, read only for display\n\
            fn t(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(run(above).findings.is_empty());
        let inline =
            "fn t(c: &AtomicU64) { c.load(Ordering::Relaxed); } // relaxed-ok: telemetry read\n";
        assert!(run(inline).findings.is_empty());
        let bare = "fn t(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        assert_eq!(rules_of(&run(bare)), vec!["relaxed-ordering-comment"]);
    }

    #[test]
    fn safety_comment_gates_unsafe() {
        let good = "// SAFETY: the pointer is valid for the lifetime of the call\n\
                    fn t(p: *const u8) { unsafe { p.read() }; }\n";
        assert!(run(good).findings.is_empty());
        let bad = "fn t(p: *const u8) { unsafe { p.read() }; }\n";
        assert_eq!(rules_of(&run(bad)), vec!["unsafe-safety-comment"]);
    }

    #[test]
    fn path_scoping_respects_config() {
        let cfg = Config::repo_default();
        let src = "fn t(x: Option<u32>) { x.unwrap(); }\n";
        assert!(lint_source(&cfg, "crates/serve/src/queue.rs", src)
            .findings
            .iter()
            .any(|f| f.rule == "serve-no-panic"));
        assert!(lint_source(&cfg, "crates/core/src/schedule.rs", src).findings.is_empty());
        // A serve worker's pool miss decodes encoded-artifact payloads,
        // and an encoded miss decodes the workload's trace.
        for path in ["crates/core/src/artifact.rs", "crates/workloads/src/traces.rs"] {
            assert!(lint_source(&cfg, path, src)
                .findings
                .iter()
                .any(|f| f.rule == "serve-no-panic"));
        }
        // The artifact serializer writes content-addressed payloads, so
        // hash-order iteration there is a byte-stream hazard: it must
        // sit inside the deterministic-iteration scope.
        let hashed = "fn t() { let m: HashMap<u8, u8> = HashMap::new(); let _ = m; }\n";
        assert!(lint_source(&cfg, "crates/core/src/artifact.rs", hashed)
            .findings
            .iter()
            .any(|f| f.rule == "deterministic-iteration"));
    }
}
