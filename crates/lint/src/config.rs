//! Lint configuration: the built-in secret seed list plus `ctlint.toml`.
//!
//! `ctlint.toml` is parsed with a small hand-rolled reader (no external TOML
//! crate in the offline build). Two table shapes are understood:
//!
//! ```toml
//! # Extra secret marks, merged with the built-in seed list.
//! [secrets]
//! types = ["MySecretType"]
//! functions = ["derive_my_secret"]
//!
//! # Extra telemetry sink names (merged with the built-in
//! # observe/emit/record list). A secret-tainted argument reaching any of
//! # these fires `telemetry-sink`.
//! [telemetry]
//! sinks = ["count_outcome"]
//!
//! # One [[allow]] block per deliberate secret-hygiene exception. Every
//! # entry MUST match at least one finding or the lint fails ("stale
//! # allow") — suppressions cannot outlive the code they excuse.
//! [[allow]]
//! rule = "secret-index"        # a hygiene-family rule id
//! file = "crates/crypto/src/aes.rs"   # suffix match on the path
//! ident = "SBOX"               # the diagnostic's anchor identifier
//! reason = "AES S-box lookups are deliberate; see DESIGN.md"
//!
//! # [[determinism]] blocks excuse determinism-family findings (wall-clock
//! # boundaries, order-insensitive hash-map drains, …) with the exact same
//! # mandatory-reason / stale-entry-fails semantics. The sections are
//! # deliberately separate: a determinism waiver can never silence a
//! # secret-hygiene finding and vice versa.
//! [[determinism]]
//! rule = "wall-clock"
//! file = "crates/telemetry/src/span.rs"
//! ident = "Instant"
//! reason = "the sanctioned wall-timer boundary"
//!
//! # [[lifetime]] blocks excuse `secret-lifetime` findings — the crypto
//! # shortcuts (session caches, STEK history) the simulation deliberately
//! # models because the paper measures their harm. Same contract: a
//! # mandatory reason, and a stale entry fails the lint.
//! [[lifetime]]
//! rule = "secret-lifetime"
//! file = "crates/tls/src/cache.rs"
//! ident = "entries"
//! reason = "session-ID resumption IS the measured shortcut"
//!
//! # [[concurrency]] blocks excuse concurrency-family findings
//! # (`lock-order`, `atomic-ordering`, `lock-across-callback`,
//! # `simd-dispatch-gate`). Same contract: a mandatory reason, and a
//! # stale entry fails the lint.
//! [[concurrency]]
//! rule = "atomic-ordering"
//! file = "crates/example/src/counter.rs"
//! ident = "epoch"
//! reason = "single-writer flag; readers tolerate staleness by design"
//!
//! # [[api]] blocks excuse `test-only-api` findings: a public function
//! # that only tests read (an observation point, a reference
//! # implementation). The reason names the test that reads it. Same
//! # contract: a mandatory reason, and a stale entry fails the lint.
//! [[api]]
//! rule = "test-only-api"
//! file = "crates/bench/src/exp_campaign.rs"
//! ident = "validate_against_truth"
//! reason = "tests/end_to_end.rs checks the span estimators against it"
//! ```
//!
//! `reason` is mandatory: an exception without a recorded justification is a
//! config error.

use crate::diag::{Diagnostic, Rule, RuleFamily};

/// One waiver entry from `ctlint.toml`: `[[allow]]`, `[[determinism]]`,
/// `[[lifetime]]`, `[[concurrency]]` or `[[api]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Which config section this entry came from. The entry may only
    /// silence rules of the matching family.
    pub section: RuleFamily,
    /// Rule id this entry silences.
    pub rule: String,
    /// Path suffix the finding's file must end with.
    pub file: String,
    /// Anchor identifier the finding must carry.
    pub ident: String,
    /// Mandatory one-line justification.
    pub reason: String,
}

impl Allow {
    /// Does this entry cover `d`?
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.rule == d.rule.id() && d.file.ends_with(&self.file) && self.ident == d.ident
    }

    /// Compact display form for stale-entry errors — names the section so
    /// a dead entry is findable in `ctlint.toml` without grepping both.
    pub fn describe(&self) -> String {
        format!(
            "{} rule={} file={} ident={}",
            self.section.section(),
            self.rule,
            self.file,
            self.ident
        )
    }
}

/// Full analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Type names treated as secret-bearing even without a
    /// `// ctlint: secret` annotation. Annotations in source extend this.
    pub secret_types: Vec<String>,
    /// Functions whose return value is secret-tainted wherever it lands.
    pub secret_fns: Vec<String>,
    /// Call names treated as telemetry sinks: a secret-tainted argument
    /// reaching one of these fires [`Rule::TelemetrySink`]. Counters,
    /// histograms and event streams only ever carry public scalars and
    /// `&'static str` labels (the no-secret-bytes rule in ts-telemetry).
    pub telemetry_sinks: Vec<String>,
    /// Deliberate, justified exceptions.
    pub allows: Vec<Allow>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            // The seed list: key-material types of the TLS stack under
            // study. `// ctlint: secret` annotations in source add to it.
            secret_types: [
                "ConnectionKeys",
                "DirectionKeys",
                "Stek",
                "DhKeyPair",
                "X25519KeyPair",
                "HmacDrbg",
                "HmacSha256",
                "SessionState",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            secret_fns: ["master_secret", "key_block", "shared_secret", "prf"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            // The ts-telemetry entry points. Deliberately NOT `inc`/`add`:
            // those names collide with bignum limb arithmetic, which is
            // tainted by design.
            telemetry_sinks: ["observe", "emit", "record"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            allows: Vec::new(),
        }
    }
}

/// A `ctlint.toml` parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in `ctlint.toml`.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctlint.toml:{}: {}", self.line, self.message)
    }
}

impl Config {
    /// Parse `ctlint.toml` text and merge it over the defaults.
    pub fn from_toml(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        // Which table the cursor is inside: none, [secrets], or the index
        // of the current [[allow]] entry.
        enum Section {
            None,
            Secrets,
            Telemetry,
            Allow(usize),
        }
        let mut section = Section::None;
        let mut partial: Vec<PartialAllow> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                partial.push(PartialAllow::new(RuleFamily::Hygiene));
                section = Section::Allow(partial.len() - 1);
            } else if line == "[[determinism]]" {
                partial.push(PartialAllow::new(RuleFamily::Determinism));
                section = Section::Allow(partial.len() - 1);
            } else if line == "[[lifetime]]" {
                partial.push(PartialAllow::new(RuleFamily::Lifetime));
                section = Section::Allow(partial.len() - 1);
            } else if line == "[[concurrency]]" {
                partial.push(PartialAllow::new(RuleFamily::Concurrency));
                section = Section::Allow(partial.len() - 1);
            } else if line == "[[api]]" {
                partial.push(PartialAllow::new(RuleFamily::Api));
                section = Section::Allow(partial.len() - 1);
            } else if line == "[secrets]" {
                section = Section::Secrets;
            } else if line == "[telemetry]" {
                section = Section::Telemetry;
            } else if line.starts_with('[') {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("unknown table {line}"),
                });
            } else {
                let (key, value) = split_kv(&line).ok_or_else(|| ConfigError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                })?;
                match &section {
                    Section::None => {
                        return Err(ConfigError {
                            line: lineno,
                            message: "key outside any table".to_string(),
                        });
                    }
                    Section::Secrets => {
                        let items = parse_string_array(value).ok_or_else(|| ConfigError {
                            line: lineno,
                            message: format!("`{key}` must be an array of strings"),
                        })?;
                        match key {
                            "types" => cfg.secret_types.extend(items),
                            "functions" => cfg.secret_fns.extend(items),
                            other => {
                                return Err(ConfigError {
                                    line: lineno,
                                    message: format!("unknown [secrets] key `{other}`"),
                                });
                            }
                        }
                    }
                    Section::Telemetry => {
                        let items = parse_string_array(value).ok_or_else(|| ConfigError {
                            line: lineno,
                            message: format!("`{key}` must be an array of strings"),
                        })?;
                        match key {
                            "sinks" => cfg.telemetry_sinks.extend(items),
                            other => {
                                return Err(ConfigError {
                                    line: lineno,
                                    message: format!("unknown [telemetry] key `{other}`"),
                                });
                            }
                        }
                    }
                    Section::Allow(i) => {
                        let s = parse_string(value).ok_or_else(|| ConfigError {
                            line: lineno,
                            message: format!("`{key}` must be a quoted string"),
                        })?;
                        let p = &mut partial[*i];
                        match key {
                            "rule" => p.rule = Some((s, lineno)),
                            "file" => p.file = Some(s),
                            "ident" => p.ident = Some(s),
                            "reason" => p.reason = Some(s),
                            other => {
                                return Err(ConfigError {
                                    line: lineno,
                                    message: format!(
                                        "unknown {} key `{other}`",
                                        p.section.section()
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }

        for p in partial {
            cfg.allows.push(p.finish()?);
        }
        Ok(cfg)
    }
}

struct PartialAllow {
    section: RuleFamily,
    rule: Option<(String, usize)>,
    file: Option<String>,
    ident: Option<String>,
    reason: Option<String>,
}

impl PartialAllow {
    fn new(section: RuleFamily) -> Self {
        PartialAllow {
            section,
            rule: None,
            file: None,
            ident: None,
            reason: None,
        }
    }

    fn finish(self) -> Result<Allow, ConfigError> {
        let sec = self.section.section();
        let (rule, line) = self.rule.ok_or_else(|| ConfigError {
            line: 0,
            message: format!("{sec} entry missing `rule`"),
        })?;
        let known = Rule::all().iter().copied().find(|r| r.id() == rule);
        let known = match known {
            Some(r) => r,
            None => {
                return Err(ConfigError {
                    line,
                    message: format!("unknown rule id `{rule}`"),
                })
            }
        };
        // Family check: `[[allow]]` may only name hygiene rules,
        // `[[determinism]]` only determinism rules. Cross-section entries
        // would otherwise silently work, eroding the split.
        if known.family() != self.section {
            return Err(ConfigError {
                line,
                message: format!(
                    "rule `{rule}` belongs in {}, not {sec}",
                    known.family().section()
                ),
            });
        }
        let missing = |field: &str| ConfigError {
            line,
            message: format!("{sec} entry for rule `{rule}` missing `{field}`"),
        };
        let reason = self.reason.ok_or_else(|| missing("reason"))?;
        if reason.trim().is_empty() {
            return Err(ConfigError {
                line,
                message: format!("{sec} entry for rule `{rule}` has an empty reason"),
            });
        }
        let file = self.file.ok_or_else(|| missing("file"))?;
        let ident = self.ident.ok_or_else(|| missing("ident"))?;
        Ok(Allow {
            section: self.section,
            rule,
            file,
            ident,
            reason,
        })
    }
}

/// Drop a `#` comment, respecting quoted strings.
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

fn split_kv(line: &str) -> Option<(&str, &str)> {
    let eq = line.find('=')?;
    Some((line[..eq].trim(), line[eq + 1..].trim()))
}

fn parse_string(v: &str) -> Option<String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Some(v[1..v.len() - 1].to_string())
    } else {
        None
    }
}

fn parse_string_array(v: &str) -> Option<Vec<String>> {
    let v = v.trim();
    let inner = v.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_secret_type(cfg: &Config, name: &str) -> bool {
        cfg.secret_types.iter().any(|t| t == name)
    }

    #[test]
    fn default_seed_list_has_the_stack_key_types() {
        let cfg = Config::default();
        assert!(is_secret_type(&cfg, "Stek"));
        assert!(is_secret_type(&cfg, "ConnectionKeys"));
        assert!(!is_secret_type(&cfg, "Cdf"));
    }

    #[test]
    fn parses_allows_and_secrets() {
        let cfg = Config::from_toml(
            r#"
            # comment
            [secrets]
            types = ["Extra"]          # inline comment
            functions = ["hkdf_extract"]

            [[allow]]
            rule = "secret-index"
            file = "crates/crypto/src/aes.rs"
            ident = "SBOX"
            reason = "table AES is deliberate"
            "#,
        )
        .unwrap();
        assert!(is_secret_type(&cfg, "Extra"));
        assert!(is_secret_type(&cfg, "Stek"));
        assert!(cfg.secret_fns.iter().any(|f| f == "hkdf_extract"));
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].ident, "SBOX");
    }

    #[test]
    fn telemetry_sinks_extend_the_builtin_list() {
        let cfg = Config::from_toml("[telemetry]\nsinks = [\"count_outcome\"]\n").unwrap();
        for builtin in ["observe", "emit", "record"] {
            assert!(
                cfg.telemetry_sinks.iter().any(|s| s == builtin),
                "{builtin}"
            );
        }
        assert!(cfg.telemetry_sinks.iter().any(|s| s == "count_outcome"));
    }

    #[test]
    fn unknown_telemetry_key_is_an_error() {
        let err = Config::from_toml("[telemetry]\nsink = [\"x\"]\n").unwrap_err();
        assert!(err.message.contains("unknown [telemetry] key"), "{err}");
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let err = Config::from_toml(
            "[[allow]]\nrule = \"secret-leak\"\nfile = \"x.rs\"\nident = \"K\"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_rule_id_is_an_error() {
        let err = Config::from_toml(
            "[[allow]]\nrule = \"no-such\"\nfile = \"x\"\nident = \"y\"\nreason = \"z\"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown rule id"), "{err}");
    }

    #[test]
    fn parses_determinism_section() {
        let cfg = Config::from_toml(
            "[[determinism]]\nrule = \"wall-clock\"\nfile = \"span.rs\"\nident = \"Instant\"\nreason = \"wall timer boundary\"\n",
        )
        .unwrap();
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].section, RuleFamily::Determinism);
        assert_eq!(cfg.allows[0].rule, "wall-clock");
    }

    #[test]
    fn parses_concurrency_section() {
        let cfg = Config::from_toml(
            "[[concurrency]]\nrule = \"lock-order\"\nfile = \"cache.rs\"\nident = \"shards\"\nreason = \"fixed-index fallback order\"\n",
        )
        .unwrap();
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].section, RuleFamily::Concurrency);
        assert_eq!(cfg.allows[0].rule, "lock-order");
    }

    #[test]
    fn concurrency_rule_in_allow_section_is_an_error() {
        let err = Config::from_toml(
            "[[allow]]\nrule = \"atomic-ordering\"\nfile = \"x.rs\"\nident = \"epoch\"\nreason = \"r\"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("belongs in [[concurrency]]"), "{err}");
    }

    #[test]
    fn determinism_rule_in_allow_section_is_an_error() {
        let err = Config::from_toml(
            "[[allow]]\nrule = \"wall-clock\"\nfile = \"x.rs\"\nident = \"Instant\"\nreason = \"r\"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("belongs in [[determinism]]"), "{err}");
    }

    #[test]
    fn hygiene_rule_in_determinism_section_is_an_error() {
        let err = Config::from_toml(
            "[[determinism]]\nrule = \"secret-leak\"\nfile = \"x.rs\"\nident = \"K\"\nreason = \"r\"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("belongs in [[allow]]"), "{err}");
    }

    #[test]
    fn determinism_entry_without_reason_is_an_error() {
        let err = Config::from_toml(
            "[[determinism]]\nrule = \"wall-clock\"\nfile = \"x.rs\"\nident = \"Instant\"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("[[determinism]]"), "{err}");
        assert!(err.message.contains("reason"), "{err}");
    }

    #[test]
    fn stale_describe_names_the_originating_section() {
        let cfg = Config::from_toml(
            "[[allow]]\nrule = \"secret-index\"\nfile = \"a.rs\"\nident = \"T\"\nreason = \"r\"\n\
             [[determinism]]\nrule = \"unordered-iteration\"\nfile = \"b.rs\"\nident = \"m\"\nreason = \"r\"\n",
        )
        .unwrap();
        assert!(
            cfg.allows[0].describe().starts_with("[[allow]] "),
            "{}",
            cfg.allows[0].describe()
        );
        assert!(
            cfg.allows[1].describe().starts_with("[[determinism]] "),
            "{}",
            cfg.allows[1].describe()
        );
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::from_toml(
            "[[allow]]\nrule = \"secret-leak\"\nfile = \"a#b.rs\"\nident = \"K\"\nreason = \"ok\"\n",
        )
        .unwrap();
        assert_eq!(cfg.allows[0].file, "a#b.rs");
    }
}
