//! Adblock-Plus filter rule parsing.
//!
//! Supports the network-filter subset of the ABP syntax that EasyList and
//! EasyPrivacy rules use and that the paper's analysis depends on:
//!
//! * plain substring patterns with `*` wildcards
//! * anchors: `|` (start/end of URL), `||` (domain anchor)
//! * the `^` separator placeholder
//! * exception rules `@@...`
//! * options after `$`: resource types (`script`, `image`, `document`,
//!   `other`, negated `~script`, …), `third-party` / `~third-party`,
//!   `first-party`, and `domain=a.com|~b.com`
//!
//! Element-hiding rules (`##`, `#@#`), comments (`!`), and cosmetic
//! options are recognized and skipped (they never block script loads).
//! The `$document` modifier is faithfully treated as a *type* option — a
//! `$document` rule does not apply to script requests, which is exactly
//! the rule-design failure the paper demonstrates with
//! `||mgid.com^$document` (Appendix A.6).

use serde::{Deserialize, Serialize};

/// Resource-type options a rule can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TypeOption {
    /// `$script`.
    Script,
    /// `$image`.
    Image,
    /// `$document` — applies to top-level documents only.
    Document,
    /// `$other` (and any type we don't model, e.g. `xmlhttprequest`).
    Other,
}

/// Party constraint from `$third-party` / `$~third-party` / `$first-party`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PartyOption {
    /// No constraint.
    #[default]
    Any,
    /// Only third-party requests.
    ThirdOnly,
    /// Only first-party requests.
    FirstOnly,
}

/// One token of a compiled filter pattern.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternToken {
    /// Literal text (lowercased; URL matching is case-insensitive).
    Literal(String),
    /// `*` — any run of characters.
    Wildcard,
    /// `^` — a separator character or the end of the URL.
    Separator,
}

/// Where the pattern is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Anchor {
    /// Match anywhere in the URL.
    #[default]
    None,
    /// `|pattern` — match from the start of the URL.
    Start,
    /// `||pattern` — match from a domain-label boundary of the host.
    Domain,
}

/// A parsed network filter rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterRule {
    /// Original rule text (for reporting).
    pub raw: String,
    /// Whether this is an exception (`@@`) rule.
    pub exception: bool,
    /// Anchoring mode.
    pub anchor: Anchor,
    /// Whether the pattern must also match at the end of the URL (`|`
    /// suffix).
    pub end_anchor: bool,
    /// Compiled pattern tokens.
    pub tokens: Vec<PatternToken>,
    /// Positive type options (empty = all types).
    pub include_types: Vec<TypeOption>,
    /// Negated type options.
    pub exclude_types: Vec<TypeOption>,
    /// Party constraint.
    pub party: PartyOption,
    /// `domain=` includes (page registrable domains); empty = any.
    pub include_domains: Vec<String>,
    /// `domain=` excludes.
    pub exclude_domains: Vec<String>,
}

/// Why a line was skipped instead of parsed into a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Skipped {
    /// Blank line.
    Empty,
    /// `!` comment or `[Adblock...]` header.
    Comment,
    /// Element-hiding / cosmetic rule.
    Cosmetic,
    /// Unsupported syntax (e.g. regex rules `/.../`).
    Unsupported,
}

/// Parses one filter-list line.
pub fn parse_line(line: &str) -> Result<FilterRule, Skipped> {
    let line = line.trim();
    if line.is_empty() {
        return Err(Skipped::Empty);
    }
    if line.starts_with('!') || (line.starts_with('[') && line.ends_with(']')) {
        return Err(Skipped::Comment);
    }
    if line.contains("##") || line.contains("#@#") || line.contains("#?#") {
        return Err(Skipped::Cosmetic);
    }
    let (exception, body) = match line.strip_prefix("@@") {
        Some(rest) => (true, rest),
        None => (false, line),
    };
    if body.starts_with('/') && body.ends_with('/') && body.len() > 1 {
        return Err(Skipped::Unsupported); // raw regex rules
    }

    // Split off options at the last unescaped '$'. ABP option separators
    // are simple: the last '$' followed by option-looking text.
    let (pattern_text, options_text) = match body.rfind('$') {
        Some(i) if looks_like_options(&body[i + 1..]) => (&body[..i], Some(&body[i + 1..])),
        _ => (body, None),
    };

    let mut rule = FilterRule {
        raw: line.to_string(),
        exception,
        anchor: Anchor::None,
        end_anchor: false,
        tokens: Vec::new(),
        include_types: Vec::new(),
        exclude_types: Vec::new(),
        party: PartyOption::Any,
        include_domains: Vec::new(),
        exclude_domains: Vec::new(),
    };

    let mut pat = pattern_text;
    if let Some(rest) = pat.strip_prefix("||") {
        rule.anchor = Anchor::Domain;
        pat = rest;
    } else if let Some(rest) = pat.strip_prefix('|') {
        rule.anchor = Anchor::Start;
        pat = rest;
    }
    if let Some(rest) = pat.strip_suffix('|') {
        rule.end_anchor = true;
        pat = rest;
    }
    rule.tokens = compile_pattern(pat);

    if let Some(opts) = options_text {
        for opt in opts.split(',') {
            let opt = opt.trim();
            if opt.is_empty() {
                continue;
            }
            let (neg, name) = match opt.strip_prefix('~') {
                Some(rest) => (true, rest),
                None => (false, opt),
            };
            match name.to_ascii_lowercase().as_str() {
                "script" => push_type(&mut rule, neg, TypeOption::Script),
                "image" => push_type(&mut rule, neg, TypeOption::Image),
                "document" | "doc" => push_type(&mut rule, neg, TypeOption::Document),
                "third-party" | "3p" => {
                    rule.party = if neg {
                        PartyOption::FirstOnly
                    } else {
                        PartyOption::ThirdOnly
                    }
                }
                "first-party" | "1p" => {
                    rule.party = if neg {
                        PartyOption::ThirdOnly
                    } else {
                        PartyOption::FirstOnly
                    }
                }
                other if other.starts_with("domain=") => {
                    for d in other["domain=".len()..].split('|') {
                        let d = d.trim().to_ascii_lowercase();
                        if let Some(ex) = d.strip_prefix('~') {
                            rule.exclude_domains.push(ex.to_string());
                        } else if !d.is_empty() {
                            rule.include_domains.push(d);
                        }
                    }
                }
                // Types we don't model (xmlhttprequest, subdocument, …) and
                // behavioral options (popup, generichide, …) map to Other /
                // ignored respectively. Mapping unknown *types* to Other
                // keeps "rule lists some types, none of them script" ⇒
                // "doesn't block scripts" semantics.
                "xmlhttprequest" | "xhr" | "subdocument" | "stylesheet" | "font" | "media"
                | "websocket" | "object" | "ping" | "popup" => {
                    push_type(&mut rule, neg, TypeOption::Other)
                }
                _ => {} // ignore unknown behavioral options
            }
        }
    }
    Ok(rule)
}

fn looks_like_options(s: &str) -> bool {
    !s.is_empty()
        && s.split(',').all(|o| {
            let o = o.trim().trim_start_matches('~');
            o.chars().all(|c| {
                c.is_ascii_alphanumeric()
                    || c == '-'
                    || c == '='
                    || c == '|'
                    || c == '.'
                    || c == '~'
                    || c == '_'
            }) && !o.is_empty()
        })
}

fn push_type(rule: &mut FilterRule, neg: bool, ty: TypeOption) {
    if neg {
        rule.exclude_types.push(ty);
    } else {
        rule.include_types.push(ty);
    }
}

/// Compiles a raw pattern into tokens, collapsing redundant wildcards.
fn compile_pattern(pat: &str) -> Vec<PatternToken> {
    let mut tokens = Vec::new();
    let mut literal = String::new();
    for c in pat.chars() {
        match c {
            '*' => {
                if !literal.is_empty() {
                    tokens.push(PatternToken::Literal(std::mem::take(&mut literal)));
                }
                if tokens.last() != Some(&PatternToken::Wildcard) {
                    tokens.push(PatternToken::Wildcard);
                }
            }
            '^' => {
                if !literal.is_empty() {
                    tokens.push(PatternToken::Literal(std::mem::take(&mut literal)));
                }
                tokens.push(PatternToken::Separator);
            }
            _ if c.is_ascii() => literal.push(c.to_ascii_lowercase()),
            _ => literal.extend(c.to_lowercase()),
        }
    }
    if !literal.is_empty() {
        tokens.push(PatternToken::Literal(literal));
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_domain_anchor_rule() {
        let r = parse_line("||mgid.com^$document").unwrap();
        assert_eq!(r.anchor, Anchor::Domain);
        assert!(!r.exception);
        assert_eq!(r.include_types, vec![TypeOption::Document]);
        assert_eq!(
            r.tokens,
            vec![
                PatternToken::Literal("mgid.com".into()),
                PatternToken::Separator
            ]
        );
    }

    #[test]
    fn parses_exception_rule() {
        let r = parse_line("@@||example.com/assets/*$script").unwrap();
        assert!(r.exception);
        assert_eq!(r.include_types, vec![TypeOption::Script]);
    }

    #[test]
    fn parses_party_and_domain_options() {
        let r =
            parse_line("||tracker.net^$script,third-party,domain=news.com|~blog.news.com").unwrap();
        assert_eq!(r.party, PartyOption::ThirdOnly);
        assert_eq!(r.include_domains, vec!["news.com"]);
        assert_eq!(r.exclude_domains, vec!["blog.news.com"]);
    }

    #[test]
    fn negated_type_option() {
        let r = parse_line("||ads.example.com^$~script").unwrap();
        assert_eq!(r.exclude_types, vec![TypeOption::Script]);
        assert!(r.include_types.is_empty());
    }

    #[test]
    fn skips_comments_and_cosmetic() {
        assert_eq!(parse_line("! comment"), Err(Skipped::Comment));
        assert_eq!(parse_line("[Adblock Plus 2.0]"), Err(Skipped::Comment));
        assert_eq!(
            parse_line("example.com##.ad-banner"),
            Err(Skipped::Cosmetic)
        );
        assert_eq!(parse_line(""), Err(Skipped::Empty));
        assert_eq!(parse_line("/banner[0-9]+/"), Err(Skipped::Unsupported));
    }

    #[test]
    fn wildcards_collapse() {
        let r = parse_line("a**b").unwrap();
        assert_eq!(
            r.tokens,
            vec![
                PatternToken::Literal("a".into()),
                PatternToken::Wildcard,
                PatternToken::Literal("b".into()),
            ]
        );
    }

    #[test]
    fn dollar_in_pattern_without_options_is_literal() {
        // "$" not followed by option-like text stays in the pattern.
        let r = parse_line("path$!x").unwrap();
        assert!(matches!(&r.tokens[0], PatternToken::Literal(l) if l.contains('$')));
    }

    #[test]
    fn end_anchor() {
        let r = parse_line("|https://example.com/exact.js|").unwrap();
        assert_eq!(r.anchor, Anchor::Start);
        assert!(r.end_anchor);
    }

    #[test]
    fn patterns_lowercase() {
        let r = parse_line("||Example.COM/Path").unwrap();
        assert_eq!(
            r.tokens,
            vec![PatternToken::Literal("example.com/path".into())]
        );
    }
}
