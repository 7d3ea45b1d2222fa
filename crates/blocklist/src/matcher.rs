//! Rule-against-request matching, and the token index of a list's rules.

use std::cmp::Reverse;
use std::collections::HashMap;

use canvassing_net::{ResourceType, Url};

use crate::rule::{Anchor, FilterRule, PartyOption, PatternToken, TypeOption};

/// The request context a rule is evaluated against (borrowed: it
/// allocates nothing).
#[derive(Debug, Clone, Copy)]
pub struct RequestContext<'a> {
    /// The resource URL being requested.
    pub url: &'a Url,
    /// What kind of resource it is.
    pub resource_type: ResourceType,
    /// Whether the request is first-party relative to the page
    /// (same registrable domain).
    pub first_party: bool,
    /// Registrable domain of the page making the request (for `domain=`),
    /// compared ASCII-case-insensitively.
    pub page_domain: &'a str,
}

impl<'a> RequestContext<'a> {
    /// Convenience constructor used throughout the pipeline.
    pub fn new(
        url: &'a Url,
        resource_type: ResourceType,
        first_party: bool,
        page_domain: &'a str,
    ) -> Self {
        RequestContext {
            url,
            resource_type,
            first_party,
            page_domain,
        }
    }
}

fn type_matches(rule: &FilterRule, ty: ResourceType) -> bool {
    let as_opt = match ty {
        ResourceType::Script => TypeOption::Script,
        ResourceType::Image => TypeOption::Image,
        ResourceType::Document => TypeOption::Document,
        ResourceType::Other => TypeOption::Other,
    };
    if rule.exclude_types.contains(&as_opt) {
        return false;
    }
    if rule.include_types.is_empty() {
        return true;
    }
    rule.include_types.contains(&as_opt)
}

fn party_matches(rule: &FilterRule, first_party: bool) -> bool {
    match rule.party {
        PartyOption::Any => true,
        PartyOption::ThirdOnly => !first_party,
        PartyOption::FirstOnly => first_party,
    }
}

fn domain_matches(rule: &FilterRule, page_domain: &str) -> bool {
    // The page is `d` or its subdomain; only rule domains are lowercased.
    let page = page_domain.as_bytes();
    let covered = |d: &String| {
        page.len().checked_sub(d.len()).is_some_and(|cut| {
            page[cut..].eq_ignore_ascii_case(d.as_bytes()) && (cut == 0 || page[cut - 1] == b'.')
        })
    };
    if rule.exclude_domains.iter().any(covered) {
        return false;
    }
    if rule.include_domains.is_empty() {
        return true;
    }
    rule.include_domains.iter().any(covered)
}

/// Whether `c` is an ABP "separator" character for `^`.
fn is_separator(c: char) -> bool {
    !(c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '%')
}

/// Matches the compiled tokens against `text` starting exactly at
/// byte offset `pos`. Returns the end offset on success.
fn match_tokens_at(tokens: &[PatternToken], text: &str, pos: usize, end_anchor: bool) -> bool {
    match tokens.split_first() {
        None => !end_anchor || pos == text.len(),
        Some((PatternToken::Literal(lit), rest)) => {
            if text[pos..].starts_with(lit.as_str()) {
                match_tokens_at(rest, text, pos + lit.len(), end_anchor)
            } else {
                false
            }
        }
        Some((PatternToken::Separator, rest)) => {
            // `^` matches a separator char, or — consuming nothing — the
            // end of the URL.
            if pos == text.len() {
                return match_tokens_at(rest, text, pos, end_anchor);
            }
            match text[pos..].chars().next() {
                Some(c) if is_separator(c) => {
                    match_tokens_at(rest, text, pos + c.len_utf8(), end_anchor)
                }
                _ => false,
            }
        }
        Some((PatternToken::Wildcard, rest)) => {
            if rest.is_empty() {
                return true; // `*` can always extend to the end of the URL
            }
            let mut p = pos;
            loop {
                if match_tokens_at(rest, text, p, end_anchor) {
                    return true;
                }
                match text[p..].chars().next() {
                    Some(c) => p += c.len_utf8(),
                    None => return false,
                }
            }
        }
    }
}

/// `url` as rules see it: the whole URL, lowercased once per request
/// (matching is case-insensitive).
pub(crate) fn lowered(url: &Url) -> String {
    let mut text = url.to_string();
    text.make_ascii_lowercase();
    text
}

/// Maximal runs of ASCII letters and digits in `text`.
fn tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// A token's bucket key, its FNV-1a hash. Tokens sharing a key share a
/// bucket, which only adds candidates: each is matched in full.
fn token_key(token: &str) -> u64 {
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    token.bytes().fold(0xcbf2_9ce4_8422_2325, fnv)
}

fn pattern_matches_lowered(rule: &FilterRule, text: &str) -> bool {
    let at = |pos| match_tokens_at(&rule.tokens, text, pos, rule.end_anchor);
    match rule.anchor {
        Anchor::Start => at(0),
        // `||` anchors at the start of the host or any label boundary
        // within it.
        Anchor::Domain => {
            let host_start = text.find("://").map_or(0, |i| i + 3);
            let host = text[host_start..].split(['/', '?', ':']).next();
            at(host_start)
                || host.is_some_and(|h| h.match_indices('.').any(|(i, _)| at(host_start + i + 1)))
        }
        Anchor::None => {
            rule.tokens.is_empty()
                || text
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain(std::iter::once(text.len()))
                    .any(at)
        }
    }
}

/// Whether the rule's pattern (ignoring options) matches the URL.
pub fn pattern_matches(rule: &FilterRule, url: &Url) -> bool {
    pattern_matches_lowered(rule, &lowered(url))
}

fn options_match(rule: &FilterRule, ctx: &RequestContext) -> bool {
    type_matches(rule, ctx.resource_type)
        && party_matches(rule, ctx.first_party)
        && domain_matches(rule, ctx.page_domain)
}

/// Full rule evaluation: pattern + type + party + domain options.
pub fn rule_matches(rule: &FilterRule, ctx: &RequestContext) -> bool {
    options_match(rule, ctx) && pattern_matches(rule, ctx.url)
}

/// The tokens every URL that `rule` matches holds as whole tokens: the
/// runs in its literals whose ends are fixed by a non-token character, a
/// `^`, or a `|`/`||` anchor. A run touching `*` or an unanchored pattern
/// end may continue into the URL's neighbouring letters.
fn bounded_tokens(rule: &FilterRule) -> impl Iterator<Item = &str> {
    rule.tokens.iter().enumerate().flat_map(move |(k, token)| {
        let lit = match token {
            PatternToken::Literal(lit) => lit.as_str(),
            _ => "",
        };
        let start_fixed = match k.checked_sub(1) {
            None => rule.anchor != Anchor::None,
            Some(prev) => rule.tokens[prev] == PatternToken::Separator,
        };
        let end_fixed = match rule.tokens.get(k + 1) {
            None => rule.end_anchor,
            Some(next) => *next == PatternToken::Separator,
        };
        tokens(lit).filter(move |run| {
            let start = run.as_ptr() as usize - lit.as_ptr() as usize;
            let end = start + run.len();
            (start > 0 || start_fixed) && (end < lit.len() || end_fixed)
        })
    })
}

/// One side of a compiled list (its blocking or its exception rules), in
/// list order, with each rule filed under one of its bounded tokens.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleIndex {
    pub(crate) rules: Vec<FilterRule>,
    /// Token key → ascending positions of the rules filed under it.
    buckets: HashMap<u64, Vec<usize>>,
    /// Rules without a bounded token, tested against every request.
    untokened: Vec<usize>,
}

impl RuleIndex {
    /// Appends a rule, filing it under its least-loaded bounded token
    /// (the longest on a tie), so no one bucket grows long.
    pub(crate) fn push(&mut self, rule: FilterRule) {
        let load = |t: &&str| self.buckets.get(&token_key(t)).map_or(0, Vec::len);
        let token = bounded_tokens(&rule).min_by_key(|t| (load(t), Reverse(t.len())));
        let bucket = match token {
            Some(token) => self.buckets.entry(token_key(token)).or_default(),
            None => &mut self.untokened,
        };
        bucket.push(self.rules.len());
        self.rules.push(rule);
    }

    /// The first rule in list order that matches the request. A rule can
    /// only match a URL holding its token, so the rules filed under the
    /// URL's tokens, plus the untokened ones, are the only candidates.
    pub(crate) fn first_match(&self, ctx: &RequestContext, url: &str) -> Option<&FilterRule> {
        let buckets = tokens(url).filter_map(|token| self.buckets.get(&token_key(token)));
        let mut first = self.rules.len();
        for bucket in std::iter::once(&self.untokened).chain(buckets) {
            // Positions ascend, so a bucket is done at the first hit so far.
            for &i in bucket.iter().take_while(|&&i| i < first) {
                let rule = &self.rules[i];
                if options_match(rule, ctx) && pattern_matches_lowered(rule, url) {
                    first = i;
                    break;
                }
            }
        }
        self.rules.get(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::parse_line;

    fn hit(rule: &FilterRule, url: &str, ty: ResourceType, first: bool, page: &str) -> bool {
        let url = Url::parse(url).unwrap();
        rule_matches(rule, &RequestContext::new(&url, ty, first, page))
    }

    fn rule(s: &str) -> FilterRule {
        parse_line(s).unwrap()
    }

    #[test]
    fn substring_rule_matches_anywhere() {
        let r = rule("/fingerprint.js");
        assert!(hit(
            &r,
            "https://cdn.x.com/lib/fingerprint.js",
            ResourceType::Script,
            false,
            "x.com"
        ));
        assert!(!hit(
            &r,
            "https://cdn.x.com/lib/fp.js",
            ResourceType::Script,
            false,
            "x.com"
        ));
    }

    #[test]
    fn domain_anchor_matches_host_and_subdomains() {
        let r = rule("||tracker.net^");
        for u in [
            "https://tracker.net/a.js",
            "https://cdn.tracker.net/a.js",
            "http://tracker.net/",
        ] {
            assert!(hit(&r, u, ResourceType::Script, false, "x.com"), "{u}");
        }
        assert!(!hit(
            &r,
            "https://nottracker.net/a.js",
            ResourceType::Script,
            false,
            "x.com"
        ));
        assert!(!hit(
            &r,
            "https://tracker.net.evil.com/a.js",
            ResourceType::Script,
            false,
            "x.com"
        ));
    }

    #[test]
    fn document_rule_does_not_block_scripts() {
        // The Appendix A.6 failure: ||mgid.com^$document has a rule but it
        // never applies to script resources.
        let r = rule("||mgid.com^$document");
        assert!(!hit(
            &r,
            "https://mgid.com/fp.js",
            ResourceType::Script,
            false,
            "news.com"
        ));
        assert!(hit(
            &r,
            "https://mgid.com/",
            ResourceType::Document,
            false,
            "news.com"
        ));
    }

    #[test]
    fn third_party_option() {
        let r = rule("||fp.example.net^$script,third-party");
        assert!(hit(
            &r,
            "https://fp.example.net/x.js",
            ResourceType::Script,
            false,
            "shop.com"
        ));
        assert!(!hit(
            &r,
            "https://fp.example.net/x.js",
            ResourceType::Script,
            true,
            "example.net"
        ));
    }

    #[test]
    fn domain_option_scopes_rule() {
        let r = rule("/ads.js$domain=news.com");
        assert!(hit(
            &r,
            "https://cdn.net/ads.js",
            ResourceType::Script,
            false,
            "news.com"
        ));
        assert!(hit(
            &r,
            "https://cdn.net/ads.js",
            ResourceType::Script,
            false,
            "sub.news.com"
        ));
        assert!(!hit(
            &r,
            "https://cdn.net/ads.js",
            ResourceType::Script,
            false,
            "blog.org"
        ));
    }

    #[test]
    fn separator_semantics() {
        let r = rule("||example.com^path");
        assert!(pattern_matches(
            &r,
            &Url::parse("https://example.com/path").unwrap()
        ));
        assert!(!pattern_matches(
            &r,
            &Url::parse("https://example.compath.com/x").unwrap()
        ));
        // '^' also matches end-of-URL.
        let r2 = rule("||example.com^");
        assert!(pattern_matches(
            &r2,
            &Url::parse("https://example.com/").unwrap()
        ));
    }

    #[test]
    fn wildcard_spans_segments() {
        let r = rule("||cdn.net/*/fp-*.js");
        assert!(pattern_matches(
            &r,
            &Url::parse("https://cdn.net/v2/fp-3.1.js").unwrap()
        ));
        assert!(!pattern_matches(
            &r,
            &Url::parse("https://cdn.net/fp.js").unwrap()
        ));
    }

    #[test]
    fn start_and_end_anchor() {
        let r = rule("|https://exact.com/app.js|");
        assert!(pattern_matches(
            &r,
            &Url::parse("https://exact.com/app.js").unwrap()
        ));
        assert!(!pattern_matches(
            &r,
            &Url::parse("https://exact.com/app.js?v=1").unwrap()
        ));
        assert!(!pattern_matches(
            &r,
            &Url::parse("https://pre.exact.com/app.js").unwrap()
        ));
    }

    #[test]
    fn rules_are_filed_under_their_least_loaded_token() {
        let mut index = RuleIndex::default();
        for line in [
            "||tracker.net^$script",
            "||ads.example.com^",
            "/fp-collect.js",
            "|https://exact.example/app.js|",
            "||mgid.com^$document",
            "fp*collect",
        ] {
            index.push(rule(line));
        }
        // The least-loaded token, longest first on a tie: `tracker`,
        // `example`, `collect`, `https` (first of the five-letter tokens,
        // `example` being loaded) and `mgid`. Both literals of
        // `fp*collect` touch the `*`, so it has no bounded token.
        let mut filed: Vec<u64> = index.buckets.keys().copied().collect();
        let mut expected = ["collect", "example", "https", "mgid", "tracker"].map(token_key);
        filed.sort_unstable();
        expected.sort_unstable();
        assert_eq!(filed, expected);
        assert_eq!(index.untokened, [5]);
        let url = Url::parse("https://x.example/fpxcollect.js").unwrap();
        let ctx = RequestContext::new(&url, ResourceType::Script, false, "p.example");
        let hit = index.first_match(&ctx, &lowered(&url));
        assert_eq!(hit.map(|r| r.raw.as_str()), Some("fp*collect"));
    }

    #[test]
    fn matching_is_case_insensitive() {
        let r = rule("/FingerPrint/a.js");
        assert!(pattern_matches(
            &r,
            &Url::parse("https://x.com/fingerprint/A.JS").unwrap()
        ));
    }
}
