//! Filter lists and the Disconnect domain list.

use canvassing_net::domain::registrable_domain;
use canvassing_net::{ResourceType, Url};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::matcher::{lowered, rule_matches, RequestContext, RuleIndex};
use crate::rule::{parse_line, FilterRule};

/// Outcome of evaluating a request against a filter list.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// No rule matched.
    Allow,
    /// A blocking rule matched (carries the rule text).
    Block(String),
    /// A blocking rule matched but an exception rule overrode it.
    Excepted {
        /// The blocking rule that would have fired.
        block: String,
        /// The `@@` rule that overrode it.
        exception: String,
    },
}

impl Verdict {
    /// Whether the request would actually be blocked.
    pub fn is_block(&self) -> bool {
        matches!(self, Verdict::Block(_))
    }
}

/// A parsed ABP-syntax filter list (EasyList / EasyPrivacy shaped),
/// compiled at parse time into a token index over its rules.
#[derive(Debug, Clone, Default)]
pub struct FilterList {
    /// List name, for reporting (e.g. `"EasyList"`).
    pub name: String,
    blocking: RuleIndex,
    exceptions: RuleIndex,
    /// Number of input lines skipped during parsing.
    pub skipped: usize,
}

/// The verdict on a request whose first matching blocking rule is
/// `block`, given its first matching exception rule.
fn verdict(block: &FilterRule, exception: Option<&FilterRule>) -> Verdict {
    match exception {
        None => Verdict::Block(block.raw.clone()),
        Some(exc) => Verdict::Excepted {
            block: block.raw.clone(),
            exception: exc.raw.clone(),
        },
    }
}

impl FilterList {
    /// Parses list text (one rule per line).
    pub fn parse(name: &str, text: &str) -> FilterList {
        let mut list = FilterList {
            name: name.to_string(),
            ..FilterList::default()
        };
        for line in text.lines() {
            match parse_line(line) {
                Ok(rule) if rule.exception => list.exceptions.push(rule),
                Ok(rule) => list.blocking.push(rule),
                Err(_) => list.skipped += 1,
            }
        }
        list
    }

    /// Blocking rules, in list order.
    pub fn rules(&self) -> &[FilterRule] {
        &self.blocking.rules
    }

    /// Total number of rules (blocking + exception).
    pub fn len(&self) -> usize {
        self.blocking.rules.len() + self.exceptions.rules.len()
    }

    /// Whether the list has no rules.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates a request: the first blocking rule in list order that
    /// matches, overridden by the first matching exception rule.
    pub fn evaluate(&self, ctx: &RequestContext) -> Verdict {
        let url = lowered(ctx.url);
        match self.blocking.first_match(ctx, &url) {
            None => Verdict::Allow,
            Some(block) => verdict(block, self.exceptions.first_match(ctx, &url)),
        }
    }

    /// [`FilterList::evaluate`] by a linear scan that tests every rule in
    /// list order: the reference the token index is tested and benchmarked
    /// against. The pipeline calls [`FilterList::evaluate`].
    pub fn evaluate_linear(&self, ctx: &RequestContext) -> Verdict {
        fn first<'a>(rules: &'a [FilterRule], ctx: &RequestContext) -> Option<&'a FilterRule> {
            rules.iter().find(|r| rule_matches(r, ctx))
        }
        match first(&self.blocking.rules, ctx) {
            None => Verdict::Allow,
            Some(block) => verdict(block, first(&self.exceptions.rules, ctx)),
        }
    }

    /// The adblockparser-style question the paper asks in §5.1: does any
    /// rule of this list *cover* the URL when requested as `resource_type`
    /// (ignoring the dynamic page context — pass `first_party=false` and
    /// an unrelated page domain, as `adblockparser` effectively does)?
    pub fn covers_script_url(&self, url: &Url, resource_type: ResourceType) -> bool {
        let ctx = RequestContext::new(url, resource_type, false, "adblockparser.invalid");
        self.evaluate(&ctx).is_block()
    }
}

/// The Disconnect tracker-protection list: purely domain-based (§5.1
/// "The Disconnect list is domain-based, so we simply check if the domain
/// of the script's URL is included in the list").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DisconnectList {
    domains: BTreeSet<String>,
}

impl DisconnectList {
    /// Builds a list from domain strings.
    pub fn from_domains<I: IntoIterator<Item = S>, S: Into<String>>(domains: I) -> Self {
        DisconnectList {
            domains: domains
                .into_iter()
                .map(|d| d.into().to_ascii_lowercase())
                .collect(),
        }
    }

    /// Parses the simple one-domain-per-line format.
    pub fn parse(text: &str) -> Self {
        Self::from_domains(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string),
        )
    }

    /// Number of listed domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Adds one domain.
    pub fn insert(&mut self, domain: &str) {
        self.domains.insert(domain.to_ascii_lowercase());
    }

    /// Whether the URL's host (or its registrable domain) is listed.
    pub fn contains_url(&self, url: &Url) -> bool {
        if self.domains.contains(&url.host) {
            return true;
        }
        match registrable_domain(&url.host) {
            Some(rd) => self.domains.contains(rd),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
! EasyList-shaped sample
[Adblock Plus 2.0]
||tracker.net^$script
||mgid.com^$document
@@||tracker.net/allowed/*$script
/fp-collect.js
example.com##.banner
";

    const LIST: &str = "\
||tracker.net^$script
||ads.example.com^
@@||tracker.net/allowed/*$script
/fp-collect.js
|https://exact.example/app.js|
||mgid.com^$document
";

    fn script(list: &FilterList, url: &str, page: &str) -> Verdict {
        let url = Url::parse(url).unwrap();
        let ctx = RequestContext::new(&url, ResourceType::Script, false, page);
        let verdict = list.evaluate(&ctx);
        assert_eq!(verdict, list.evaluate_linear(&ctx), "{url}");
        verdict
    }

    #[test]
    fn parse_counts() {
        let list = FilterList::parse("test", SAMPLE);
        assert_eq!(list.rules().len(), 3);
        assert_eq!(list.exceptions.rules.len(), 1);
        assert_eq!(list.skipped, 3); // comment, header, cosmetic
    }

    #[test]
    fn evaluate_block_and_exception() {
        let list = FilterList::parse("test", SAMPLE);
        assert!(script(&list, "https://tracker.net/fp.js", "site.com").is_block());
        match script(&list, "https://tracker.net/allowed/fp.js", "site.com") {
            Verdict::Excepted { .. } => {}
            other => panic!("expected exception, got {other:?}"),
        }
    }

    #[test]
    fn covers_script_url_ignores_document_rules() {
        let list = FilterList::parse("test", SAMPLE);
        let mgid = Url::parse("https://mgid.com/fp.js").unwrap();
        assert!(!list.covers_script_url(&mgid, ResourceType::Script));
        let tracker = Url::parse("https://tracker.net/fp.js").unwrap();
        assert!(list.covers_script_url(&tracker, ResourceType::Script));
    }

    #[test]
    fn compiled_matches_linear_on_representative_urls() {
        let list = FilterList::parse("t", LIST);
        for url in [
            "https://tracker.net/fp.js",
            "https://cdn.tracker.net/x.js",
            "https://tracker.net/allowed/fp.js",
            "https://ads.example.com/banner.js",
            "https://clean.example/app.js",
            "https://x.example/fp-collect.js",
            "https://exact.example/app.js",
            "https://exact.example/app.js?v=1",
            "https://mgid.com/fp.js",
        ] {
            script(&list, url, "page.example");
        }
    }

    #[test]
    fn first_rule_in_list_order_is_reported() {
        // Both rules match; the second sits in an earlier-scanned bucket
        // (`a`), the first under `tracker`. List order decides.
        let list = FilterList::parse("t", "||tracker.net^\n||a.tracker.net^\n");
        assert_eq!(
            script(&list, "https://a.tracker.net/x.js", "p.example"),
            Verdict::Block("||tracker.net^".into())
        );
    }

    #[test]
    fn unanchored_rules_still_match() {
        let list = FilterList::parse("t", LIST);
        assert!(script(&list, "https://anywhere.example/fp-collect.js", "p.example").is_block());
    }

    #[test]
    fn disconnect_matches_by_domain() {
        let d = DisconnectList::from_domains(["tracker.net", "mail.ru"]);
        assert!(d.contains_url(&Url::parse("https://tracker.net/x.js").unwrap()));
        assert!(d.contains_url(&Url::parse("https://cdn.tracker.net/x.js").unwrap()));
        assert!(d.contains_url(&Url::parse("https://privacy-cs.mail.ru/fp.js").unwrap()));
        assert!(!d.contains_url(&Url::parse("https://example.com/x.js").unwrap()));
    }

    #[test]
    fn disconnect_parse_skips_comments() {
        let d = DisconnectList::parse("# trackers\ntracker.net\n\nads.example\n");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn empty_list_allows_everything() {
        let list = FilterList::parse("empty", "");
        assert_eq!(
            script(&list, "https://anything.com/x.js", "site.com"),
            Verdict::Allow
        );
    }
}
