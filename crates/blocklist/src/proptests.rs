//! Property tests for the blocklist engine: totality of the parser,
//! semantic invariants of exceptions and type options.

#![cfg(test)]
// The proptest stub expands test bodies to nothing, so strategy
// helpers and imports look unused to rustc.
#![allow(unused_imports, dead_code)]

use proptest::prelude::*;

use canvassing_net::{ResourceType, Url};

use crate::list::FilterList;
use crate::matcher::{rule_matches, RequestContext};
use crate::rule::parse_line;

fn url_strategy() -> impl Strategy<Value = Url> {
    ("[a-z]{1,8}", "[a-z]{2,4}", "(/[a-z0-9._-]{1,8}){0,3}").prop_map(|(host, tld, path)| {
        Url::parse(&format!("https://{host}.{tld}{path}")).expect("generated URL")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The rule parser never panics on arbitrary printable lines.
    #[test]
    fn parse_line_is_total(line in "[ -~]{0,120}") {
        let _ = parse_line(&line);
    }

    /// List parsing never panics on multi-line soup, and rule counts are
    /// bounded by line counts.
    #[test]
    fn list_parse_is_total(text in "([ -~]{0,60}\\n){0,20}") {
        let list = FilterList::parse("fuzz", &text);
        prop_assert!(list.len() + list.skipped <= text.lines().count() + 1);
    }

    /// Adding an exception can only reduce blocking, never increase it.
    #[test]
    fn exceptions_never_increase_blocking(url in url_strategy()) {
        let base = format!("||{}^$script\n", url.host);
        let with_exc = format!("{base}@@||{}^$script\n", url.host);
        let plain = FilterList::parse("plain", &base);
        let excepted = FilterList::parse("exc", &with_exc);
        let ctx = RequestContext::new(&url, ResourceType::Script, false, "page.example");
        let plain_blocks = plain.evaluate(&ctx).is_block();
        let exc_blocks = excepted.evaluate(&ctx).is_block();
        prop_assert!(plain_blocks, "base rule must match its own host");
        prop_assert!(!exc_blocks, "exception must defuse the block");
    }

    /// A `$document` rule never matches a script request, for any host.
    #[test]
    fn document_rules_never_block_scripts(url in url_strategy()) {
        let rule = parse_line(&format!("||{}^$document", url.host)).unwrap();
        let ctx = RequestContext::new(&url, ResourceType::Script, false, "page.example");
        prop_assert!(!rule_matches(&rule, &ctx));
    }

    /// A domain-anchored rule matches the host itself and any subdomain,
    /// and never matches unrelated hosts that merely contain the name.
    #[test]
    fn domain_anchor_semantics(host in "[a-z]{3,8}", tld in "[a-z]{2,3}") {
        let rule = parse_line(&format!("||{host}.{tld}^")).unwrap();
        let hit = |u: &str| {
            let url = Url::parse(u).unwrap();
            let ctx = RequestContext::new(
                &url,
                ResourceType::Script,
                false,
                "page.example",
            );
            rule_matches(&rule, &ctx)
        };
        let exact = hit(&format!("https://{host}.{tld}/x.js"));
        let sub = hit(&format!("https://cdn.{host}.{tld}/x.js"));
        let concat = hit(&format!("https://{host}{tld}.example/x.js"));
        let infix = hit(&format!("https://{host}.{tld}.evil.example/x.js"));
        prop_assert!(exact);
        prop_assert!(sub);
        prop_assert!(!concat);
        prop_assert!(!infix);
    }

    /// Pattern matching is case-insensitive in both rule and URL.
    #[test]
    fn matching_is_case_insensitive(path in "[a-zA-Z]{2,10}") {
        let rule = parse_line(&format!("/{}/x.js", path.to_uppercase())).unwrap();
        let url = Url::parse(&format!("https://a.example/{}/x.js", path.to_lowercase())).unwrap();
        prop_assert!(crate::matcher::pattern_matches(&rule, &url));
    }
}
