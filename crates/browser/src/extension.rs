//! Ad-blocker extensions.
//!
//! Both modeled extensions consume EasyList (the paper: "AdblockPlus and
//! UBlock Origin, both of which use EasyList's rules") and apply the
//! first-party exception that §5.2 shows fingerprinters exploit. uBlock
//! Origin additionally un-cloaks CNAMEs (as it does on Firefox), so
//! CNAME-cloaked trackers are evaluated — and party-classified — against
//! their canonical hosts.

use std::borrow::Cow;
use std::sync::Arc;

use canvassing_blocklist::{FilterList, RequestContext, Verdict};
use canvassing_net::domain::registrable_domain;
use canvassing_net::{classify_party, DnsZone, Party, ResourceType, Url};

/// Which ad blocker is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdBlockerKind {
    /// Adblock Plus: EasyList, first-party exception, no CNAME uncloaking.
    AdblockPlus,
    /// uBlock Origin: EasyList, first-party exception, CNAME uncloaking.
    UblockOrigin,
}

impl AdBlockerKind {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AdBlockerKind::AdblockPlus => "Adblock Plus",
            AdBlockerKind::UblockOrigin => "uBlock Origin",
        }
    }
}

/// An installed content-blocking extension. Clones share one compiled
/// list, so every worker of a crawl installs the same parse.
#[derive(Debug, Clone)]
pub struct Extension {
    kind: AdBlockerKind,
    list: Arc<FilterList>,
}

/// Why a request was blocked, for crawler records.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDecision {
    /// The rule text that fired.
    pub rule: String,
    /// The URL the rule was evaluated against (canonical for uBO
    /// uncloaked requests).
    pub evaluated_url: Url,
}

impl Extension {
    /// Installs an extension with the given filter list text.
    pub fn new(kind: AdBlockerKind, easylist_text: &str) -> Extension {
        Extension {
            kind,
            list: Arc::new(FilterList::parse("EasyList", easylist_text)),
        }
    }

    /// The extension flavor.
    pub fn kind(&self) -> AdBlockerKind {
        self.kind
    }

    /// Decides whether a script request from `page` to `script_url` is
    /// blocked. `dns` is used by uBlock Origin to resolve CNAME cloaks.
    pub fn check_script(
        &self,
        page: &Url,
        script_url: &Url,
        dns: &DnsZone,
    ) -> Option<BlockDecision> {
        // uBlock Origin sees through CNAME cloaks: evaluate against the
        // canonical name when the request host aliases off-site.
        let effective_url = match self.kind {
            AdBlockerKind::UblockOrigin => match dns.resolve(&script_url.host) {
                Ok(res) if res.is_cloaked() => Cow::Owned(Url {
                    host: res.canonical,
                    ..script_url.clone()
                }),
                _ => Cow::Borrowed(script_url),
            },
            AdBlockerKind::AdblockPlus => Cow::Borrowed(script_url),
        };

        // First-party exception: extensions do not block same-site
        // resources (this is what lets Akamai's /akam/ sensor and
        // subdomain-routed SDKs through, §5.2).
        if classify_party(page, &effective_url) != Party::ThirdParty {
            return None;
        }

        let ctx = RequestContext::new(
            &effective_url,
            ResourceType::Script,
            false,
            registrable_domain(&page.host).unwrap_or(&page.host),
        );
        match self.list.evaluate(&ctx) {
            Verdict::Block(rule) => Some(BlockDecision {
                rule,
                evaluated_url: effective_url.into_owned(),
            }),
            Verdict::Allow | Verdict::Excepted { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIST: &str = "\
||tracker.net^$script
||privacy-cs.mail.ru^$script
@@||privacy-cs.mail.ru^$script,domain=ru
/akam/*$script
";

    fn dns_with_cloak() -> DnsZone {
        let mut dns = DnsZone::new();
        dns.insert_auto("tracker.net");
        dns.insert_cname("metrics.shop.com", "tracker.net");
        dns.insert_auto("shop.com");
        dns
    }

    fn page() -> Url {
        Url::https("shop.com", "/")
    }

    #[test]
    fn blocks_third_party_match() {
        let ext = Extension::new(AdBlockerKind::AdblockPlus, LIST);
        let hit = ext.check_script(
            &page(),
            &Url::https("tracker.net", "/fp.js"),
            &DnsZone::new(),
        );
        assert!(hit.is_some());
    }

    #[test]
    fn first_party_exception_spares_akamai() {
        let ext = Extension::new(AdBlockerKind::AdblockPlus, LIST);
        // The /akam/ rule matches the URL, but it is first-party.
        let hit = ext.check_script(
            &page(),
            &Url::https("shop.com", "/akam/13/abc.js"),
            &DnsZone::new(),
        );
        assert!(hit.is_none());
        // Same path on a third-party host would be blocked.
        let hit = ext.check_script(
            &page(),
            &Url::https("cdn.example.net", "/akam/13/abc.js"),
            &DnsZone::new(),
        );
        assert!(hit.is_some());
    }

    #[test]
    fn abp_misses_cname_cloak_ubo_catches_it() {
        let dns = dns_with_cloak();
        let cloaked = Url::https("metrics.shop.com", "/fp.js");
        let abp = Extension::new(AdBlockerKind::AdblockPlus, LIST);
        assert!(abp.check_script(&page(), &cloaked, &dns).is_none());
        let ubo = Extension::new(AdBlockerKind::UblockOrigin, LIST);
        let hit = ubo.check_script(&page(), &cloaked, &dns);
        assert!(hit.is_some(), "uBO should uncloak and block");
        assert_eq!(hit.unwrap().evaluated_url.host, "tracker.net");
    }

    #[test]
    fn site_scoped_exception_spares_mailru_on_ru_pages() {
        let ext = Extension::new(AdBlockerKind::AdblockPlus, LIST);
        let script = Url::https("privacy-cs.mail.ru", "/counter/top.js");
        let ru_page = Url::https("news.ru", "/");
        assert!(ext
            .check_script(&ru_page, &script, &DnsZone::new())
            .is_none());
        // On a non-.ru page it would be blocked.
        assert!(ext
            .check_script(&page(), &script, &DnsZone::new())
            .is_some());
    }
}
