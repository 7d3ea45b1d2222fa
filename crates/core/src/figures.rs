//! Figure regeneration: Figure 1's canvas-popularity distribution, with a
//! plain-text renderer for terminal output.

use serde::{Deserialize, Serialize};

use crate::cluster::{Cluster, Clustering};

/// One bar of Figure 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Bar {
    /// Popularity rank among top-20k canvases (1-based).
    pub rank: usize,
    /// Popular sites using the canvas.
    pub popular_sites: usize,
    /// Tail sites using the same canvas.
    pub tail_sites: usize,
}

/// Figure 1 data: the top-`k` most frequent canvases in the popular
/// cohort with their tail-cohort frequencies, plus the Shopify outlier —
/// the canvas most frequent among *tail* sites, shown with its (small)
/// popular-cohort frequency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure1 {
    /// Bars in popular-rank order.
    pub bars: Vec<Fig1Bar>,
    /// The tail outlier: (popular sites, tail sites) of the most frequent
    /// tail canvas, when it is not already in the top-`k` head.
    pub tail_outlier: Option<(usize, usize)>,
}

impl Figure1 {
    /// Builds Figure 1 from both cohorts' clusterings.
    pub fn build(popular: &Clustering, tail: &Clustering, k: usize) -> Figure1 {
        let tail_count = |c: &Cluster| -> usize {
            tail.find(c.hash, &c.data_url)
                .map(Cluster::site_count)
                .unwrap_or(0)
        };
        let bars: Vec<Fig1Bar> = popular
            .clusters
            .iter()
            .take(k)
            .enumerate()
            .map(|(i, c)| Fig1Bar {
                rank: i + 1,
                popular_sites: c.site_count(),
                tail_sites: tail_count(c),
            })
            .collect();

        // The §4.2 outlier: most frequent tail canvas vs its popular use.
        let tail_outlier = tail.clusters.first().map(|c| {
            let popular_sites = popular
                .find(c.hash, &c.data_url)
                .map(Cluster::site_count)
                .unwrap_or(0);
            (popular_sites, c.site_count())
        });
        Figure1 { bars, tail_outlier }
    }

    /// Renders an ASCII version of the figure for terminal reports.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self
            .bars
            .iter()
            .map(|b| b.popular_sites.max(b.tail_sites))
            .max()
            .unwrap_or(1)
            .max(1);
        let mut out = String::new();
        out.push_str("rank | popular (#) / tail (o)\n");
        for b in &self.bars {
            let p = (b.popular_sites * width) / max;
            let t = (b.tail_sites * width) / max;
            out.push_str(&format!(
                "{:4} | {:<w$} {:4}  {:<w$} {:4}\n",
                b.rank,
                "#".repeat(p),
                b.popular_sites,
                "o".repeat(t),
                b.tail_sites,
                w = width,
            ));
        }
        if let Some((p, t)) = self.tail_outlier {
            out.push_str(&format!(
                "tail outlier (Shopify-style): {p} popular sites, {t} tail sites\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{FpCanvas, SiteDetection};
    use canvassing_net::{Party, Url};

    fn site(host: &str, datas: &[&str]) -> SiteDetection {
        SiteDetection {
            site: host.into(),
            canvases: datas
                .iter()
                .map(|d| FpCanvas {
                    site: host.into(),
                    data_url: (*d).into(),
                    hash: canvassing_raster::content_hash(d.as_bytes()),
                    script_url: Url::https("s.net", "/f.js"),
                    inline: false,
                    party: Party::ThirdParty,
                    cname_cloaked: false,
                    cdn: false,
                    width: 100,
                    height: 100,
                })
                .collect(),
            excluded: vec![],
            double_render_check: false,
        }
    }

    #[test]
    fn figure_ranks_by_popular_frequency() {
        let popular = Clustering::build(
            [
                site("p1.com", &["A"]),
                site("p2.com", &["A"]),
                site("p3.com", &["B"]),
            ]
            .iter(),
        );
        let tail = Clustering::build(
            [
                site("t1.com", &["B"]),
                site("t2.com", &["S"]),
                site("t3.com", &["S"]),
                site("t4.com", &["S"]),
            ]
            .iter(),
        );
        let fig = Figure1::build(&popular, &tail, 10);
        assert_eq!(fig.bars.len(), 2);
        assert_eq!(fig.bars[0].popular_sites, 2); // A
        assert_eq!(fig.bars[0].tail_sites, 0);
        assert_eq!(fig.bars[1].popular_sites, 1); // B
        assert_eq!(fig.bars[1].tail_sites, 1);
        // S is the tail's most frequent canvas and absent from popular.
        assert_eq!(fig.tail_outlier, Some((0, 3)));
    }

    #[test]
    fn ascii_render_contains_counts() {
        let popular = Clustering::build([site("p.com", &["A"])].iter());
        let tail = Clustering::build([site("t.com", &["A"])].iter());
        let fig = Figure1::build(&popular, &tail, 5);
        let text = fig.render_ascii(20);
        assert!(text.contains("rank"));
        assert!(text.contains('1'));
    }
}
