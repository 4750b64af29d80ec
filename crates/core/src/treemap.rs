//! Size × longevity summaries (Figures 6 and 7).
//!
//! The paper renders treemaps: each service group is a box sized by
//! member count and coloured by secret longevity (solid red = ≥30 days).
//! The textual equivalent is a ranked table of (group, size, median
//! longevity, colour bucket), which preserves everything the figure
//! communicates: which groups are big, which are long-lived, and where
//! the dangerous big-AND-long-lived groups sit.

use crate::groups::ServiceGroup;
use crate::stream::CountCdf;
use std::collections::BTreeMap;

/// Longevity colour buckets, mirroring the figures' legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LongevityBucket {
    /// Under one hour.
    SubHour,
    /// One hour to under one day.
    Hours,
    /// One day to under seven days.
    Days,
    /// Seven to under thirty days.
    Weeks,
    /// Thirty days or more — the paper's solid red.
    Red30Plus,
}

impl LongevityBucket {
    /// Classify a longevity in seconds.
    pub fn of(secs: u64) -> Self {
        const HOUR: u64 = 3_600;
        const DAY: u64 = 86_400;
        match secs {
            s if s >= 30 * DAY => LongevityBucket::Red30Plus,
            s if s >= 7 * DAY => LongevityBucket::Weeks,
            s if s >= DAY => LongevityBucket::Days,
            s if s >= HOUR => LongevityBucket::Hours,
            _ => LongevityBucket::SubHour,
        }
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            LongevityBucket::SubHour => "<1h",
            LongevityBucket::Hours => "1h-1d",
            LongevityBucket::Days => "1d-7d",
            LongevityBucket::Weeks => "7d-30d",
            LongevityBucket::Red30Plus => "30d+ (RED)",
        }
    }
}

/// One treemap cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreemapCell {
    /// Group label.
    pub label: String,
    /// Member count (box area).
    pub size: usize,
    /// Median member longevity in seconds (box colour).
    pub median_longevity: u64,
    /// Colour bucket.
    pub bucket: LongevityBucket,
}

/// Build treemap cells: groups sized by membership, coloured by the median
/// of their members' longevity values (seconds). Domains without a
/// longevity sample are skipped for the median but still counted for size.
pub fn build_cells(
    groups: &[ServiceGroup],
    longevity: &BTreeMap<String, u64>,
    min_size: usize,
) -> Vec<TreemapCell> {
    let mut cells: Vec<TreemapCell> = groups
        .iter()
        .filter(|g| g.size() >= min_size)
        .map(|g| {
            let samples = g.members.iter().filter_map(|m| longevity.get(m).copied());
            let median = CountCdf::from_samples(samples).median().unwrap_or(0);
            TreemapCell {
                label: g.label.clone(),
                size: g.size(),
                median_longevity: median,
                bucket: LongevityBucket::of(median),
            }
        })
        .collect();
    cells.sort_by(|a, b| b.size.cmp(&a.size).then(a.label.cmp(&b.label)));
    cells
}

/// The "alarming" cells: big and red (≥30-day secrets shared across many
/// domains) — the paper's Fastly/TMall/Jack Henry callouts.
pub fn red_cells(cells: &[TreemapCell], min_size: usize) -> Vec<&TreemapCell> {
    cells
        .iter()
        .filter(|c| c.bucket == LongevityBucket::Red30Plus && c.size >= min_size)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 86_400;

    fn group(label: &str, members: &[&str]) -> ServiceGroup {
        ServiceGroup {
            label: label.into(),
            members: members.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LongevityBucket::of(0), LongevityBucket::SubHour);
        assert_eq!(LongevityBucket::of(3_599), LongevityBucket::SubHour);
        assert_eq!(LongevityBucket::of(3_600), LongevityBucket::Hours);
        assert_eq!(LongevityBucket::of(DAY - 1), LongevityBucket::Hours);
        assert_eq!(LongevityBucket::of(DAY), LongevityBucket::Days);
        assert_eq!(LongevityBucket::of(7 * DAY), LongevityBucket::Weeks);
        assert_eq!(LongevityBucket::of(30 * DAY), LongevityBucket::Red30Plus);
        assert_eq!(LongevityBucket::of(u64::MAX), LongevityBucket::Red30Plus);
    }

    #[test]
    fn cells_sized_and_coloured() {
        let groups = vec![
            group("big", &["a", "b", "c"]),
            group("small-red", &["x", "y"]),
        ];
        let mut longevity = BTreeMap::new();
        longevity.insert("a".to_string(), 300);
        longevity.insert("b".to_string(), 400);
        longevity.insert("c".to_string(), 500);
        longevity.insert("x".to_string(), 40 * DAY);
        longevity.insert("y".to_string(), 50 * DAY);
        let cells = build_cells(&groups, &longevity, 1);
        assert_eq!(cells[0].label, "big");
        assert_eq!(cells[0].size, 3);
        assert_eq!(cells[0].median_longevity, 400);
        assert_eq!(cells[0].bucket, LongevityBucket::SubHour);
        assert_eq!(cells[1].bucket, LongevityBucket::Red30Plus);
        let red = red_cells(&cells, 2);
        assert_eq!(red.len(), 1);
        assert_eq!(red[0].label, "small-red");
    }

    #[test]
    fn min_size_filters() {
        let groups = vec![group("solo", &["a"]), group("duo", &["b", "c"])];
        let longevity = BTreeMap::new();
        let cells = build_cells(&groups, &longevity, 2);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label, "duo");
        assert_eq!(cells[0].median_longevity, 0, "no samples → 0");
    }

    #[test]
    fn labels_have_legends() {
        for b in [
            LongevityBucket::SubHour,
            LongevityBucket::Hours,
            LongevityBucket::Days,
            LongevityBucket::Weeks,
            LongevityBucket::Red30Plus,
        ] {
            assert!(!b.label().is_empty());
        }
        assert!(LongevityBucket::Red30Plus.label().contains("RED"));
    }
}
