//! Named operators and notable domains.
//!
//! The paper's service-group tables (5, 6, 7) and prolonged-reuse tables
//! (2, 3, 4) name specific providers. We mirror each with a `.sim`
//! counterpart whose *structure* — group sizes in parts-per-million of the
//! ranked list, rotation cadence, sharing topology — matches the paper's
//! observation. Group sizes scale with the configured population; notable
//! single domains keep their paper ranks.

use crate::profile::{DAY, HOUR, MINUTE};

/// Which key exchange a shared Diffie-Hellman group reuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhKexKind {
    /// Finite-field DHE.
    Dhe,
    /// X25519 ECDHE.
    Ecdhe,
}

/// STEK rotation cadence, in spec form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationSpec {
    /// Fresh key at least daily.
    Daily,
    /// Custom infrastructure: rotate every `period`, accept old keys for
    /// `overlap` (the Google §7.2 pattern).
    Periodic {
        /// Rotation period (seconds).
        period: u64,
        /// Retired-key acceptance overlap (seconds).
        overlap: u64,
    },
    /// New key only on (rare) restarts every N days.
    RestartDays(u64),
    /// Never rotates (synced key file — Fastly/Yandex pattern).
    Never,
}

/// A named multi-domain operator.
#[derive(Debug, Clone)]
pub struct OperatorSpec {
    /// Operator label (appears in service-group reports).
    pub name: &'static str,
    /// Total domains, in parts-per-million of the ranked list.
    pub ppm: u32,
    /// Shared session-cache group sizes (ppm). Domains beyond the listed
    /// groups resume from per-terminator caches.
    pub cache_groups_ppm: &'static [u32],
    /// Session-cache entry lifetime (0 = no session-ID resumption).
    pub cache_lifetime: u64,
    /// Shared STEK group sizes (ppm). Empty = tickets disabled.
    pub stek_groups_ppm: &'static [u32],
    /// STEK rotation cadence.
    pub stek_rotation: RotationSpec,
    /// Ticket lifetime hint (seconds, 0 = unspecified).
    pub ticket_hint: u32,
    /// Ticket acceptance window (seconds).
    pub ticket_accept: u64,
    /// Shared Diffie-Hellman value group sizes (ppm). Empty = fresh values.
    pub dh_groups_ppm: &'static [u32],
    /// Reuse span of the shared DH value, in days (63 = whole study).
    pub dh_span_days: u64,
    /// Which key exchange the shared value belongs to.
    pub dh_kex: DhKexKind,
}

/// The operator table. ppm values follow the paper's Tables 5–7 counts.
pub fn operators() -> Vec<OperatorSpec> {
    vec![
        OperatorSpec {
            // The CloudFlare analogue: the largest STEK group (62,176
            // domains), two session-cache groups (30,163 + 15,241),
            // daily STEK rotation, 18-hour ticket acceptance (Fig. 2's
            // 18 h step), fresh ECDHE values.
            name: "cirrusflare",
            ppm: 62_176,
            cache_groups_ppm: &[30_163, 15_241],
            // 18 hours for both the session caches and the ticket window:
            // with the CDN at ~14% of resuming domains this reproduces both
            // Fig. 1's >1h tail (~18%) and Fig. 2's 18-hour step.
            cache_lifetime: 18 * HOUR,
            stek_groups_ppm: &[62_176],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: (18 * HOUR) as u32,
            ticket_accept: 18 * HOUR,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // The Google analogue: one STEK for every property (8,973),
            // 14-hour rotation with 28-hour acceptance, ≥24 h session
            // caches, five Blogspot-like cache sub-groups.
            name: "goggle",
            ppm: 8_973,
            cache_groups_ppm: &[1_000, 849, 743, 732, 648, 561],
            cache_lifetime: 24 * HOUR,
            stek_groups_ppm: &[8_973],
            stek_rotation: RotationSpec::Periodic {
                period: 14 * HOUR,
                overlap: 14 * HOUR,
            },
            ticket_hint: (28 * HOUR) as u32,
            ticket_accept: 28 * HOUR,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // Automattic analogue (wordpress-style hosting).
            name: "automaton",
            ppm: 4_182,
            cache_groups_ppm: &[2_247, 1_552],
            cache_lifetime: HOUR,
            stek_groups_ppm: &[4_182],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: HOUR as u32,
            ticket_accept: HOUR,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // TMall analogue: large retail platform, never-rotating STEK
            // (one of Fig. 6's big red blocks).
            name: "teemall",
            ppm: 3_305,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[3_305],
            stek_rotation: RotationSpec::Never,
            ticket_hint: (10 * HOUR) as u32,
            ticket_accept: 10 * HOUR,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // Shopify analogue.
            name: "shopling",
            ppm: 3_247,
            cache_groups_ppm: &[593],
            cache_lifetime: 30 * MINUTE,
            stek_groups_ppm: &[3_247],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: (30 * MINUTE) as u32,
            ticket_accept: 30 * MINUTE,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // GoDaddy analogue (shared hosting).
            name: "gopappy",
            ppm: 1_875,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[1_875],
            stek_rotation: RotationSpec::RestartDays(2),
            ticket_hint: (5 * MINUTE) as u32,
            ticket_accept: 5 * MINUTE,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // Amazon analogue.
            name: "amazonia",
            ppm: 1_495,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[1_495],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: (5 * MINUTE) as u32,
            ticket_accept: 5 * MINUTE,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // Tumblr analogue: three sibling STEK groups.
            name: "tumblrr",
            ppm: 2_890,
            cache_groups_ppm: &[],
            cache_lifetime: 10 * MINUTE,
            stek_groups_ppm: &[975, 959, 956],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: (10 * MINUTE) as u32,
            ticket_accept: 10 * MINUTE,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // Fastly analogue: a CDN whose synchronized STEK never changed
            // for the whole study (§6.1) — fronting civic domains.
            name: "fastlane",
            ppm: 1_000,
            cache_groups_ppm: &[1_000],
            cache_lifetime: HOUR,
            stek_groups_ppm: &[1_000],
            stek_rotation: RotationSpec::Never,
            ticket_hint: HOUR as u32,
            ticket_accept: HOUR,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // SquareSpace analogue: the largest Diffie-Hellman service
            // group (1,627 domains sharing ECDHE values).
            name: "rhombusspace",
            ppm: 1_627,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[1_627],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: (5 * MINUTE) as u32,
            ticket_accept: 5 * MINUTE,
            dh_groups_ppm: &[1_627],
            dh_span_days: 3,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // LiveJournal analogue: second-largest DH group.
            name: "livepaper",
            ppm: 1_330,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: 0,
            ticket_accept: 0,
            dh_groups_ppm: &[1_330],
            dh_span_days: 2,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // Jimdo analogue: two shared-ECDHE hosting servers (19- and
            // 17-day value reuse on single IPs).
            name: "jimbo",
            ppm: 357,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: (3 * MINUTE) as u32,
            ticket_accept: 3 * MINUTE,
            dh_groups_ppm: &[179, 178],
            dh_span_days: 19,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // Hostway analogue: the most-shared finite-field DHE value
            // (137 domains across 119 IPs in one AS).
            name: "hostroad",
            ppm: 137,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: (3 * MINUTE) as u32,
            ticket_accept: 3 * MINUTE,
            dh_groups_ppm: &[137],
            dh_span_days: 10,
            dh_kex: DhKexKind::Dhe,
        },
        OperatorSpec {
            // Affinity Internet analogue: one DHE value across ~91 domains
            // for 62 days.
            name: "kinship",
            ppm: 146,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: 0,
            ticket_accept: 0,
            dh_groups_ppm: &[146],
            dh_span_days: 62,
            dh_kex: DhKexKind::Dhe,
        },
        OperatorSpec {
            // Jack Henry & Associates analogue: 79 bank/credit-union
            // domains on one STEK for 59 days, then a second shared STEK.
            name: "jackhenrietta",
            ppm: 79,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[79],
            stek_rotation: RotationSpec::RestartDays(59),
            ticket_hint: (10 * HOUR) as u32,
            ticket_accept: 10 * HOUR,
            dh_groups_ppm: &[],
            dh_span_days: 0,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            // SquareSpace-tier DH sharers from Table 7.
            name: "distilled",
            ppm: 174,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: 0,
            ticket_accept: 0,
            dh_groups_ppm: &[174],
            dh_span_days: 4,
            dh_kex: DhKexKind::Ecdhe,
        },
        OperatorSpec {
            name: "atypical",
            ppm: 167,
            cache_groups_ppm: &[],
            cache_lifetime: 5 * MINUTE,
            stek_groups_ppm: &[],
            stek_rotation: RotationSpec::Daily,
            ticket_hint: 0,
            ticket_accept: 0,
            dh_groups_ppm: &[167],
            dh_span_days: 5,
            dh_kex: DhKexKind::Ecdhe,
        },
    ]
}

/// A notable single domain (Tables 2–4 and §7's named sites).
#[derive(Debug, Clone)]
pub struct NotableDomain {
    /// Domain name (".sim" analogue of the paper's site).
    pub name: &'static str,
    /// Average Alexa rank in the paper.
    pub rank: usize,
    /// STEK reuse span in days (None = rotates daily).
    pub stek_span_days: Option<u64>,
    /// DHE value reuse span in days (None = fresh).
    pub dhe_span_days: Option<u64>,
    /// ECDHE value reuse span in days (None = fresh).
    pub ecdhe_span_days: Option<u64>,
    /// Ticket lifetime hint override (seconds; None = 1 hour default).
    pub ticket_hint: Option<u32>,
}

const fn notable(
    name: &'static str,
    rank: usize,
    stek: Option<u64>,
    dhe: Option<u64>,
    ecdhe: Option<u64>,
) -> NotableDomain {
    NotableDomain {
        name,
        rank,
        stek_span_days: stek,
        dhe_span_days: dhe,
        ecdhe_span_days: ecdhe,
        ticket_hint: None,
    }
}

/// Secondary notable reusers, rank-ascending. These are real Tables 2–4
/// entries, but pinning all of them regardless of population size
/// overweights prolonged reuse in small worlds: at 1,500 domains the
/// fixed block alone pushed DHE burst reuse to ~14.6% of supporters vs
/// the paper's 7.2%. They thin with `scale` exactly like the yandex and
/// kayak bulk families, keeping reuse *rates* stable across `--size`.
const SECONDARY_NOTABLES: &[NotableDomain] = &[
    notable("slack.sim", 120, Some(18), None, None),
    notable("vice.sim", 158, None, None, Some(26)),
    notable("9gag.sim", 221, None, None, Some(31)),
    notable("liputan6.sim", 322, None, None, Some(28)),
    notable("paytm.sim", 353, None, None, Some(27)),
    notable("ebay-in.sim", 392, None, Some(7), None),
    notable("ebay-it.sim", 456, None, Some(8), None),
    notable("playstation.sim", 464, None, None, Some(11)),
    notable("woot.sim", 527, None, None, Some(62)),
    notable("bleacherreport.sim", 528, Some(7), Some(24), Some(24)),
    notable("cbssports.sim", 592, None, Some(60), None),
    notable("leagueoflegends.sim", 615, None, None, Some(27)),
    notable("gamefaqs.sim", 626, None, Some(12), None),
    notable("overstock.sim", 633, None, Some(17), None),
    notable("symantec.sim", 900, None, None, Some(41)),
    notable("norton.sim", 1_200, None, None, Some(19)),
    notable("mint.sim", 1_500, None, None, Some(62)),
    notable("commsec.sim", 2_100, None, Some(36), None),
    notable("betterment.sim", 3_000, None, None, Some(62)),
    notable("symanteccloud.sim", 4_000, None, None, Some(16)),
];

/// The notable-domain table. Spans follow the paper's Tables 2–4; 63 days
/// means "in use the entire study" (and likely beyond).
///
/// `scale` is population_size / 1,000,000. The named headline domains are
/// always present (they make the reproduced tables recognizable), but
/// everything bulk — the 8 yandex.[tld] mirrors, the 32 kayak.[tld]
/// mirrors, and the [`SECONDARY_NOTABLES`] block — scales with the
/// population, so small simulations are not overweighted with long-reuse
/// domains relative to the paper's proportions.
pub fn notables(scale: f64) -> Vec<NotableDomain> {
    let mut v = vec![
        // Table 2 headliners: prolonged STEK reuse.
        notable("yahoo.sim", 5, Some(63), None, None),
        notable("qq.sim", 19, Some(56), None, None),
        notable("taobao.sim", 20, Some(63), None, None),
        notable("pinterest.sim", 21, Some(63), None, None),
        notable("mail-ru.sim", 25, Some(63), None, None),
        notable("yandex.sim", 28, Some(63), None, None),
        notable("netflix.sim", 31, Some(54), Some(59), Some(59)),
        notable("imgur.sim", 35, Some(63), None, None),
        notable("tmall-home.sim", 41, Some(63), None, None),
        notable("fc2.sim", 53, Some(18), Some(18), None),
        notable("pornhub.sim", 55, Some(29), None, None),
        // Table 3/4 headliners: prolonged key-exchange reuse.
        notable("whatsapp.sim", 74, None, None, Some(62)),
        notable("kayak.sim", 580, None, Some(13), None),
        notable("cookpad.sim", 730, None, Some(63), None),
    ];
    let keep = ((SECONDARY_NOTABLES.len() as f64 * scale * 50.0).round() as usize)
        .min(SECONDARY_NOTABLES.len());
    v.extend(SECONDARY_NOTABLES.iter().take(keep).cloned());
    // The eight yandex.[tld] siblings (each 63 days of STEK reuse),
    // thinned proportionally at small scales.
    let yandex_n = ((7.0 * scale * 50.0).round() as usize).clamp(1, 7);
    for (i, tld) in ["ua", "by", "kz", "com", "net", "tr", "uz"]
        .iter()
        .take(yandex_n)
        .enumerate()
    {
        v.push(notable(
            Box::leak(format!("yandex-{tld}.sim").into_boxed_str()),
            500 + i * 700,
            Some(63),
            None,
            None,
        ));
    }
    // 32 kayak.[tld] domains with 6–18 days of DHE reuse, thinned likewise.
    let kayak_n = ((31.0 * scale * 50.0).round() as usize).clamp(1, 31);
    for i in 0..kayak_n {
        v.push(notable(
            Box::leak(format!("kayak-{i:02}.sim").into_boxed_str()),
            5_000 + i * 250,
            None,
            Some(6 + (i as u64) % 13),
            None,
        ));
    }
    // The two 90-day-lifetime-hint curiosities.
    for name in ["fantabobworld.sim", "fantabobshow.sim"] {
        v.push(NotableDomain {
            name,
            rank: 450_000,
            stek_span_days: Some(63),
            dhe_span_days: None,
            ecdhe_span_days: None,
            ticket_hint: Some((90 * DAY) as u32),
        });
    }
    // Fastly-fronted civic domains get their names via the fastlane
    // operator; Google-style giants that rotate well:
    v.push(notable("twitter.sim", 8, None, None, None));
    v.push(notable("baidu.sim", 4, None, None, None));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total ppm consumed by named operators.
    fn total_operator_ppm() -> u64 {
        operators().iter().map(|o| o.ppm as u64).sum()
    }

    #[test]
    fn operator_table_is_sane() {
        let ops = operators();
        assert!(ops.len() >= 15);
        for op in &ops {
            assert!(op.ppm > 0, "{}", op.name);
            let cache_sum: u32 = op.cache_groups_ppm.iter().sum();
            assert!(cache_sum <= op.ppm, "{} cache groups exceed size", op.name);
            let stek_sum: u32 = op.stek_groups_ppm.iter().sum();
            assert!(stek_sum <= op.ppm, "{} stek groups exceed size", op.name);
            let dh_sum: u32 = op.dh_groups_ppm.iter().sum();
            assert!(dh_sum <= op.ppm, "{} dh groups exceed size", op.name);
        }
        // Totals stay well under a million, leaving room for the long tail.
        assert!(total_operator_ppm() < 200_000);
    }

    #[test]
    fn largest_groups_match_paper_ordering() {
        let ops = operators();
        let cirrus = ops.iter().find(|o| o.name == "cirrusflare").unwrap();
        let goggle = ops.iter().find(|o| o.name == "goggle").unwrap();
        assert!(cirrus.stek_groups_ppm[0] > goggle.stek_groups_ppm[0]);
        assert_eq!(cirrus.cache_groups_ppm[0], 30_163);
        assert_eq!(cirrus.stek_groups_ppm[0], 62_176);
    }

    #[test]
    fn notables_unique_names() {
        let n = notables(1.0);
        let mut names: Vec<&str> = n.iter().map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate notable names");
        assert!(before >= 70, "rich notable table ({before})");
        // Small scales thin the bulk families.
        let small = notables(0.003); // a 3,000-domain world
        assert!(small.len() < n.len());
        assert!(
            small.iter().any(|d| d.name == "yahoo.sim"),
            "headliners stay"
        );
    }

    #[test]
    fn notable_spans_in_study_range() {
        for d in notables(1.0) {
            for span in [d.stek_span_days, d.dhe_span_days, d.ecdhe_span_days]
                .into_iter()
                .flatten()
            {
                assert!(span >= 1 && span <= 63, "{}: span {span}", d.name);
            }
        }
    }
}
