//! Service groups (§5, Tables 5–7): labelling, ordering and statistics.
//!
//! Three evidence sources, one output shape, all closed transitively by
//! [`GroupAcc`](crate::stream::GroupAcc):
//! * **shared STEK identifiers** — domains presenting the same key_name;
//! * **shared key-exchange values** — domains presenting the same DH/ECDH
//!   public value;
//! * **cross-domain resumption** — session IDs from one domain accepted by
//!   another.
//!
//! Groups are labelled by the longest common domain-name prefix of their
//! members (standing in for the paper's manual operator identification).

/// A service group: domains sharing server-side TLS secret state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceGroup {
    /// Inferred operator label.
    pub label: String,
    /// Sorted member domains.
    pub members: Vec<String>,
}

impl ServiceGroup {
    /// Member count.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// Summary statistics over a set of service groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupStats {
    /// Total number of groups.
    pub group_count: usize,
    /// Groups with exactly one member.
    pub singleton_count: usize,
    /// Domains covered by any group.
    pub domain_count: usize,
    /// Domains in groups of size ≥ 2.
    pub shared_domain_count: usize,
}

/// Label and order raw member sets into [`ServiceGroup`]s. Input sets
/// must already be (size desc, first member) ordered, as
/// [`GroupAcc::groups`](crate::stream::GroupAcc::groups) produces them:
/// the stable sort below only reorders across label ties, so the source
/// order is the final tiebreak.
pub(crate) fn finalize_groups(groups: Vec<Vec<String>>) -> Vec<ServiceGroup> {
    let mut out: Vec<ServiceGroup> = groups
        .into_iter()
        .map(|members| ServiceGroup {
            label: infer_label(&members),
            members,
        })
        .collect();
    out.sort_by(|a, b| b.size().cmp(&a.size()).then(a.label.cmp(&b.label)));
    out
}

/// Aggregate statistics.
pub fn stats(groups: &[ServiceGroup]) -> GroupStats {
    let group_count = groups.len();
    let singleton_count = groups.iter().filter(|g| g.size() == 1).count();
    let domain_count = groups.iter().map(|g| g.size()).sum();
    let shared_domain_count = groups
        .iter()
        .filter(|g| g.size() >= 2)
        .map(|g| g.size())
        .sum();
    GroupStats {
        group_count,
        singleton_count,
        domain_count,
        shared_domain_count,
    }
}

/// Label a group by its members' longest common name prefix (trimmed at a
/// word boundary), falling back to the first member.
pub fn infer_label(members: &[String]) -> String {
    match members {
        [] => String::new(),
        [only] => only.clone(),
        _ => {
            let first = &members[0];
            let mut len = first.len();
            for m in &members[1..] {
                len = len.min(common_prefix_len(first, m));
            }
            let prefix = &first[..len];
            let trimmed =
                prefix.trim_end_matches(|c: char| c == '-' || c == '.' || c.is_ascii_digit());
            if trimmed.len() >= 3 {
                trimmed.to_string()
            } else {
                members[0].clone()
            }
        }
    }
}

fn common_prefix_len(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
}

/// The top-`k` groups by size — the shape of Tables 5, 6 and 7.
pub fn top_groups(groups: &[ServiceGroup], k: usize) -> Vec<(String, usize)> {
    groups
        .iter()
        .take(k)
        .map(|g| (g.label.clone(), g.size()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::GroupAcc;

    fn shared_id_groups(pairs: &[(&str, &str)]) -> Vec<ServiceGroup> {
        let mut acc = GroupAcc::exact();
        for &(domain, id) in pairs {
            acc.record(domain, id, 0);
        }
        acc.service_groups()
    }

    #[test]
    fn stats_over_shared_id_groups() {
        let groups = shared_id_groups(&[
            ("cdn-a.sim", "key1"),
            ("cdn-b.sim", "key1"),
            ("cdn-c.sim", "key2"),
            ("cdn-b.sim", "key2"), // b bridges key1 and key2
            ("lonely.sim", "key9"),
        ]);
        assert_eq!(groups[0].size(), 3, "transitive closure via b");
        assert_eq!(groups[1].size(), 1);
        let s = stats(&groups);
        assert_eq!(s.group_count, 2);
        assert_eq!(s.singleton_count, 1);
        assert_eq!(s.domain_count, 4);
        assert_eq!(s.shared_domain_count, 3);
    }

    #[test]
    fn label_inference() {
        assert_eq!(
            infer_label(&vec![
                "cirrusflare-c00001.sim".into(),
                "cirrusflare-c00002.sim".into()
            ]),
            "cirrusflare-c"
        );
        assert_eq!(infer_label(&vec!["solo.sim".into()]), "solo.sim");
        // No meaningful common prefix → first member.
        assert_eq!(
            infer_label(&vec!["alpha.sim".into(), "zeta.sim".into()]),
            "alpha.sim"
        );
        assert_eq!(infer_label(&[]), "");
    }

    #[test]
    fn top_groups_shape() {
        let groups = shared_id_groups(&[
            ("big-1.sim", "k"),
            ("big-2.sim", "k"),
            ("big-3.sim", "k"),
            ("duo-1.sim", "j"),
            ("duo-2.sim", "j"),
            ("solo.sim", "z"),
        ]);
        let top = top_groups(&groups, 2);
        assert_eq!(top, vec![("big".to_string(), 3), ("duo".to_string(), 2)]);
    }
}
