//! IPv4 addresses and autonomous systems.
//!
//! The §5.1 cross-domain probing experiment samples candidate sibling
//! domains "from each AS" and "that shared its IP address", so the address
//! plan must expose both groupings. An [`AsPlan`] hands out /16-sized AS
//! blocks and sequential addresses within them.

use std::collections::HashMap;

/// An IPv4 address (value type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ip(pub u32);

/// An autonomous-system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

/// Allocates AS blocks and addresses within them.
///
/// Each AS gets a /16 (65,536 addresses) starting from 10.0.0.0-space —
/// fictional but structurally faithful.
#[derive(Debug, Default)]
pub struct AsPlan {
    next_as_index: u32,
    next_host: HashMap<AsId, u32>,
    as_of_ip: HashMap<u32, AsId>, // keyed by /16 prefix
}

impl AsPlan {
    /// Fresh plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new AS.
    pub fn new_as(&mut self) -> AsId {
        let id = AsId(64_000 + self.next_as_index);
        let prefix = self.block_prefix(self.next_as_index);
        self.as_of_ip.insert(prefix, id);
        self.next_as_index += 1;
        self.next_host.insert(id, 1);
        id
    }

    fn block_prefix(&self, index: u32) -> u32 {
        // 10.0.0.0/8 carved into /16s: 10.x.0.0, then 11.x.0.0, ...
        let major = 10 + (index >> 8);
        let minor = index & 0xff;
        (major << 24 | minor << 16) >> 16
    }

    fn index_of(&self, as_id: AsId) -> u32 {
        as_id.0 - 64_000
    }

    /// Allocate the next address inside `as_id`. Panics on unknown AS or
    /// block exhaustion.
    pub fn new_ip(&mut self, as_id: AsId) -> Ip {
        let prefix = self.block_prefix(self.index_of(as_id));
        let host = self.next_host.get_mut(&as_id).expect("unknown AS");
        assert!(*host < 0xffff, "AS block exhausted");
        let ip = Ip((prefix << 16) | *host);
        *host += 1;
        ip
    }

    /// Which AS owns `ip`, if the plan allocated it.
    pub fn as_of(&self, ip: Ip) -> Option<AsId> {
        self.as_of_ip.get(&(ip.0 >> 16)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_allocation_and_lookup() {
        let mut plan = AsPlan::new();
        let a = plan.new_as();
        let b = plan.new_as();
        assert_ne!(a, b);
        let ip_a1 = plan.new_ip(a);
        let ip_a2 = plan.new_ip(a);
        let ip_b1 = plan.new_ip(b);
        assert_ne!(ip_a1, ip_a2);
        assert_eq!(plan.as_of(ip_a1), Some(a));
        assert_eq!(plan.as_of(ip_a2), Some(a));
        assert_eq!(plan.as_of(ip_b1), Some(b));
        assert_eq!(plan.as_of(Ip(0x01020304)), None);
    }

    #[test]
    fn ips_within_as_share_a_16() {
        let mut plan = AsPlan::new();
        let a = plan.new_as();
        let i1 = plan.new_ip(a);
        let i2 = plan.new_ip(a);
        assert_eq!(i1.0 >> 16, i2.0 >> 16);
    }

    #[test]
    fn many_ases_stay_distinct() {
        let mut plan = AsPlan::new();
        let ases: Vec<AsId> = (0..600).map(|_| plan.new_as()).collect();
        let mut prefixes = std::collections::HashSet::new();
        for &a in &ases {
            let ip = plan.new_ip(a);
            assert!(prefixes.insert(ip.0 >> 16), "prefix collision for {a:?}");
            assert_eq!(plan.as_of(ip), Some(a));
        }
    }
}
