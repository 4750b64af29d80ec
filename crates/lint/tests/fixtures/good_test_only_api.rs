// Each public function here has a production caller, is not part of the
// public API, or shares its name with another definition (the rule
// resolves names like the call graph: only a name defined once).
pub fn span_days(first: u64, last: u64) -> u64 {
    last - first + 1
}

pub fn longest(spans: &[(u64, u64)]) -> u64 {
    spans.iter().map(|&(f, l)| span_days(f, l)).max().unwrap_or(0)
}

fn report(spans: &[(u64, u64)]) -> String {
    format!("longest span: {} days", longest(spans))
}

pub(crate) fn only_tested() -> u64 {
    7
}

pub struct Ring;
pub struct Pool;

impl Ring {
    pub fn rotate(&self) {}
}

impl Pool {
    pub fn rotate(&self) {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn helper() {
        assert_eq!(super::only_tested(), 7);
    }
}
