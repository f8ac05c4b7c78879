//! Enumeration of set partitions in canonical (restricted-growth)
//! form, used to enumerate the equality types of the start atom of a
//! caterpillar (the pairs `(e₀, Π₀)` of Appendix D.2).

/// Enumerates all partitions of `{0, ..., n-1}` as restricted-growth
/// strings: vectors `v` with `v[0] = 0` and
/// `v[i] ≤ max(v[0..i]) + 1`. The number of results is the Bell
/// number `B(n)`.
pub fn set_partitions(n: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    if n == 0 {
        out.push(Vec::new());
        return out;
    }
    let mut current = vec![0u8; n];
    fn rec(current: &mut Vec<u8>, i: usize, max_used: u8, out: &mut Vec<Vec<u8>>) {
        if i == current.len() {
            out.push(current.clone());
            return;
        }
        for c in 0..=max_used.saturating_add(1) {
            current[i] = c;
            rec(current, i + 1, max_used.max(c), out);
        }
    }
    // v[0] is fixed to 0.
    rec(&mut current, 1, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_bell_numbers() {
        // B(0..=6).
        let bell = [1, 1, 2, 5, 15, 52, 203];
        for (n, &b) in bell.iter().enumerate() {
            assert_eq!(set_partitions(n).len(), b, "n = {n}");
        }
    }

    #[test]
    fn partitions_are_canonical() {
        for p in set_partitions(5) {
            assert_eq!(p[0], 0);
            let mut max = 0u8;
            for &c in &p {
                assert!(c <= max + 1);
                max = max.max(c);
            }
        }
    }

    #[test]
    fn n2_partitions() {
        let ps = set_partitions(2);
        assert_eq!(ps, vec![vec![0, 0], vec![0, 1]]);
    }
}
