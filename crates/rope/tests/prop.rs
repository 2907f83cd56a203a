//! Property-based tests for the rope invariants the evaluators rely on.

use paragram_rope::Rope;
use proptest::prelude::*;

fn rope_strategy() -> impl Strategy<Value = (Rope, String)> {
    // Build a rope from a sequence of concat operations and track the
    // reference string alongside.
    prop::collection::vec("[a-z0-9\n]{0,12}", 0..24).prop_map(|parts| {
        let mut rope = Rope::new();
        let mut s = String::new();
        for p in parts {
            rope.push_str(&p);
            s.push_str(&p);
        }
        (rope, s)
    })
}

proptest! {
    #[test]
    fn rope_matches_reference_string((rope, s) in rope_strategy()) {
        prop_assert_eq!(rope.to_string(), s.clone());
        prop_assert_eq!(rope.len(), s.len());
        prop_assert_eq!(rope.is_empty(), s.is_empty());
        prop_assert_eq!(rope.newline_count(), s.bytes().filter(|&b| b == b'\n').count());
    }

    #[test]
    fn concat_associativity((a, sa) in rope_strategy(),
                            (b, sb) in rope_strategy(),
                            (c, sc) in rope_strategy()) {
        let left = a.concat(&b).concat(&c);
        let right = a.concat(&b.concat(&c));
        prop_assert_eq!(left.clone(), right);
        prop_assert_eq!(left.to_string(), format!("{sa}{sb}{sc}"));
    }

    #[test]
    fn rebalance_is_content_preserving((rope, s) in rope_strategy()) {
        let balanced = rope.rebalance();
        prop_assert_eq!(balanced.to_string(), s);
        prop_assert!(balanced.depth() <= rope.depth().max(2));
    }

    #[test]
    fn byte_at_agrees_with_string((rope, s) in rope_strategy()) {
        for (i, b) in s.bytes().enumerate() {
            prop_assert_eq!(rope.byte_at(i), Some(b));
        }
        prop_assert_eq!(rope.byte_at(s.len()), None);
    }

    #[test]
    fn lines_agree_with_str_lines((rope, s) in rope_strategy()) {
        let got: Vec<String> = rope.lines().collect();
        let want: Vec<String> = s.lines().map(str::to_owned).collect();
        prop_assert_eq!(got, want);
    }
}
