//! Pre-built matchers for common entity types.
//!
//! The paper (§2.1, feature 1.2) plans to "expand the utility functions by
//! including pre-trained matchers for specific entity types (e.g., People,
//! Organization, Address, etc) [15], so that users can directly invoke
//! pre-trained matchers relevant to their EM task in their LFs". The
//! original intends transfer-learned models (Auto-EM); offline we provide
//! the deterministic equivalents: domain-aware comparison logic with the
//! normalisation conventions each entity type needs — here for phone
//! numbers and street addresses. Each constructor returns a
//! ready-to-register LF tagged [`LfProvenance::Builtin`].

use crate::builders::ClosureLf;
use crate::lf::{LabelingFunction, LfProvenance};
use crate::{BoxedLf, Label};
use std::sync::Arc;

/// Wrap a closure LF and tag it as a built-in matcher.
struct Builtin(ClosureLf);

impl LabelingFunction for Builtin {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn label(&self, pair: &panda_table::PairRef<'_>) -> Label {
        self.0.label(pair)
    }
    fn description(&self) -> String {
        self.0.description()
    }
    fn provenance(&self) -> LfProvenance {
        LfProvenance::Builtin
    }
}

// ---------------------------------------------------------------------------
// Phone numbers
// ---------------------------------------------------------------------------

/// Canonicalise a phone number: digits only, leading `1` country code
/// stripped from 11-digit numbers.
pub fn normalize_phone(text: &str) -> Option<String> {
    let digits: String = text.chars().filter(char::is_ascii_digit).collect();
    match digits.len() {
        0..=6 => None,
        11 if digits.starts_with('1') => Some(digits[1..].to_string()),
        _ => Some(digits),
    }
}

/// Phone matcher: normalised numbers equal → +1, different → −1, either
/// side unparseable → abstain. Phone equality is close to an identity key,
/// which is why this is such a strong LF on restaurant data.
pub fn phone_matcher(name: impl Into<String>, attr: &str) -> BoxedLf {
    let attr = attr.to_string();
    let desc = format!("builtin phone matcher on {attr}");
    Arc::new(Builtin(
        ClosureLf::new(name, move |pair| {
            match (
                normalize_phone(&pair.left.text(&attr)),
                normalize_phone(&pair.right.text(&attr)),
            ) {
                (Some(a), Some(b)) => Label::from_bool(a == b),
                _ => Label::Abstain,
            }
        })
        .with_description(desc),
    ))
}

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

/// Street-suffix synonym normalisation.
fn normalize_street_token(tok: &str) -> String {
    match tok {
        "street" | "str" => "st".into(),
        "avenue" | "av" => "ave".into(),
        "road" => "rd".into(),
        "boulevard" | "blv" => "blvd".into(),
        "drive" | "dr." => "dr".into(),
        "lane" => "ln".into(),
        "1st" => "first".into(),
        "2nd" => "second".into(),
        "3rd" => "third".into(),
        other => other.to_string(),
    }
}

/// Parse an address into `(street number, normalised street tokens)`.
pub fn parse_address(text: &str) -> (Option<u64>, Vec<String>) {
    let lower = text.to_lowercase();
    let mut number = None;
    let mut tokens = Vec::new();
    for raw in lower.split(|c: char| !c.is_alphanumeric()) {
        if raw.is_empty() {
            continue;
        }
        if number.is_none() {
            if let Ok(n) = raw.parse::<u64>() {
                number = Some(n);
                continue;
            }
        }
        tokens.push(normalize_street_token(raw));
    }
    (number, tokens)
}

/// Address matcher: street numbers must agree (strong signal) and street
/// tokens must overlap; disagreeing numbers vote −1.
pub fn address_matcher(name: impl Into<String>, attr: &str) -> BoxedLf {
    let attr = attr.to_string();
    let desc = format!("builtin address matcher on {attr}");
    Arc::new(Builtin(
        ClosureLf::new(name, move |pair| {
            let (na, ta) = parse_address(&pair.left.text(&attr));
            let (nb, tb) = parse_address(&pair.right.text(&attr));
            match (na, nb) {
                (Some(x), Some(y)) if x != y => Label::NonMatch,
                (Some(_), Some(_)) => {
                    if ta.is_empty() || tb.is_empty() {
                        return Label::Abstain;
                    }
                    let overlap = ta.iter().filter(|t| tb.contains(t)).count();
                    if overlap * 2 >= ta.len().min(tb.len()) {
                        Label::Match
                    } else {
                        Label::Abstain
                    }
                }
                _ => Label::Abstain,
            }
        })
        .with_description(desc),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_table::{CandidatePair, Schema, Table, TablePair};

    fn pairize(left_vals: Vec<&str>, right_vals: Vec<&str>, cols: &[&str]) -> TablePair {
        let schema = Schema::of_text(cols);
        let mut l = Table::new("l", schema.clone());
        let mut r = Table::new("r", schema);
        l.push(left_vals).unwrap();
        r.push(right_vals).unwrap();
        TablePair::new(l, r)
    }

    fn label_of(lf: &BoxedLf, tp: &TablePair) -> Label {
        lf.label(&tp.pair_ref(CandidatePair::new(0, 0)).unwrap())
    }

    #[test]
    fn phone_normalisation() {
        assert_eq!(normalize_phone("415-555-0199"), Some("4155550199".into()));
        assert_eq!(
            normalize_phone("1 (415) 555.0199"),
            Some("4155550199".into())
        );
        assert_eq!(normalize_phone("x123"), None);
    }

    #[test]
    fn phone_matcher_votes() {
        let lf = phone_matcher("phone_eq", "phone");
        let tp = pairize(vec!["415-555-0199"], vec!["(415) 555 0199"], &["phone"]);
        assert_eq!(label_of(&lf, &tp), Label::Match);
        let tp = pairize(vec!["415-555-0199"], vec!["415-555-0100"], &["phone"]);
        assert_eq!(label_of(&lf, &tp), Label::NonMatch);
        let tp = pairize(vec![""], vec!["415-555-0100"], &["phone"]);
        assert_eq!(label_of(&lf, &tp), Label::Abstain);
    }

    #[test]
    fn address_parsing_normalises_suffixes() {
        let (n, toks) = parse_address("123 Main Street");
        assert_eq!(n, Some(123));
        assert_eq!(toks, vec!["main", "st"]);
    }

    #[test]
    fn address_matcher_votes() {
        let lf = address_matcher("addr", "addr");
        let tp = pairize(vec!["123 Main Street"], vec!["123 main st."], &["addr"]);
        assert_eq!(label_of(&lf, &tp), Label::Match);
        let tp = pairize(vec!["123 Main St"], vec!["99 Main St"], &["addr"]);
        assert_eq!(label_of(&lf, &tp), Label::NonMatch);
        let tp = pairize(vec!["Main St"], vec!["123 Main St"], &["addr"]);
        assert_eq!(label_of(&lf, &tp), Label::Abstain);
    }
}
