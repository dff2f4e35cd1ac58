//! Tokenizers (axis 2 of the utility library).

use serde::{Deserialize, Serialize};

/// A tokenization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tokenizer {
    /// Split on runs of whitespace.
    Whitespace,
    /// Split on runs of non-alphanumeric characters (so `"wi-fi"` →
    /// `["wi", "fi"]`).
    Alnum,
    /// Character q-grams of the given width over the padded string
    /// (`QGram(3)` on `"tv"` → `"##tv##"` 3-grams). Padding makes short
    /// strings comparable and weights boundaries.
    QGram(usize),
    /// Sliding word n-grams over whitespace tokens (`WordNGram(2)` on
    /// `"sony bravia tv"` → `["sony bravia", "bravia tv"]`).
    WordNGram(usize),
}

impl Tokenizer {
    /// Tokenize `input`. Never returns empty *tokens*; may return an empty
    /// *vector* for empty/degenerate input.
    pub fn tokens(&self, input: &str) -> Vec<String> {
        let mut buf = String::new();
        self.token_strs(input, &mut buf)
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// [`Tokenizer::tokens`] without a `String` per token: the tokens are
    /// slices of `input` (word tokens) or of `buf`, which q-grams and word
    /// n-grams fill with the text they slice.
    pub fn token_strs<'a>(&self, input: &'a str, buf: &'a mut String) -> Vec<&'a str> {
        match self {
            Tokenizer::Whitespace => input.split_whitespace().collect(),
            Tokenizer::Alnum => input
                .split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .collect(),
            Tokenizer::QGram(q) => qgrams(input, *q, buf),
            Tokenizer::WordNGram(n) => {
                let words: Vec<&str> = input.split_whitespace().collect();
                let n = (*n).max(1);
                // Shorter inputs yield the whole string as one token so
                // that "sony" vs "sony" still overlaps under WordNGram(2).
                let grams: Vec<&[&str]> = match words.len() {
                    0 => vec![],
                    len if len < n => vec![&words[..]],
                    _ => words.windows(n).collect(),
                };
                buf.clear();
                let mut ends = Vec::with_capacity(grams.len());
                for gram in grams {
                    for (k, w) in gram.iter().enumerate() {
                        if k > 0 {
                            buf.push(' ');
                        }
                        buf.push_str(w);
                    }
                    ends.push(buf.len());
                }
                let text: &'a str = buf;
                let starts = std::iter::once(0).chain(ends.iter().copied());
                starts.zip(&ends).map(|(a, &b)| &text[a..b]).collect()
            }
        }
    }

    /// Short stable name used in auto-generated LF descriptions.
    pub fn name(&self) -> String {
        match self {
            Tokenizer::Whitespace => "space".to_string(),
            Tokenizer::Alnum => "alnum".to_string(),
            Tokenizer::QGram(q) => format!("{q}gram"),
            Tokenizer::WordNGram(n) => format!("word{n}gram"),
        }
    }
}

/// Character q-grams over `#`-padded input, as slices of the padded text
/// written to `buf`. Empty input → no grams.
fn qgrams<'a>(input: &str, q: usize, buf: &'a mut String) -> Vec<&'a str> {
    let q = q.max(1);
    if input.is_empty() {
        return vec![];
    }
    buf.clear();
    buf.extend(std::iter::repeat_n('#', q - 1));
    buf.push_str(input);
    buf.extend(std::iter::repeat_n('#', q - 1));
    let text: &'a str = buf;
    // Byte offset of every char plus the end: gram k spans chars k..k+q.
    // Non-empty input padded by q-1 on each side has at least q chars.
    let bounds: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(text.len()))
        .collect();
    bounds.windows(q + 1).map(|w| &text[w[0]..w[q]]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_tokens() {
        assert_eq!(
            Tokenizer::Whitespace.tokens("sony  bravia tv"),
            vec!["sony", "bravia", "tv"]
        );
        assert!(Tokenizer::Whitespace.tokens("   ").is_empty());
    }

    #[test]
    fn alnum_splits_punctuation() {
        assert_eq!(
            Tokenizer::Alnum.tokens("wi-fi (2.4GHz)"),
            vec!["wi", "fi", "2", "4GHz"]
        );
    }

    #[test]
    fn qgrams_padded() {
        let grams = Tokenizer::QGram(3).tokens("tv");
        assert_eq!(grams, vec!["##t", "#tv", "tv#", "v##"]);
        assert!(Tokenizer::QGram(3).tokens("").is_empty());
    }

    #[test]
    fn qgram_width_one_is_chars() {
        assert_eq!(Tokenizer::QGram(1).tokens("abc"), vec!["a", "b", "c"]);
    }

    #[test]
    fn word_ngrams() {
        assert_eq!(
            Tokenizer::WordNGram(2).tokens("sony bravia tv"),
            vec!["sony bravia", "bravia tv"]
        );
        // Shorter than n: whole string.
        assert_eq!(Tokenizer::WordNGram(2).tokens("sony"), vec!["sony"]);
        assert!(Tokenizer::WordNGram(2).tokens("").is_empty());
    }

    /// The tokenizer before tokens became slices, kept as an oracle.
    fn oracle_tokens(tok: Tokenizer, input: &str) -> Vec<String> {
        match tok {
            Tokenizer::Whitespace => input.split_whitespace().map(str::to_string).collect(),
            Tokenizer::Alnum => input
                .split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(str::to_string)
                .collect(),
            Tokenizer::QGram(q) => {
                let q = q.max(1);
                if input.is_empty() {
                    return vec![];
                }
                let mut padded: Vec<char> = vec!['#'; q - 1];
                padded.extend(input.chars());
                padded.extend(std::iter::repeat_n('#', q - 1));
                if padded.len() < q {
                    return vec![padded.iter().collect()];
                }
                padded.windows(q).map(|w| w.iter().collect()).collect()
            }
            Tokenizer::WordNGram(n) => {
                let words: Vec<&str> = input.split_whitespace().collect();
                let n = n.max(1);
                if words.len() < n {
                    return if words.is_empty() {
                        vec![]
                    } else {
                        vec![words.join(" ")]
                    };
                }
                words.windows(n).map(|w| w.join(" ")).collect()
            }
        }
    }

    proptest::proptest! {
        /// Slice tokens equal the owned tokens of the pre-slice tokenizer,
        /// for every tokenizer, on ASCII, punctuation and multi-byte input.
        #[test]
        fn token_strs_match_oracle(input in "[ab é本#.-]{0,16}", k in 0usize..8) {
            let tok = [
                Tokenizer::Whitespace,
                Tokenizer::Alnum,
                Tokenizer::QGram(1),
                Tokenizer::QGram(2),
                Tokenizer::QGram(3),
                Tokenizer::WordNGram(1),
                Tokenizer::WordNGram(2),
                Tokenizer::WordNGram(3),
            ][k];
            let mut buf = String::from("stale");
            let want = oracle_tokens(tok, &input);
            proptest::prop_assert_eq!(tok.token_strs(&input, &mut buf), want.clone());
            proptest::prop_assert_eq!(tok.tokens(&input), want);
        }
    }

    #[test]
    fn unicode_qgrams_are_char_based() {
        let grams = Tokenizer::QGram(2).tokens("éa");
        assert_eq!(grams, vec!["#é", "éa", "a#"]);
    }
}
