//! Text processing for tweet analysis (the paper's "NLP techniques to
//! capture textual features present in tweet text").

/// Lower-cases and splits text into alphanumeric tokens.
fn tokenize(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(String::from)
        .collect()
}

/// Scores text by the fraction of its tokens that are risk keywords
/// (violence-correlated vocabulary). Returns a value in `[0, 1]`.
pub fn risk_score(text: &str, risk_words: &[&str]) -> f64 {
    let tokens = tokenize(text);
    if tokens.is_empty() {
        return 0.0;
    }
    let hits = tokens
        .iter()
        .filter(|t| risk_words.iter().any(|r| r == t))
        .count();
    hits as f64 / tokens.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits_on_punctuation() {
        assert_eq!(
            tokenize("Beef on the BLOCK!"),
            ["beef", "on", "the", "block"]
        );
    }

    #[test]
    fn tokenize_strips_punctuation() {
        assert_eq!(tokenize("Hello, world!"), vec!["hello", "world"]);
        assert!(tokenize("...").is_empty());
        assert_eq!(tokenize("a1 b2"), vec!["a1", "b2"]);
    }

    #[test]
    fn risk_score_fractions() {
        let risk = ["beef", "strap"];
        assert_eq!(risk_score("beef strap", &risk), 1.0);
        assert_eq!(risk_score("beef and lunch today", &risk), 0.25);
        assert_eq!(risk_score("sunny day", &risk), 0.0);
        assert_eq!(risk_score("", &risk), 0.0);
    }
}
