//! Text processing for tweet analysis (the paper's "NLP techniques to
//! capture textual features present in tweet text").

use std::collections::HashMap;

/// Lower-cases and splits text into alphanumeric tokens.
fn tokenize(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(String::from)
        .collect()
}

/// A tf-idf vectorizer fitted over a corpus.
#[derive(Debug, Clone)]
pub struct TfIdf {
    vocabulary: HashMap<String, usize>,
    idf: Vec<f64>,
}

impl TfIdf {
    /// Fits vocabulary and inverse document frequencies on a corpus.
    ///
    /// # Panics
    ///
    /// Panics on an empty corpus.
    pub fn fit(corpus: &[&str]) -> Self {
        assert!(!corpus.is_empty(), "empty corpus");
        let mut vocabulary: HashMap<String, usize> = HashMap::new();
        let mut doc_freq: Vec<usize> = Vec::new();
        for doc in corpus {
            let mut seen: Vec<usize> = Vec::new();
            for token in tokenize(doc) {
                let next = vocabulary.len();
                let idx = *vocabulary.entry(token).or_insert(next);
                if idx == doc_freq.len() {
                    doc_freq.push(0);
                }
                if !seen.contains(&idx) {
                    seen.push(idx);
                    doc_freq[idx] += 1;
                }
            }
        }
        let n = corpus.len() as f64;
        let idf = doc_freq
            .iter()
            .map(|&df| ((1.0 + n) / (1.0 + df as f64)).ln() + 1.0)
            .collect();
        TfIdf { vocabulary, idf }
    }

    /// Embeds a document as a dense tf-idf vector over the fitted
    /// vocabulary (out-of-vocabulary tokens ignored).
    pub fn transform(&self, text: &str) -> Vec<f64> {
        let mut vec = vec![0.0; self.vocabulary.len()];
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return vec;
        }
        for t in &tokens {
            if let Some(&idx) = self.vocabulary.get(t) {
                vec[idx] += 1.0;
            }
        }
        let len = tokens.len() as f64;
        for (i, v) in vec.iter_mut().enumerate() {
            *v = (*v / len) * self.idf[i];
        }
        vec
    }

    /// Cosine similarity between two documents under this vectorizer.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        let va = self.transform(a);
        let vb = self.transform(b);
        let dot: f64 = va.iter().zip(&vb).map(|(x, y)| x * y).sum();
        let na: f64 = va.iter().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = vb.iter().map(|x| x * x).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }
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
    fn tfidf_downweights_common_words() {
        let corpus = ["the cat", "the dog", "the bird", "rare pangolin"];
        let model = TfIdf::fit(&corpus);
        let v = model.transform("the pangolin");
        let the_idx = *model.vocabulary.get("the").unwrap();
        let pangolin_idx = *model.vocabulary.get("pangolin").unwrap();
        assert!(v[pangolin_idx] > v[the_idx], "rare words weigh more");
    }

    #[test]
    fn similarity_bounds_and_identity() {
        let corpus = ["beef on the block", "lunch by the river", "smoke and ride"];
        let model = TfIdf::fit(&corpus);
        let s = model.similarity("beef on the block", "beef on the block");
        assert!((s - 1.0).abs() < 1e-9);
        let d = model.similarity("beef on the block", "lunch by the river");
        assert!((0.0..1.0).contains(&d));
        assert!(d < s);
    }

    #[test]
    fn oov_text_is_zero_vector() {
        let model = TfIdf::fit(&["known words"]);
        let v = model.transform("completely different");
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(model.similarity("known", "different"), 0.0);
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
