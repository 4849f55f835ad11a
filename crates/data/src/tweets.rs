//! Synthetic tweet streams (paper §II-A2, §IV-B).
//!
//! Stands in for the Twitter API collection: tweets carry an author, text
//! built from topic vocabularies, a timestamp, and geo coordinates. Authors
//! can be flagged as criminal/gang affiliates whose tweets near incident
//! times/locations contain elevated risk vocabulary — the exact signal the
//! §IV-B multi-modal narrowing application triangulates.

use scgeo::GeoPoint;
use simclock::{SeededRng, SimTime};

/// A tweet record.
#[derive(Debug, Clone, PartialEq)]
pub struct Tweet {
    /// Unique id.
    pub id: u64,
    /// Author handle.
    pub user: String,
    /// Tweet text.
    pub text: String,
    /// Post time.
    pub time: SimTime,
    /// Geotag (the generator always geotags; sampling-rate realism is the
    /// consumer's concern).
    pub location: GeoPoint,
}

const BENIGN_WORDS: &[&str] = &[
    "game", "lunch", "traffic", "weather", "music", "school", "work", "weekend", "tiger", "river",
    "festival", "crawfish", "coffee", "rain",
];

/// Vocabulary correlated with violent incidents — what the paper's NLP
/// module ("capture textual features present in tweet text at given times
/// and locations associated with violent criminal incidents") keys on.
pub const RISK_WORDS: &[&str] = &[
    "beef", "strap", "slide", "opps", "smoke", "ride", "caught", "lacking", "spin", "block",
];

/// Generator of tweet streams.
///
/// # Examples
///
/// ```
/// use scdata::tweets::TweetGenerator;
/// use scgeo::GeoPoint;
/// use simclock::SimTime;
///
/// let mut gen = TweetGenerator::new(7);
/// let t = gen.benign("citizen_1", GeoPoint::new(30.45, -91.18), SimTime::from_secs(100));
/// assert_eq!(t.user, "citizen_1");
/// ```
#[derive(Debug)]
pub struct TweetGenerator {
    rng: SeededRng,
    next_id: u64,
}

impl TweetGenerator {
    /// Creates a generator.
    pub fn new(seed: u64) -> Self {
        TweetGenerator {
            rng: SeededRng::new(seed),
            next_id: 0,
        }
    }

    fn compose(&mut self, vocab: &[&str], words: usize) -> String {
        (0..words)
            .map(|_| *self.rng.choose(vocab).expect("non-empty vocab"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// An everyday tweet with benign vocabulary.
    pub fn benign(&mut self, user: &str, location: GeoPoint, time: SimTime) -> Tweet {
        let words = 4 + self.rng.index(5);
        let text = self.compose(BENIGN_WORDS, words);
        Tweet {
            id: self.next_id(),
            user: user.to_string(),
            text,
            time,
            location,
        }
    }

    /// A tweet with elevated risk vocabulary (affiliate chatter around an
    /// incident).
    pub fn risky(&mut self, user: &str, location: GeoPoint, time: SimTime) -> Tweet {
        let mut words: Vec<&str> = Vec::new();
        for _ in 0..3 {
            words.push(self.rng.choose(RISK_WORDS).expect("non-empty"));
        }
        for _ in 0..3 {
            words.push(self.rng.choose(BENIGN_WORDS).expect("non-empty"));
        }
        self.rng.shuffle(&mut words);
        Tweet {
            id: self.next_id(),
            user: user.to_string(),
            text: words.join(" "),
            time,
            location,
        }
    }

    /// A tweet near an incident in both space and time: position jittered
    /// within `radius_m` of `center`, time jittered within `window_us` of
    /// `incident_time`, risky vocabulary.
    pub fn near_incident(
        &mut self,
        user: &str,
        center: GeoPoint,
        radius_m: f64,
        incident_time: SimTime,
        window_us: u64,
    ) -> Tweet {
        let dn = self.rng.range_f64(-radius_m, radius_m) * 0.7;
        let de = self.rng.range_f64(-radius_m, radius_m) * 0.7;
        let dt = self.rng.range_u64(0, (2 * window_us).max(1));
        let time = SimTime::from_micros(incident_time.as_micros().saturating_sub(window_us) + dt);
        self.risky(user, center.offset_m(dn, de), time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn br() -> GeoPoint {
        GeoPoint::new(30.45, -91.18)
    }

    /// Whether the text contains `keyword`, in any case.
    fn contains_keyword(t: &Tweet, keyword: &str) -> bool {
        t.text.to_lowercase().contains(&keyword.to_lowercase())
    }

    #[test]
    fn ids_are_unique() {
        let mut g = TweetGenerator::new(1);
        let a = g.benign("u", br(), SimTime::ZERO);
        let b = g.benign("u", br(), SimTime::ZERO);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn benign_avoids_risk_words_mostly() {
        let mut g = TweetGenerator::new(2);
        let t = g.benign("u", br(), SimTime::ZERO);
        let risk_hits = RISK_WORDS
            .iter()
            .filter(|w| contains_keyword(&t, w))
            .count();
        assert_eq!(risk_hits, 0, "benign vocab only: {}", t.text);
    }

    #[test]
    fn risky_contains_risk_words() {
        let mut g = TweetGenerator::new(3);
        let t = g.risky("u", br(), SimTime::ZERO);
        let risk_hits = RISK_WORDS
            .iter()
            .filter(|w| contains_keyword(&t, w))
            .count();
        assert!(risk_hits >= 1, "{}", t.text);
    }

    #[test]
    fn near_incident_within_bounds() {
        let mut g = TweetGenerator::new(4);
        let center = br();
        let when = SimTime::from_secs(1000);
        for _ in 0..50 {
            let t = g.near_incident("u", center, 500.0, when, 60_000_000);
            assert!(center.haversine_m(t.location) <= 550.0);
            let dt = t.time.as_micros().abs_diff(when.as_micros());
            assert!(dt <= 60_000_000 + 1);
        }
    }

    #[test]
    fn keyword_search_case_insensitive() {
        let t = Tweet {
            id: 0,
            user: "u".into(),
            text: "Traffic on I-10".into(),
            time: SimTime::ZERO,
            location: br(),
        };
        assert!(contains_keyword(&t, "TRAFFIC"));
        assert!(!contains_keyword(&t, "flood"));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TweetGenerator::new(5).risky("u", br(), SimTime::ZERO);
        let b = TweetGenerator::new(5).risky("u", br(), SimTime::ZERO);
        assert_eq!(a, b);
    }
}
