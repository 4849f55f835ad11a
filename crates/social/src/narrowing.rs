//! Multi-modal persons-of-interest narrowing (§IV-B).
//!
//! The paper: *"By combining the expansive field of second-degree associates
//! with geo-targeted tweets during the time frame of a violent incident, the
//! field of associates may be strategically narrowed to known associates who
//! might have been in the location of a criminal incident at the time of the
//! event."* [`Narrower::narrow`] implements exactly that layering: graph
//! expansion × geofence × time window × risk-vocabulary score.

use scdata::tweets::{Tweet, RISK_WORDS};
use scgeo::{GeoPoint, Geofence};
use simclock::{SimDuration, SimTime};

use crate::generator::GangNetwork;
use crate::graph::PersonId;
use crate::nlp::risk_score;

/// A violent incident to investigate.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Where it happened.
    pub location: GeoPoint,
    /// When it happened.
    pub time: SimTime,
    /// A person known to be involved (victim or suspect) — the seed of the
    /// graph expansion.
    pub seed_person: PersonId,
}

/// Tunable thresholds for the narrowing filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NarrowingConfig {
    /// Geofence radius around the incident in meters.
    pub radius_m: f64,
    /// Half-width of the time window around the incident.
    pub window: SimDuration,
}

/// Minimum risk-vocabulary score for a tweet to count.
const MIN_RISK_SCORE: f64 = 0.15;

impl Default for NarrowingConfig {
    fn default() -> Self {
        NarrowingConfig {
            radius_m: 1_500.0,
            window: SimDuration::from_secs(2 * 3600),
        }
    }
}

/// Result of one narrowing run.
#[derive(Debug, Clone, PartialEq)]
pub struct NarrowingReport {
    /// First-degree associates of the seed.
    pub first_degree: usize,
    /// Second-degree affiliates (the "field of interest").
    pub field_of_interest: usize,
    /// Persons of interest after the multi-modal filter.
    pub persons_of_interest: Vec<PersonId>,
    /// `field_of_interest / persons_of_interest` (∞-safe: 0 when empty).
    pub reduction_factor: f64,
}

/// The narrowing engine: binds a gang network to a tweet corpus (tweets must
/// carry `user` handles of the form produced by [`person_handle`]).
#[derive(Debug)]
pub struct Narrower<'a> {
    network: &'a GangNetwork,
    tweets: &'a [Tweet],
    config: NarrowingConfig,
}

/// The Twitter handle associated with a person id ("we identify the Twitter
/// IDs of the first- and second-degree associates").
pub fn person_handle(p: PersonId) -> String {
    format!("user_{:05}", p.0)
}

impl<'a> Narrower<'a> {
    /// Creates a narrower over a network and corpus.
    pub fn new(network: &'a GangNetwork, tweets: &'a [Tweet], config: NarrowingConfig) -> Self {
        Narrower {
            network,
            tweets,
            config,
        }
    }

    /// Whether a tweet falls inside the incident's space-time-risk envelope.
    fn tweet_matches(&self, tweet: &Tweet, incident: &Incident) -> bool {
        let fence = Geofence::circle(incident.location, self.config.radius_m);
        if !fence.contains(tweet.location) {
            return false;
        }
        let dt = tweet.time.as_micros().abs_diff(incident.time.as_micros());
        if dt > self.config.window.as_micros() {
            return false;
        }
        risk_score(&tweet.text, RISK_WORDS) >= MIN_RISK_SCORE
    }

    /// Runs the full §IV-B pipeline for one incident.
    pub fn narrow(&self, incident: &Incident) -> NarrowingReport {
        let graph = self.network.graph();
        let first = graph.first_degree(incident.seed_person);
        let field = graph.second_degree(incident.seed_person);

        // Candidate set: first- + second-degree associates.
        let mut candidates = first.clone();
        candidates.extend(&field);

        let mut poi: Vec<PersonId> = candidates
            .iter()
            .copied()
            .filter(|&p| {
                let handle = person_handle(p);
                self.tweets
                    .iter()
                    .any(|t| t.user == handle && self.tweet_matches(t, incident))
            })
            .collect();
        poi.sort_unstable();
        poi.dedup();

        let field_size = field.len();
        NarrowingReport {
            first_degree: first.len(),
            field_of_interest: field_size,
            reduction_factor: if poi.is_empty() {
                0.0
            } else {
                field_size as f64 / poi.len() as f64
            },
            persons_of_interest: poi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GangNetworkGenerator;
    use scdata::tweets::TweetGenerator;

    fn incident_at(net: &GangNetwork) -> Incident {
        Incident {
            location: GeoPoint::new(30.45, -91.18),
            time: SimTime::from_secs(10_000),
            seed_person: net.members()[0],
        }
    }

    /// Builds a corpus in which `guilty` associates tweeted riskily near the
    /// incident and everyone else tweeted benignly elsewhere/elsewhen.
    fn corpus(net: &GangNetwork, incident: &Incident, guilty: &[PersonId]) -> Vec<Tweet> {
        let mut gen = TweetGenerator::new(9);
        let mut tweets = Vec::new();
        for &g in guilty {
            tweets.push(gen.near_incident(
                &person_handle(g),
                incident.location,
                500.0,
                incident.time,
                30 * 60 * 1_000_000,
            ));
        }
        // Distractors: second-degree associates tweeting far away / long ago.
        let far = GeoPoint::new(30.60, -91.00);
        for &p in net
            .graph()
            .second_degree(incident.seed_person)
            .iter()
            .take(50)
        {
            tweets.push(gen.benign(&person_handle(p), far, SimTime::from_secs(500_000)));
        }
        tweets
    }

    #[test]
    fn narrows_to_guilty_associates() {
        let net = GangNetworkGenerator::baton_rouge(10).generate();
        let incident = incident_at(&net);
        // Pick three true second-degree associates as "guilty".
        let field = net.graph().second_degree(incident.seed_person);
        assert!(field.len() >= 3, "field {}", field.len());
        let guilty = [field[0], field[1], field[2]];
        let tweets = corpus(&net, &incident, &guilty);
        let narrower = Narrower::new(&net, &tweets, NarrowingConfig::default());
        let report = narrower.narrow(&incident);
        assert_eq!(report.persons_of_interest, {
            let mut g = guilty.to_vec();
            g.sort_unstable();
            g
        });
        assert!(
            report.reduction_factor > 10.0,
            "factor {}",
            report.reduction_factor
        );
    }

    #[test]
    fn field_matches_graph_second_degree() {
        let net = GangNetworkGenerator::baton_rouge(11).generate();
        let incident = incident_at(&net);
        let narrower = Narrower::new(&net, &[], NarrowingConfig::default());
        let report = narrower.narrow(&incident);
        assert_eq!(
            report.field_of_interest,
            net.graph().second_degree(incident.seed_person).len()
        );
        assert!(report.persons_of_interest.is_empty());
        assert_eq!(report.reduction_factor, 0.0);
    }

    #[test]
    fn far_away_tweets_excluded() {
        let net = GangNetworkGenerator::baton_rouge(12).generate();
        let incident = incident_at(&net);
        let field = net.graph().second_degree(incident.seed_person);
        let mut gen = TweetGenerator::new(13);
        // Risky tweet, right time, wrong place (10 km away).
        let tweets = vec![gen.risky(
            &person_handle(field[0]),
            incident.location.offset_m(10_000.0, 0.0),
            incident.time,
        )];
        let narrower = Narrower::new(&net, &tweets, NarrowingConfig::default());
        assert!(narrower.narrow(&incident).persons_of_interest.is_empty());
    }

    #[test]
    fn stale_tweets_excluded() {
        let net = GangNetworkGenerator::baton_rouge(14).generate();
        let incident = incident_at(&net);
        let field = net.graph().second_degree(incident.seed_person);
        let mut gen = TweetGenerator::new(15);
        // Risky tweet, right place, a day later.
        let tweets = vec![gen.risky(
            &person_handle(field[0]),
            incident.location,
            incident.time + SimDuration::from_secs(24 * 3600),
        )];
        let narrower = Narrower::new(&net, &tweets, NarrowingConfig::default());
        assert!(narrower.narrow(&incident).persons_of_interest.is_empty());
    }

    #[test]
    fn benign_text_excluded() {
        let net = GangNetworkGenerator::baton_rouge(16).generate();
        let incident = incident_at(&net);
        let field = net.graph().second_degree(incident.seed_person);
        let mut gen = TweetGenerator::new(17);
        // Right place, right time, harmless vocabulary.
        let tweets = vec![gen.benign(&person_handle(field[0]), incident.location, incident.time)];
        let narrower = Narrower::new(&net, &tweets, NarrowingConfig::default());
        assert!(narrower.narrow(&incident).persons_of_interest.is_empty());
    }

    #[test]
    fn strangers_never_surface() {
        // A guilty-looking tweet from someone outside the 2-degree field must
        // not appear (the field is the investigative scope).
        let net = GangNetworkGenerator::baton_rouge(18).generate();
        let incident = incident_at(&net);
        let stranger = PersonId(net.population() - 1);
        let mut gen = TweetGenerator::new(19);
        let tweets = vec![gen.near_incident(
            &person_handle(stranger),
            incident.location,
            300.0,
            incident.time,
            60 * 1_000_000,
        )];
        let narrower = Narrower::new(&net, &tweets, NarrowingConfig::default());
        let report = narrower.narrow(&incident);
        assert!(!report.persons_of_interest.contains(&stranger));
    }
}
