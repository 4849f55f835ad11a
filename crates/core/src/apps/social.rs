//! The investigation service around §IV-B's narrowing engine.
//!
//! Wraps [`scsocial::narrowing::Narrower`] into the application-layer shape
//! the paper describes: incidents come in, the field of interest is expanded
//! and narrowed, and the resulting persons-of-interest report is stored in
//! the document store for investigators and audit.

use scdata::tweets::Tweet;
use scnosql::document::{Collection, Doc, DocId, Filter};
use scsocial::narrowing::{Incident, Narrower, NarrowingReport};
use scsocial::GangNetwork;

/// The investigation service: a gang network, a tweet corpus, and a report
/// log backed by the document store.
#[derive(Debug)]
pub struct InvestigationService {
    network: GangNetwork,
    tweets: Vec<Tweet>,
    reports: Collection,
}

impl InvestigationService {
    /// Creates the service.
    pub fn new(network: GangNetwork, tweets: Vec<Tweet>) -> Self {
        let mut reports = Collection::new("investigation_reports");
        reports.create_index("seed_person");
        InvestigationService {
            network,
            tweets,
            reports,
        }
    }

    /// Runs the narrowing pipeline for one incident, stores the report, and
    /// returns it with its stored id.
    pub fn investigate(&mut self, incident: &Incident) -> (DocId, NarrowingReport) {
        let narrower = Narrower::new(&self.network, &self.tweets);
        let report = narrower.narrow(incident);
        let doc = Doc::object([
            ("seed_person", Doc::I64(incident.seed_person.0 as i64)),
            ("first_degree", Doc::I64(report.first_degree as i64)),
            (
                "field_of_interest",
                Doc::I64(report.field_of_interest as i64),
            ),
            (
                "persons_of_interest",
                Doc::Array(
                    report
                        .persons_of_interest
                        .iter()
                        .map(|p| Doc::I64(p.0 as i64))
                        .collect(),
                ),
            ),
            ("reduction_factor", Doc::F64(report.reduction_factor)),
        ]);
        let id = self
            .reports
            .insert(doc)
            .expect("narrowing reports hold only finite numbers");
        (id, report)
    }

    /// All stored reports for a seed person (index-assisted).
    pub fn reports_for(&self, seed_person: u32) -> Vec<DocId> {
        self.reports
            .find(&Filter::Eq(
                "seed_person".into(),
                Doc::I64(seed_person as i64),
            ))
            .expect("equality filters are always valid")
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdata::tweets::TweetGenerator;
    use scgeo::GeoPoint;
    use scsocial::narrowing::person_handle;
    use scsocial::GangNetworkGenerator;
    use simclock::SimTime;

    fn service(seed: u64) -> (InvestigationService, Incident) {
        let network = GangNetworkGenerator::baton_rouge(seed).generate();
        let seed_person = network.members()[0];
        let incident = Incident {
            location: GeoPoint::new(30.45, -91.18),
            time: SimTime::from_secs(5_000),
            seed_person,
        };
        let field = network.graph().second_degree(seed_person);
        let mut gen = TweetGenerator::new(seed + 1);
        let mut tweets = Vec::new();
        if let Some(&guilty) = field.first() {
            tweets.push(gen.near_incident(
                &person_handle(guilty),
                incident.location,
                300.0,
                incident.time,
                60 * 1_000_000,
            ));
        }
        (InvestigationService::new(network, tweets), incident)
    }

    #[test]
    fn investigate_stores_report() {
        let (mut svc, incident) = service(1);
        let (_, report) = svc.investigate(&incident);
        assert_eq!(svc.reports.len(), 1);
        assert!(report.field_of_interest > 0);
    }

    #[test]
    fn reports_queryable_by_seed() {
        let (mut svc, incident) = service(2);
        svc.investigate(&incident);
        svc.investigate(&incident);
        let found = svc.reports_for(incident.seed_person.0);
        assert_eq!(found.len(), 2);
        assert!(svc.reports_for(99_999).is_empty());
    }
}
