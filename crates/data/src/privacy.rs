//! De-identification of sensitive records (paper §V).
//!
//! The paper's future work integrates medical and individual-level crime
//! data and calls out "legal and ethical challenges such as HIPAA ...
//! -compliant data storage and processing". This module implements the
//! de-identification step such a pipeline needs before analytics:
//!
//! - names → keyed pseudonyms (stable under one key, unlinkable across
//!   keys),
//! - locations → coarse grid cells (~1.1 km),
//! - ages → 10-year bands,
//! - timestamps → truncated to the hour.
//!
//! Pseudonymization is deliberately *consistent*: the same person under the
//! same key maps to the same pseudonym, preserving the co-offense linkage
//! that §IV-B's network construction requires — while a rotated key breaks
//! linkability for releases to different parties.

use scgeo::GeoPoint;
use simclock::hash::{fnv1a, fnv1a_from};
use simclock::SimTime;

use crate::city::{CrimeRecord, PersonRole};

/// A de-identified person reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pseudonym(pub String);

/// A de-identified crime record safe for analytics.
#[derive(Debug, Clone, PartialEq)]
pub struct AnonymizedRecord {
    /// Original report number (operational ids are not direct identifiers).
    pub report_number: String,
    /// Offense statute string.
    pub statute: String,
    /// District (already coarse).
    pub district: u8,
    /// Offense time truncated to the hour.
    pub time_hour: SimTime,
    /// Location generalized to a grid-cell centroid.
    pub coarse_location: GeoPoint,
    /// Pseudonymized people with role and age band only.
    pub persons: Vec<(Pseudonym, PersonRole, &'static str)>,
}

/// A keyed anonymizer.
#[derive(Debug, Clone)]
pub struct Anonymizer {
    key: u64,
    grid_m: f64,
}

/// The age bands used for generalization.
pub const AGE_BANDS: [&str; 7] = ["0-17", "18-24", "25-34", "35-44", "45-54", "55-64", "65+"];

/// Maps an age to its band.
fn age_band(age: u8) -> &'static str {
    match age {
        0..=17 => AGE_BANDS[0],
        18..=24 => AGE_BANDS[1],
        25..=34 => AGE_BANDS[2],
        35..=44 => AGE_BANDS[3],
        45..=54 => AGE_BANDS[4],
        55..=64 => AGE_BANDS[5],
        _ => AGE_BANDS[6],
    }
}

impl Anonymizer {
    /// Creates an anonymizer with a secret `key` and spatial generalization
    /// to cells of roughly `grid_m` meters.
    ///
    /// # Panics
    ///
    /// Panics if `grid_m` is not positive.
    pub fn new(key: u64, grid_m: f64) -> Self {
        assert!(grid_m > 0.0, "grid size must be positive");
        Anonymizer { key, grid_m }
    }

    /// Keyed pseudonym for a person id: stable under this key, different
    /// under another.
    fn pseudonym(&self, person_id: u32) -> Pseudonym {
        // Keyed FNV-1a over (key || id).
        let h = fnv1a_from(fnv1a(&[]) ^ self.key, &person_id.to_le_bytes());
        // One more mixing round with the key: xor the rotated key in
        // whole, then a zero byte takes the state through the multiply.
        let h = fnv1a_from(h ^ self.key.rotate_left(17), &[0]);
        Pseudonym(format!("subj-{h:016x}"))
    }

    /// Generalizes a location to its grid-cell centroid.
    fn coarsen_location(&self, p: GeoPoint) -> GeoPoint {
        let cell_deg = self.grid_m / 111_320.0;
        let lat = (p.lat() / cell_deg).floor() * cell_deg + cell_deg / 2.0;
        let lon = (p.lon() / cell_deg).floor() * cell_deg + cell_deg / 2.0;
        GeoPoint::new(lat.clamp(-90.0, 90.0), lon.clamp(-180.0, 180.0))
    }

    /// Truncates a timestamp to the hour.
    fn coarsen_time(&self, t: SimTime) -> SimTime {
        SimTime::from_secs(t.as_micros() / 1_000_000 / 3600 * 3600)
    }

    /// De-identifies a full crime record.
    pub fn anonymize(&self, record: &CrimeRecord) -> AnonymizedRecord {
        AnonymizedRecord {
            report_number: record.report_number.clone(),
            statute: record.offense.statute().to_string(),
            district: record.district,
            time_hour: self.coarsen_time(record.time),
            coarse_location: self.coarsen_location(record.location),
            persons: record
                .persons
                .iter()
                .map(|p| (self.pseudonym(p.person_id), p.role, age_band(p.age)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CrimeBatchGenerator;

    fn record(seed: u64) -> CrimeRecord {
        CrimeBatchGenerator::new(50, seed).record(SimTime::from_secs(3_723))
    }

    #[test]
    fn pseudonyms_stable_under_one_key() {
        let a = Anonymizer::new(42, 1000.0);
        assert_eq!(a.pseudonym(7), a.pseudonym(7));
        assert_ne!(a.pseudonym(7), a.pseudonym(8));
        // Pinned: a changed hash would unlink every earlier release.
        let pinned = Anonymizer::new(9, 1000.0).pseudonym(7);
        assert_eq!(pinned.0, "subj-22d5a2d7fd3e67a1");
    }

    #[test]
    fn pseudonyms_unlinkable_across_keys() {
        let a = Anonymizer::new(1, 1000.0);
        let b = Anonymizer::new(2, 1000.0);
        assert_ne!(a.pseudonym(7), b.pseudonym(7));
    }

    #[test]
    fn no_raw_identifiers_survive() {
        let a = Anonymizer::new(9, 1000.0);
        let raw = record(1);
        let anon = a.anonymize(&raw);
        let serialized = format!("{anon:?}");
        for p in &raw.persons {
            assert!(
                !serialized.contains(&p.name),
                "raw name {} leaked into {serialized}",
                p.name
            );
        }
        assert!(!serialized.contains(&raw.address), "address leaked");
    }

    #[test]
    fn linkage_preserved_within_a_release() {
        // Two records sharing a suspect must share a pseudonym — the
        // co-offense signal survives de-identification.
        let a = Anonymizer::new(3, 1000.0);
        let mut gen = CrimeBatchGenerator::new(5, 2); // tiny population → collisions
        let r1 = gen.record(SimTime::ZERO);
        let r2 = gen.record(SimTime::ZERO);
        let ids1: Vec<u32> = r1.persons.iter().map(|p| p.person_id).collect();
        let shared: Vec<u32> = r2
            .persons
            .iter()
            .map(|p| p.person_id)
            .filter(|id| ids1.contains(id))
            .collect();
        for id in shared {
            assert_eq!(a.pseudonym(id), a.pseudonym(id));
        }
    }

    #[test]
    fn location_coarsening_quantizes() {
        let a = Anonymizer::new(4, 1000.0);
        let p1 = GeoPoint::new(30.45001, -91.18001);
        let p2 = GeoPoint::new(30.45002, -91.18002);
        assert_eq!(a.coarsen_location(p1), a.coarsen_location(p2), "same cell");
        let far = GeoPoint::new(30.47, -91.18001);
        assert_ne!(
            a.coarsen_location(p1),
            a.coarsen_location(far),
            "different cell"
        );
        // Coarsened point is within half a cell diagonal of the original.
        let d = p1.haversine_m(a.coarsen_location(p1));
        assert!(d < 1000.0, "displacement {d}");
    }

    #[test]
    fn time_truncated_to_hour() {
        let a = Anonymizer::new(5, 1000.0);
        assert_eq!(
            a.coarsen_time(SimTime::from_secs(3_723)),
            SimTime::from_secs(3_600)
        );
        assert_eq!(a.coarsen_time(SimTime::from_secs(3_599)), SimTime::ZERO);
    }

    #[test]
    fn age_bands_cover_all_ages() {
        assert_eq!(age_band(15), "0-17");
        assert_eq!(age_band(18), "18-24");
        assert_eq!(age_band(34), "25-34");
        assert_eq!(age_band(70), "65+");
        for age in 0..=120u8 {
            assert!(AGE_BANDS.contains(&age_band(age)));
        }
    }

    #[test]
    fn anonymized_record_keeps_analytics_fields() {
        let a = Anonymizer::new(6, 1000.0);
        let raw = record(3);
        let anon = a.anonymize(&raw);
        assert_eq!(anon.district, raw.district);
        assert_eq!(anon.persons.len(), raw.persons.len());
        assert!(anon.statute.starts_with("La. R.S."));
    }
}
