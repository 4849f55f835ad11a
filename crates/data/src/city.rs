//! Open-city and law-enforcement data (paper §II-A3, §II-A4).
//!
//! Two generators:
//!
//! - [`OpenCityGenerator`]: the Baton Rouge open-data portal analogue —
//!   public-safety incidents, citizen service requests, building permits,
//!   potholes, traffic signals.
//! - [`CrimeBatchGenerator`]: the monthly individual-level violent-crime
//!   transfer the MOU provides — "incident report numbers, offense
//!   description, Louisiana criminal offense code, report address, offense
//!   district, date and time ..., agency ..., and the names and demographic
//!   information on all persons involved (both victims and suspects)".
//!   Synthetic people only; uploaded "on the first day of each month" (the
//!   90-day retention window is `smartcity_core::retention`'s).

use scgeo::GeoPoint;
use simclock::{SeededRng, SimDuration, SimTime};

/// Louisiana criminal offense codes for the violent crimes the MOU covers
/// (La. R.S. Title 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OffenseCode {
    /// La. R.S. 14:30 — homicide (first degree murder).
    Homicide,
    /// La. R.S. 14:65 — simple robbery.
    Robbery,
    /// La. R.S. 14:64 — armed robbery.
    ArmedRobbery,
    /// La. R.S. 14:37 — aggravated assault.
    AggravatedAssault,
    /// La. R.S. 14:94 — illegal use of weapons.
    IllegalWeaponUse,
}

impl OffenseCode {
    /// All codes in stable order.
    pub const ALL: [OffenseCode; 5] = [
        OffenseCode::Homicide,
        OffenseCode::Robbery,
        OffenseCode::ArmedRobbery,
        OffenseCode::AggravatedAssault,
        OffenseCode::IllegalWeaponUse,
    ];

    /// The statute string, e.g. `"La. R.S. 14:30"`.
    pub fn statute(self) -> &'static str {
        match self {
            OffenseCode::Homicide => "La. R.S. 14:30",
            OffenseCode::Robbery => "La. R.S. 14:65",
            OffenseCode::ArmedRobbery => "La. R.S. 14:64",
            OffenseCode::AggravatedAssault => "La. R.S. 14:37",
            OffenseCode::IllegalWeaponUse => "La. R.S. 14:94",
        }
    }
}

/// Role of a person in an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersonRole {
    /// Victim of the offense.
    Victim,
    /// Suspect in the offense.
    Suspect,
}

/// A (synthetic) person attached to an incident report.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonInvolved {
    /// Stable synthetic person id (shared across incidents — the co-offense
    /// signal the §IV-B social-network construction uses).
    pub person_id: u32,
    /// Synthetic display name.
    pub name: String,
    /// Role in this incident.
    pub role: PersonRole,
    /// Age in years.
    pub age: u8,
    /// Home district.
    pub home_district: u8,
}

/// One individual-level violent-crime record.
#[derive(Debug, Clone, PartialEq)]
pub struct CrimeRecord {
    /// Incident report number, e.g. `"BR-2026-000417"`.
    pub report_number: String,
    /// Offense classification.
    pub offense: OffenseCode,
    /// Street-style report address.
    pub address: String,
    /// Offense district (1-based).
    pub district: u8,
    /// Date/time of the offense in simulation time.
    pub time: SimTime,
    /// Reporting agency.
    pub agency: String,
    /// Incident location.
    pub location: GeoPoint,
    /// Everyone involved.
    pub persons: Vec<PersonInvolved>,
}

/// One monthly transfer of crime records.
#[derive(Debug, Clone, PartialEq)]
pub struct CrimeBatch {
    /// Month index since simulation start (0-based).
    pub month: u32,
    /// Upload time — the first day of the month.
    pub uploaded_at: SimTime,
    /// The records.
    pub records: Vec<CrimeRecord>,
}

/// Seconds in a (simplified, 30-day) month.
const MONTH_SECS: u64 = 30 * 24 * 3600;

/// Generator of monthly law-enforcement transfers.
///
/// # Examples
///
/// ```
/// use scdata::city::CrimeBatchGenerator;
///
/// let mut gen = CrimeBatchGenerator::new(500, 11);
/// let batch = gen.monthly_batch(0, 40);
/// assert_eq!(batch.records.len(), 40);
/// assert!(batch.records.iter().all(|r| !r.persons.is_empty()));
/// ```
#[derive(Debug)]
pub struct CrimeBatchGenerator {
    rng: SeededRng,
    population: u32,
    next_report: u32,
    anchor: GeoPoint,
}

impl CrimeBatchGenerator {
    /// Creates a generator over a synthetic population of `population`
    /// person ids.
    ///
    /// # Panics
    ///
    /// Panics if `population < 2`.
    pub fn new(population: u32, seed: u64) -> Self {
        assert!(population >= 2, "need at least two people");
        CrimeBatchGenerator {
            rng: SeededRng::new(seed),
            population,
            next_report: 0,
            anchor: GeoPoint::new(30.4515, -91.1871), // Baton Rouge
        }
    }

    fn person(&mut self, role: PersonRole) -> PersonInvolved {
        let person_id = self.rng.next_bounded(self.population as u64) as u32;
        PersonInvolved {
            person_id,
            name: format!("person-{person_id:05}"),
            role,
            age: 15 + self.rng.index(50) as u8,
            home_district: 1 + self.rng.index(12) as u8,
        }
    }

    /// One crime record at time `t`.
    pub fn record(&mut self, t: SimTime) -> CrimeRecord {
        let offense = *self.rng.choose(&OffenseCode::ALL).expect("non-empty");
        let report_number = format!("BR-2026-{:06}", self.next_report);
        self.next_report += 1;
        let n_suspects = 1 + self.rng.index(3);
        let n_victims = 1 + self.rng.index(2);
        let mut persons = Vec::with_capacity(n_suspects + n_victims);
        for _ in 0..n_suspects {
            persons.push(self.person(PersonRole::Suspect));
        }
        for _ in 0..n_victims {
            persons.push(self.person(PersonRole::Victim));
        }
        CrimeRecord {
            report_number,
            offense,
            address: format!(
                "{} {} St",
                100 + self.rng.index(9900),
                ["Government", "Florida", "Plank", "Airline", "Nicholson"][self.rng.index(5)]
            ),
            district: 1 + self.rng.index(12) as u8,
            time: t,
            agency: "Baton Rouge PD".to_string(),
            location: self.anchor.offset_m(
                self.rng.range_f64(-8000.0, 8000.0),
                self.rng.range_f64(-8000.0, 8000.0),
            ),
            persons,
        }
    }

    /// The monthly transfer for month index `month` with `count` records,
    /// timestamps spread through the month, uploaded on the 1st of the
    /// following month.
    pub fn monthly_batch(&mut self, month: u32, count: usize) -> CrimeBatch {
        let month_start = SimTime::from_secs(month as u64 * MONTH_SECS);
        let records = (0..count)
            .map(|_| {
                let offset = self.rng.next_bounded(MONTH_SECS);
                self.record(month_start + SimDuration::from_secs(offset))
            })
            .collect();
        CrimeBatch {
            month,
            uploaded_at: SimTime::from_secs((month as u64 + 1) * MONTH_SECS),
            records,
        }
    }
}

/// Kinds of open-city records (the Baton Rouge open-data portal categories
/// the paper lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpenRecordKind {
    /// Public-safety: a (non-individual-level) crime incident.
    CrimeIncident,
    /// Public-safety: fire department dispatch.
    FireIncident,
    /// Government: citizen request for service (311).
    CitizenRequest,
    /// Housing: building permit.
    BuildingPermit,
    /// Transportation: pothole report.
    Pothole,
    /// Transportation: traffic incident.
    TrafficIncident,
    /// Public-safety: 911 call.
    EmergencyCall,
}

impl OpenRecordKind {
    /// All kinds in stable order.
    pub const ALL: [OpenRecordKind; 7] = [
        OpenRecordKind::CrimeIncident,
        OpenRecordKind::FireIncident,
        OpenRecordKind::CitizenRequest,
        OpenRecordKind::BuildingPermit,
        OpenRecordKind::Pothole,
        OpenRecordKind::TrafficIncident,
        OpenRecordKind::EmergencyCall,
    ];
}

/// One open-city record.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenRecord {
    /// Record id.
    pub id: u64,
    /// Category.
    pub kind: OpenRecordKind,
    /// Location.
    pub location: GeoPoint,
    /// Timestamp.
    pub time: SimTime,
    /// Free-text detail.
    pub detail: String,
}

/// Generator of open-data portal records.
#[derive(Debug)]
pub struct OpenCityGenerator {
    rng: SeededRng,
    next_id: u64,
    anchor: GeoPoint,
}

impl OpenCityGenerator {
    /// Creates a generator anchored on Baton Rouge.
    pub fn new(seed: u64) -> Self {
        OpenCityGenerator {
            rng: SeededRng::new(seed),
            next_id: 0,
            anchor: GeoPoint::new(30.4515, -91.1871),
        }
    }

    /// One record of a random kind at time `t`. Crime-adjacent records
    /// cluster in hot spots (three fixed centers) so the E10 k-means
    /// experiment has real structure to find.
    fn record(&mut self, t: SimTime) -> OpenRecord {
        let kind = *self.rng.choose(&OpenRecordKind::ALL).expect("non-empty");
        let id = self.next_id;
        self.next_id += 1;
        let location = match kind {
            OpenRecordKind::CrimeIncident | OpenRecordKind::EmergencyCall => {
                // Hot-spot mixture.
                let hot = [(3000.0, 2000.0), (-4000.0, -1000.0), (1000.0, -5000.0)];
                let (cn, ce) = hot[self.rng.index(3)];
                self.anchor.offset_m(
                    cn + self.rng.gaussian(0.0, 600.0),
                    ce + self.rng.gaussian(0.0, 600.0),
                )
            }
            _ => self.anchor.offset_m(
                self.rng.range_f64(-8000.0, 8000.0),
                self.rng.range_f64(-8000.0, 8000.0),
            ),
        };
        OpenRecord {
            id,
            kind,
            location,
            time: t,
            detail: format!("{kind:?} #{id}"),
        }
    }

    /// A stream of `n` records at one-minute spacing.
    pub fn stream(&mut self, n: usize) -> Vec<OpenRecord> {
        (0..n)
            .map(|i| self.record(SimTime::from_secs(60 * i as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statutes_are_louisiana() {
        for code in OffenseCode::ALL {
            assert!(code.statute().starts_with("La. R.S. 14:"));
        }
    }

    #[test]
    fn records_have_suspects_and_victims() {
        let mut g = CrimeBatchGenerator::new(100, 1);
        let r = g.record(SimTime::ZERO);
        assert!(r.persons.iter().any(|p| p.role == PersonRole::Suspect));
        assert!(r.persons.iter().any(|p| p.role == PersonRole::Victim));
        assert!(r.report_number.starts_with("BR-2026-"));
    }

    #[test]
    fn monthly_batch_timing() {
        let mut g = CrimeBatchGenerator::new(100, 2);
        let batch = g.monthly_batch(2, 10);
        assert_eq!(batch.uploaded_at, SimTime::from_secs(3 * MONTH_SECS));
        let start = SimTime::from_secs(2 * MONTH_SECS);
        let end = SimTime::from_secs(3 * MONTH_SECS);
        for r in &batch.records {
            assert!(r.time >= start && r.time < end);
        }
    }

    #[test]
    fn report_numbers_unique_across_batches() {
        let mut g = CrimeBatchGenerator::new(100, 4);
        let a = g.monthly_batch(0, 20);
        let b = g.monthly_batch(1, 20);
        let mut nums: Vec<&String> = a
            .records
            .iter()
            .chain(&b.records)
            .map(|r| &r.report_number)
            .collect();
        nums.sort();
        nums.dedup();
        assert_eq!(nums.len(), 40);
    }

    #[test]
    fn shared_person_ids_create_co_offense_links() {
        // With a small population, suspects recur across incidents.
        let mut g = CrimeBatchGenerator::new(10, 5);
        let batch = g.monthly_batch(0, 40);
        let mut ids: Vec<u32> = batch
            .records
            .iter()
            .flat_map(|r| r.persons.iter())
            .map(|p| p.person_id)
            .collect();
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() < total, "person ids must recur");
    }

    #[test]
    fn open_records_cover_all_kinds() {
        let mut g = OpenCityGenerator::new(6);
        let recs = g.stream(300);
        for kind in OpenRecordKind::ALL {
            assert!(recs.iter().any(|r| r.kind == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn crime_records_cluster_in_hotspots() {
        let mut g = OpenCityGenerator::new(7);
        let recs = g.stream(2000);
        let anchor = GeoPoint::new(30.4515, -91.1871);
        let crimes: Vec<&OpenRecord> = recs
            .iter()
            .filter(|r| r.kind == OpenRecordKind::CrimeIncident)
            .collect();
        // Mean distance to the nearest hot-spot center should be well under
        // the uniform-spread records' scale.
        let hot = [
            anchor.offset_m(3000.0, 2000.0),
            anchor.offset_m(-4000.0, -1000.0),
            anchor.offset_m(1000.0, -5000.0),
        ];
        let mean_min: f64 = crimes
            .iter()
            .map(|r| {
                hot.iter()
                    .map(|h| h.haversine_m(r.location))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / crimes.len() as f64;
        assert!(
            mean_min < 1200.0,
            "clustered around hot spots, got {mean_min}"
        );
    }
}
