//! The secure law-enforcement upload server with 90-day retention
//! (paper §II-A4).
//!
//! "The crime data are uploaded to a secure web server in the LSU campus
//! through a unique URL address by agencies on the first day of each month.
//! Files uploaded to the secure web server are deleted after 90 days."
//!
//! [`SecureCrimeServer`] stores each monthly batch in the DFS under a unique
//! per-upload path and purges expired uploads on every clock tick.

use scdata::city::CrimeBatch;
use scdfs::{DfsCluster, DfsError};
use simclock::{SimDuration, SimTime};

/// Retention window: 90 days.
const RETENTION: SimDuration = SimDuration::from_secs(90 * 24 * 3600);

/// One tracked upload.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Upload {
    path: String,
    uploaded_at: SimTime,
}

/// The secure upload endpoint: unique URLs, DFS-backed storage, and the
/// 90-day purge.
#[derive(Debug, Default)]
pub struct SecureCrimeServer {
    uploads: Vec<Upload>,
}

impl SecureCrimeServer {
    /// The unique URL path an agency uploads month `month` to.
    fn upload_path(agency: &str, month: u32) -> String {
        let slug: String = agency
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        format!("/secure/uploads/{slug}/month-{month:04}.csv")
    }

    /// Accepts a monthly batch: serializes it as CSV and stores it
    /// replicated in the DFS under the agency's unique path.
    ///
    /// # Errors
    ///
    /// Propagates DFS errors (including duplicate uploads for the same
    /// agency+month).
    pub fn accept_upload(
        &mut self,
        agency: &str,
        batch: &CrimeBatch,
        dfs: &mut DfsCluster,
    ) -> Result<String, DfsError> {
        let path = Self::upload_path(agency, batch.month);
        let mut csv = String::from("report_number,statute,district,time_us\n");
        for r in &batch.records {
            csv.push_str(&format!(
                "{},{},{},{}\n",
                r.report_number,
                r.offense.statute(),
                r.district,
                r.time.as_micros()
            ));
        }
        dfs.create(&path, csv.as_bytes())?;
        self.uploads.push(Upload {
            path: path.clone(),
            uploaded_at: batch.uploaded_at,
        });
        Ok(path)
    }

    /// Deletes every upload older than 90 days at `now`. Returns the paths
    /// removed. DFS deletion failures for already-gone files are ignored
    /// (idempotent purge).
    pub fn purge_expired(&mut self, now: SimTime, dfs: &mut DfsCluster) -> Vec<String> {
        let (expired, live): (Vec<Upload>, Vec<Upload>) = self
            .uploads
            .drain(..)
            .partition(|u| now.saturating_since(u.uploaded_at) > RETENTION);
        self.uploads = live;
        let mut removed = Vec::with_capacity(expired.len());
        for u in expired {
            let _ = dfs.delete(&u.path);
            removed.push(u.path);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdata::city::CrimeBatchGenerator;

    fn setup() -> (SecureCrimeServer, DfsCluster, CrimeBatchGenerator) {
        (
            SecureCrimeServer::default(),
            DfsCluster::new(4, 2, 4096, 1).unwrap(),
            CrimeBatchGenerator::new(200, 2),
        )
    }

    #[test]
    fn upload_lands_in_dfs() {
        let (mut server, mut dfs, mut gen) = setup();
        let batch = gen.monthly_batch(0, 25);
        let path = server
            .accept_upload("Baton Rouge PD", &batch, &mut dfs)
            .unwrap();
        let content = String::from_utf8(dfs.read(&path).unwrap()).unwrap();
        assert_eq!(content.lines().count(), 26, "header + 25 records");
        assert!(content.contains("La. R.S."));
        assert_eq!(server.uploads.len(), 1);
    }

    #[test]
    fn unique_urls_per_agency_and_month() {
        assert_ne!(
            SecureCrimeServer::upload_path("BRPD", 1),
            SecureCrimeServer::upload_path("BRPD", 2)
        );
        assert_ne!(
            SecureCrimeServer::upload_path("BRPD", 1),
            SecureCrimeServer::upload_path("EBRSO", 1)
        );
        assert!(SecureCrimeServer::upload_path("Baton Rouge PD", 3)
            .starts_with("/secure/uploads/baton-rouge-pd/"));
    }

    #[test]
    fn purge_removes_only_expired() {
        let (mut server, mut dfs, mut gen) = setup();
        let old = gen.monthly_batch(0, 5); // uploaded at month 1
        let recent = gen.monthly_batch(3, 5); // uploaded at month 4
        let old_path = server.accept_upload("BRPD", &old, &mut dfs).unwrap();
        let recent_path = server.accept_upload("BRPD", &recent, &mut dfs).unwrap();

        // 91 days after the old upload (old expired, recent not).
        let now = old.uploaded_at + SimDuration::from_secs(91 * 24 * 3600);
        let removed = server.purge_expired(now, &mut dfs);
        assert_eq!(removed, vec![old_path.clone()]);
        assert!(
            dfs.read(&old_path).is_err(),
            "expired file deleted from DFS"
        );
        assert!(dfs.read(&recent_path).is_ok(), "recent file retained");
        assert_eq!(server.uploads.len(), 1);
    }

    #[test]
    fn purge_at_89_days_keeps_everything() {
        let (mut server, mut dfs, mut gen) = setup();
        let batch = gen.monthly_batch(0, 5);
        server.accept_upload("BRPD", &batch, &mut dfs).unwrap();
        let now = batch.uploaded_at + SimDuration::from_secs(89 * 24 * 3600);
        assert!(server.purge_expired(now, &mut dfs).is_empty());
        assert_eq!(server.uploads.len(), 1);
    }

    #[test]
    fn duplicate_upload_rejected() {
        let (mut server, mut dfs, mut gen) = setup();
        let batch = gen.monthly_batch(0, 5);
        server.accept_upload("BRPD", &batch, &mut dfs).unwrap();
        assert!(server.accept_upload("BRPD", &batch, &mut dfs).is_err());
    }

    #[test]
    fn yearlong_simulation_keeps_three_months() {
        // Upload monthly for 12 months, purging on each upload day: at any
        // time at most 3 uploads (90 days / 30-day months) stay live.
        let (mut server, mut dfs, mut gen) = setup();
        let mut purged = 0;
        for month in 0..12 {
            let batch = gen.monthly_batch(month, 10);
            let now = batch.uploaded_at;
            purged += server.purge_expired(now, &mut dfs).len();
            server.accept_upload("BRPD", &batch, &mut dfs).unwrap();
            assert!(
                server.uploads.len() <= 4,
                "month {month}: {} live",
                server.uploads.len()
            );
        }
        assert!(purged >= 8);
    }
}
