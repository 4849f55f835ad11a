//! The four-layer cyberinfrastructure facade (paper Fig. 1).

use scdfs::DfsCluster;
use scfog::Topology;
use scgeo::cameras::{CameraId, CameraNetwork};
use scnosql::document::Collection;
use scnosql::wide_column::Table;
use scstream::Topic;

/// Health summary across the four layers.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Architectural layers present (always 4: data, hardware, software,
    /// application).
    pub layers: usize,
    /// Cameras registered in the data layer.
    pub cameras: usize,
    /// Nodes in the fog topology.
    pub fog_nodes: usize,
    /// Alive DFS datanodes / total.
    pub datanodes_alive: usize,
    /// Total DFS datanodes.
    pub datanodes_total: usize,
    /// Files stored in the DFS.
    pub dfs_files: usize,
    /// Events in the raw ingestion topic.
    pub raw_events: usize,
    /// Documents in the incident store.
    pub incident_docs: usize,
}

/// The integrated cyberinfrastructure: one value owning a configured
/// instance of every layer.
///
/// - **Data layer**: the DOTD-style [`CameraNetwork`].
/// - **Hardware layer**: the four-tier fog [`Topology`] and the
///   [`DfsCluster`] backing long-term storage.
/// - **Software layer**: the raw-ingestion [`Topic`], the incident
///   [`Collection`] (document store), and the annotation [`Table`]
///   (wide-column store).
/// - **Application layer**: constructed on demand from
///   [`crate::apps`].
///
/// # Examples
///
/// ```
/// use smartcity_core::infrastructure::Cyberinfrastructure;
///
/// let infra = Cyberinfrastructure::new(7);
/// let health = infra.health_report();
/// assert_eq!(health.layers, 4);
/// assert!(health.cameras > 200);
/// ```
#[derive(Debug)]
pub struct Cyberinfrastructure {
    cameras: CameraNetwork,
    fog: Topology,
    dfs: DfsCluster,
    raw_topic: Topic,
    incidents: Collection,
    annotations: Table,
}

impl Cyberinfrastructure {
    /// Builds the four layers from one master seed (it drives every
    /// generator): six datanodes at 3-way replication and 64 KiB blocks, an
    /// 8 × 4 × 2 four-tier fog, a 4-partition raw topic.
    pub fn new(seed: u64) -> Self {
        let mut incidents = Collection::new("incidents");
        incidents.create_index("kind");
        Cyberinfrastructure {
            cameras: CameraNetwork::louisiana_default(seed),
            fog: Topology::four_tier(8, 4, 2),
            dfs: DfsCluster::new(6, 3, 64 * 1024, seed).expect("a valid DFS configuration"),
            raw_topic: Topic::new("raw-events", 4),
            incidents,
            annotations: Table::new("annotations", 4_096),
        }
    }

    /// The camera network (data layer).
    pub fn cameras(&self) -> &CameraNetwork {
        &self.cameras
    }

    /// The DFS cluster (hardware layer, long-term storage).
    pub fn dfs(&self) -> &DfsCluster {
        &self.dfs
    }

    /// Mutable DFS access.
    pub fn dfs_mut(&mut self) -> &mut DfsCluster {
        &mut self.dfs
    }

    /// Disjoint mutable borrows of the three stores the Fig. 4 pipeline
    /// writes: `(raw topic, incident collection, annotation table)`.
    pub fn pipeline_stores(&mut self) -> (&mut Topic, &mut Collection, &mut Table) {
        (
            &mut self.raw_topic,
            &mut self.incidents,
            &mut self.annotations,
        )
    }

    /// Archives a camera's video segment into the DFS under
    /// `/videos/<camera>/<segment>`.
    ///
    /// # Errors
    ///
    /// Propagates DFS errors (duplicate paths, insufficient nodes).
    pub fn archive_video_segment(
        &mut self,
        camera: CameraId,
        segment: u64,
        data: &[u8],
    ) -> Result<String, scdfs::DfsError> {
        let path = format!("/videos/{camera}/seg-{segment:06}.bin");
        self.dfs.create(&path, data)?;
        Ok(path)
    }

    /// Produces the layer-by-layer health report.
    pub fn health_report(&self) -> HealthReport {
        let dfs_stats = self.dfs.stats();
        HealthReport {
            layers: 4,
            cameras: self.cameras.len(),
            fog_nodes: self.fog.len(),
            datanodes_alive: dfs_stats.alive_nodes,
            datanodes_total: dfs_stats.nodes,
            dfs_files: dfs_stats.files,
            raw_events: self.raw_topic.total_events(),
            incident_docs: self.incidents.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let infra = Cyberinfrastructure::new(1);
        let h = infra.health_report();
        assert_eq!(h.layers, 4);
        assert!(h.cameras > 200);
        assert_eq!(h.datanodes_total, 6);
        assert_eq!(h.datanodes_alive, 6);
        assert_eq!(h.dfs_files, 0);
    }

    #[test]
    fn archive_video_roundtrip() {
        let mut infra = Cyberinfrastructure::new(3);
        let cam = infra.cameras().cameras()[0].id;
        let data = vec![7u8; 100_000];
        let path = infra.archive_video_segment(cam, 1, &data).unwrap();
        assert_eq!(infra.dfs().read(&path).unwrap(), data);
        assert_eq!(infra.health_report().dfs_files, 1);
    }

    #[test]
    fn archive_survives_node_failure() {
        let mut infra = Cyberinfrastructure::new(4);
        let cam = infra.cameras().cameras()[0].id;
        let path = infra.archive_video_segment(cam, 2, &[1, 2, 3]).unwrap();
        infra.dfs_mut().kill_node(0).unwrap();
        infra.dfs_mut().kill_node(1).unwrap();
        assert!(infra.dfs().read(&path).is_ok(), "3-way replication");
    }

    #[test]
    fn duplicate_segment_rejected() {
        let mut infra = Cyberinfrastructure::new(5);
        let cam = infra.cameras().cameras()[0].id;
        infra.archive_video_segment(cam, 1, &[1]).unwrap();
        assert!(infra.archive_video_segment(cam, 1, &[2]).is_err());
    }
}
