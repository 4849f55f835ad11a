//! Model parameter serialization.
//!
//! Saves and restores the trainable parameters of any [`Layer`] (typically a
//! [`crate::net::Sequential`]) to a compact little-endian byte format:
//!
//! ```text
//! magic "SCNN" | u32 param_count | per param: u32 rank, u32 dims..., f32 data...
//! ```
//!
//! The architecture itself is *not* stored — the caller rebuilds the same
//! network (same seeds/hyper-parameters) and loads weights into it, the same
//! model-deployment flow an edge device in the paper's hardware layer uses to
//! receive models trained on analysis servers.

use crate::layers::Layer;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"SCNN";

/// Errors from weight deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Not an `SCNN` blob or truncated header.
    BadMagic,
    /// Blob ended prematurely.
    Truncated,
    /// Blob parameter count/shape disagrees with the target network.
    ArchitectureMismatch(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadMagic => write!(f, "not a scneural weight blob"),
            LoadError::Truncated => write!(f, "weight blob is truncated"),
            LoadError::ArchitectureMismatch(m) => write!(f, "architecture mismatch: {m}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Serializes all trainable parameters of `layer` into a byte vector.
pub fn save_params(layer: &dyn Layer) -> Vec<u8> {
    let params = layer.params();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        let shape = p.value.shape();
        out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
        for &d in shape {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for &v in p.value.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

pub(crate) fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], LoadError> {
    let (head, tail) = bytes.split_at_checked(n).ok_or(LoadError::Truncated)?;
    *bytes = tail;
    Ok(head)
}

pub(crate) fn take_u32(bytes: &mut &[u8]) -> Result<usize, LoadError> {
    Ok(u32::from_le_bytes(take(bytes, 4)?.try_into().expect("4 bytes")) as usize)
}

/// Parses one [`save_params`] blob from the front of `bytes` against
/// `layer`'s parameter shapes, advancing `bytes` past it. The layer is only
/// read: the caller assigns the returned values with [`commit_params`] once
/// everything it has to load has parsed.
pub(crate) fn parse_params(layer: &dyn Layer, bytes: &mut &[u8]) -> Result<Vec<Tensor>, LoadError> {
    if take(bytes, 4)? != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let count = take_u32(bytes)?;
    let params = layer.params();
    if params.len() != count {
        return Err(LoadError::ArchitectureMismatch(format!(
            "blob has {count} params, network has {}",
            params.len()
        )));
    }
    let mut values = Vec::with_capacity(params.len());
    for p in params {
        let expected = p.value.shape();
        // Checked before anything is sized by it: the blob is outside input.
        let rank = take_u32(bytes)?;
        if rank != expected.len() {
            return Err(LoadError::ArchitectureMismatch(format!(
                "expected rank {}, blob has {rank}",
                expected.len()
            )));
        }
        let shape: Vec<usize> = (0..rank)
            .map(|_| take_u32(bytes))
            .collect::<Result<_, _>>()?;
        if shape != expected {
            return Err(LoadError::ArchitectureMismatch(format!(
                "expected shape {expected:?}, blob has {shape:?}"
            )));
        }
        let data: Vec<f32> = take(bytes, p.value.len() * 4)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        values.push(Tensor::from_vec(shape, data).expect("length matches product"));
    }
    Ok(values)
}

/// Rejects bytes left over after the last thing a blob should hold.
pub(crate) fn expect_end(bytes: &[u8]) -> Result<(), LoadError> {
    if bytes.is_empty() {
        Ok(())
    } else {
        Err(LoadError::ArchitectureMismatch(format!(
            "{} trailing bytes after the last parameter",
            bytes.len()
        )))
    }
}

/// Assigns values [`parse_params`] produced for this `layer`.
pub(crate) fn commit_params(layer: &mut dyn Layer, values: Vec<Tensor>) {
    for (p, value) in layer.params_mut().into_iter().zip(values) {
        p.value = value;
    }
}

/// Restores parameters saved by [`save_params`] into `layer`. The whole blob
/// is validated first: on error the layer is exactly as it was.
///
/// # Errors
///
/// Returns a [`LoadError`] if the blob is malformed, its shapes do not
/// match the target network's parameters in order, or bytes follow the last
/// parameter.
pub fn load_params(layer: &mut dyn Layer, mut bytes: &[u8]) -> Result<(), LoadError> {
    let values = parse_params(layer, &mut bytes)?;
    expect_end(bytes)?;
    commit_params(layer, values);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::net::Sequential;
    use crate::tensor::Tensor;

    fn net(seed: u64) -> Sequential {
        Sequential::new()
            .with(Dense::new(3, 5, seed))
            .with(Relu::new())
            .with(Dense::new(5, 2, seed + 1))
    }

    #[test]
    fn roundtrip_restores_outputs() {
        let original = net(1);
        let x = Tensor::full(vec![2, 3], 1.0);
        let expected = original.predict(&x);

        let blob = save_params(&original);
        let mut restored = net(99); // different init
        assert_ne!(restored.predict(&x), expected);
        load_params(&mut restored, &blob).unwrap();
        assert_eq!(restored.predict(&x), expected);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut n = net(1);
        assert_eq!(load_params(&mut n, b"XXXX0000"), Err(LoadError::BadMagic));
    }

    #[test]
    fn rejects_truncated() {
        let original = net(2);
        let blob = save_params(&original);
        let mut n = net(2);
        assert_eq!(
            load_params(&mut n, &blob[..blob.len() - 3]),
            Err(LoadError::Truncated)
        );
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let blob = save_params(&net(3));
        let mut other = Sequential::new().with(Dense::new(3, 4, 0));
        assert!(matches!(
            load_params(&mut other, &blob),
            Err(LoadError::ArchitectureMismatch(_))
        ));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let blob = save_params(&net(4));
        // Same param count (4), different shapes.
        let mut other = Sequential::new()
            .with(Dense::new(5, 3, 0))
            .with(Dense::new(3, 2, 1));
        assert!(matches!(
            load_params(&mut other, &blob),
            Err(LoadError::ArchitectureMismatch(_))
        ));
    }

    #[test]
    fn failed_load_leaves_the_network_untouched() {
        let mut target = net(7);
        let before = save_params(&target);
        let good = save_params(&net(8));
        // Behind the 8-byte header, rank + dims take 12 bytes per tensor and
        // the first Dense holds 15 + 5 floats: damage the third tensor's rank.
        let third = 8 + (12 + 60) + (12 + 20);
        let mut bad = good.clone();
        bad[third] ^= 0x01;
        assert!(matches!(
            load_params(&mut target, &bad),
            Err(LoadError::ArchitectureMismatch(_))
        ));
        assert_eq!(
            load_params(&mut target, &good[..third + 13]),
            Err(LoadError::Truncated)
        );
        assert_eq!(save_params(&target), before);
    }

    #[test]
    fn rank_from_the_blob_is_checked_before_it_sizes_anything() {
        let mut blob = save_params(&net(9));
        blob[8 + 3] ^= 0x80; // first tensor's rank: 2 → 2 + 2³¹
        assert!(matches!(
            load_params(&mut net(9), &blob),
            Err(LoadError::ArchitectureMismatch(_))
        ));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut blob = save_params(&net(10));
        blob.push(0);
        assert!(matches!(
            load_params(&mut net(10), &blob),
            Err(LoadError::ArchitectureMismatch(_))
        ));
    }

    #[test]
    fn blob_size_is_deterministic() {
        assert_eq!(save_params(&net(5)).len(), save_params(&net(6)).len());
    }
}
