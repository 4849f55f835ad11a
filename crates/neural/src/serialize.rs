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

/// Restores parameters saved by [`save_params`] into `layer`.
///
/// # Errors
///
/// Returns a [`LoadError`] if the blob is malformed or its shapes do not
/// match the target network's parameters in order.
pub fn load_params(layer: &mut dyn Layer, bytes: &[u8]) -> Result<(), LoadError> {
    let mut cursor = 0usize;
    let take = |cursor: &mut usize, n: usize| -> Result<&[u8], LoadError> {
        if *cursor + n > bytes.len() {
            return Err(LoadError::Truncated);
        }
        let s = &bytes[*cursor..*cursor + n];
        *cursor += n;
        Ok(s)
    };
    if take(&mut cursor, 4)? != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let count = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes")) as usize;
    let mut params = layer.params_mut();
    if params.len() != count {
        return Err(LoadError::ArchitectureMismatch(format!(
            "blob has {count} params, network has {}",
            params.len()
        )));
    }
    for p in params.iter_mut() {
        let rank = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes")) as usize;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(
                u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes")) as usize,
            );
        }
        if shape != p.value.shape() {
            return Err(LoadError::ArchitectureMismatch(format!(
                "expected shape {:?}, blob has {shape:?}",
                p.value.shape()
            )));
        }
        let n: usize = shape.iter().product();
        let raw = take(&mut cursor, n * 4)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        p.value = Tensor::from_vec(shape, data).expect("length matches product");
    }
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
        let x = Tensor::ones(vec![2, 3]);
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
    fn blob_size_is_deterministic() {
        assert_eq!(save_params(&net(5)).len(), save_params(&net(6)).len());
    }
}
