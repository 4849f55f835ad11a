//! Gorilla-style sample compression: delta-of-delta timestamps and
//! XOR-compressed float values, bit-exact.
//!
//! The layout follows Facebook's Gorilla paper adapted to sim-time
//! microseconds:
//!
//! - First sample: raw 64-bit timestamp, raw 64-bit IEEE value bits.
//! - Timestamps: `dod = (tₙ − tₙ₋₁) − (tₙ₋₁ − tₙ₋₂)`, bucketed as
//!   `0` (dod = 0), `10`+7 bits, `110`+9 bits, `1110`+12 bits,
//!   `1111`+64 bits (zig-zag-free biased encodings).
//! - Values: XOR against the previous value's bits; `0` when identical,
//!   `10` + meaningful bits when the previous leading/trailing-zero
//!   window still covers them, `11` + 5-bit leading count + 6-bit
//!   length−1 + the bits otherwise.
//!
//! Unlike the paper we never quantise: values round-trip through
//! `f64::to_bits`, so decompression is **bit-exact** (NaN payloads
//! included) — the property the golden artifacts and proptests pin.
//!
//! # Range reads
//!
//! A Gorilla stream decodes only front to back, so every 64th sample
//! (`CHECKPOINT_EVERY`) the encoder also notes the decoder's whole state
//! in a side table. [`GorillaEncoder::range`] binary-searches
//! that table and hands out a [`SampleCursor`] that decodes from there,
//! lazily, materialising nothing. The table sits beside the bit stream,
//! not in it, so the stream (and `compressed_bytes`, which artifacts
//! record) is the same with or without it.

use crate::bits::{BitReader, BitWriter};

/// A decoder checkpoint is recorded at every sample whose index is a
/// multiple of this (the first needs none: the stream starts with it).
/// 40 bytes each, so ≈ 0.6 B/sample beside a stream of ≈ 8.
const CHECKPOINT_EVERY: u64 = 64;

/// The decoder's state just after one sample, enough to resume there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Checkpoint {
    /// Bit offset of the next sample in the stream.
    bit_pos: usize,
    t: u64,
    delta: i64,
    v_bits: u64,
    leading: u32,
    trailing: u32,
}

/// Streaming encoder for one series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GorillaEncoder {
    bits: BitWriter,
    count: u64,
    prev_t: u64,
    prev_delta: i64,
    prev_v_bits: u64,
    prev_leading: u32,
    prev_trailing: u32,
    window_valid: bool,
    /// `checkpoints[k - 1]` resumes at sample `k * CHECKPOINT_EVERY`.
    checkpoints: Vec<Checkpoint>,
}

/// Appending a sample older than its predecessor is refused: series are
/// append-only in sim time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRegression {
    /// Timestamp of the last accepted sample (µs).
    pub last_us: u64,
    /// The offending earlier timestamp (µs).
    pub got_us: u64,
}

impl std::fmt::Display for TimeRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sample at {}us precedes the series tail at {}us",
            self.got_us, self.last_us
        )
    }
}

impl std::error::Error for TimeRegression {}

impl GorillaEncoder {
    /// An empty encoder with no reserved capacity.
    pub fn new() -> Self {
        GorillaEncoder::default()
    }

    /// Reserves buffer space for roughly `samples` more appends at the
    /// worst-case encoded width (~18 bytes), and exactly the checkpoint
    /// slots those appends fill, so appends within the reserve never touch
    /// the allocator. A checkpoint is taken at every sample index that is a
    /// positive multiple of `CHECKPOINT_EVERY`.
    pub fn reserve_samples(&mut self, samples: usize) {
        self.bits.reserve(samples.saturating_mul(18));
        let (first, end) = (self.count.max(1), self.count + samples as u64);
        let checkpoints = (end.saturating_sub(1) / CHECKPOINT_EVERY)
            .saturating_sub((first - 1) / CHECKPOINT_EVERY);
        self.checkpoints.reserve(checkpoints as usize);
    }

    /// Samples encoded so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been encoded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Compressed size in bytes (last byte possibly partial).
    pub fn compressed_bytes(&self) -> usize {
        self.bits.len_bytes()
    }

    /// Appends `(t_us, v)`; timestamps must be non-decreasing.
    pub fn push(&mut self, t_us: u64, v: f64) -> Result<(), TimeRegression> {
        let v_bits = v.to_bits();
        if self.count == 0 {
            self.bits.push_bits(t_us, 64);
            self.bits.push_bits(v_bits, 64);
            self.prev_t = t_us;
            self.prev_delta = 0;
            self.prev_v_bits = v_bits;
            self.count = 1;
            return Ok(());
        }
        if t_us < self.prev_t {
            return Err(TimeRegression {
                last_us: self.prev_t,
                got_us: t_us,
            });
        }
        let delta = (t_us - self.prev_t) as i64;
        let dod = delta - self.prev_delta;
        match dod {
            0 => self.bits.push_bit(false),
            -63..=64 => {
                self.bits.push_bits(0b10, 2);
                self.bits.push_bits((dod + 63) as u64, 7);
            }
            -255..=256 => {
                self.bits.push_bits(0b110, 3);
                self.bits.push_bits((dod + 255) as u64, 9);
            }
            -2047..=2048 => {
                self.bits.push_bits(0b1110, 4);
                self.bits.push_bits((dod + 2047) as u64, 12);
            }
            _ => {
                self.bits.push_bits(0b1111, 4);
                self.bits.push_bits(dod as u64, 64);
            }
        }
        self.prev_delta = delta;
        self.prev_t = t_us;

        let xor = v_bits ^ self.prev_v_bits;
        if xor == 0 {
            self.bits.push_bit(false);
        } else {
            self.bits.push_bit(true);
            let leading = xor.leading_zeros().min(31);
            let trailing = xor.trailing_zeros();
            if self.window_valid && leading >= self.prev_leading && trailing >= self.prev_trailing {
                // The previous meaningful-bit window still covers us.
                self.bits.push_bit(false);
                let sig = 64 - self.prev_leading - self.prev_trailing;
                self.bits.push_bits(xor >> self.prev_trailing, sig);
            } else {
                self.bits.push_bit(true);
                let sig = 64 - leading - trailing;
                self.bits.push_bits(leading as u64, 5);
                self.bits.push_bits((sig - 1) as u64, 6);
                self.bits.push_bits(xor >> trailing, sig);
                self.prev_leading = leading;
                self.prev_trailing = trailing;
                self.window_valid = true;
            }
        }
        self.prev_v_bits = v_bits;
        if self.count.is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoints.push(Checkpoint {
                bit_pos: self.bits.len_bits(),
                t: t_us,
                delta,
                v_bits,
                leading: self.prev_leading,
                trailing: self.prev_trailing,
            });
        }
        self.count += 1;
        Ok(())
    }

    /// Decodes every sample back out (allocates the result vector).
    pub fn decode_all(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity(self.count as usize);
        out.extend(self.cursor_from(0, u64::MAX));
        out
    }

    /// The samples needed to answer a question about `(from_us, to_us]`,
    /// in time order: starts no later than the last sample at or before
    /// `from_us` (a counter's baseline) and ends with the last one at or
    /// before `to_us`. Earlier samples may lead the run — the query
    /// functions skip them — but only back to the nearest checkpoint.
    pub fn range(&self, from_us: u64, to_us: u64) -> SampleCursor<'_> {
        // Strictly before `from_us`: a run of equal timestamps may
        // straddle a checkpoint, and a range from the epoch includes the
        // samples at `t = 0`.
        let k = self.checkpoints.partition_point(|c| c.t < from_us);
        self.cursor_from(k, to_us)
    }

    /// A cursor resuming at sample `k * CHECKPOINT_EVERY`.
    fn cursor_from(&self, k: usize, to_us: u64) -> SampleCursor<'_> {
        if self.count == 0 {
            return SampleCursor::empty();
        }
        let mut r = self.bits.reader();
        let next = match k.checked_sub(1) {
            Some(i) => self.checkpoints[i],
            None => Checkpoint {
                t: r.read_bits(64).expect("first timestamp present"),
                v_bits: r.read_bits(64).expect("first value present"),
                bit_pos: 128,
                ..Checkpoint::default()
            },
        };
        r.seek(next.bit_pos);
        SampleCursor {
            r,
            left: self.count - k as u64 * CHECKPOINT_EVERY,
            to_us,
            next,
        }
    }
}

/// A lazy, allocation-free reader over part of one series: yields
/// `(t_us, v)` in time order and ends with the last sample at or before
/// its upper bound. See [`GorillaEncoder::range`].
#[derive(Debug, Clone)]
pub struct SampleCursor<'a> {
    r: BitReader<'a>,
    /// Samples not yet yielded, `next` included.
    left: u64,
    to_us: u64,
    /// The sample to yield next (decoded already), when `left > 0`.
    next: Checkpoint,
}

impl SampleCursor<'_> {
    /// A cursor over no samples (an absent or empty series).
    pub(crate) fn empty() -> Self {
        SampleCursor {
            r: BitReader::new(&[], 0),
            left: 0,
            to_us: 0,
            next: Checkpoint::default(),
        }
    }

    /// Decodes the sample after `self.next` into it.
    fn advance(&mut self) {
        let (r, s) = (&mut self.r, &mut self.next);
        s.delta += read_dod(r);
        s.t = (s.t as i64 + s.delta) as u64;
        if r.read_bit().expect("value control bit") {
            if r.read_bit().expect("window control bit") {
                s.leading = r.read_bits(5).expect("leading count") as u32;
                let sig = r.read_bits(6).expect("length field") as u32 + 1;
                s.trailing = 64 - s.leading - sig;
            }
            let sig = 64 - s.leading - s.trailing;
            let bits = r.read_bits(sig).expect("meaningful bits");
            s.v_bits ^= bits << s.trailing;
        }
    }
}

impl Iterator for SampleCursor<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        if self.left == 0 || self.next.t > self.to_us {
            return None;
        }
        let sample = (self.next.t, f64::from_bits(self.next.v_bits));
        self.left -= 1;
        if self.left > 0 {
            self.advance();
        }
        Some(sample)
    }
}

fn read_dod(r: &mut BitReader<'_>) -> i64 {
    if !r.read_bit().expect("dod control bit") {
        return 0;
    }
    if !r.read_bit().expect("dod control bit") {
        return r.read_bits(7).expect("7-bit dod") as i64 - 63;
    }
    if !r.read_bit().expect("dod control bit") {
        return r.read_bits(9).expect("9-bit dod") as i64 - 255;
    }
    if !r.read_bit().expect("dod control bit") {
        return r.read_bits(12).expect("12-bit dod") as i64 - 2047;
    }
    r.read_bits(64).expect("64-bit dod") as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(samples: &[(u64, f64)]) {
        let mut enc = GorillaEncoder::new();
        for &(t, v) in samples {
            enc.push(t, v).expect("non-decreasing");
        }
        let got = enc.decode_all();
        assert_eq!(got.len(), samples.len());
        for (g, s) in got.iter().zip(samples) {
            assert_eq!(g.0, s.0, "timestamp");
            assert_eq!(g.1.to_bits(), s.1.to_bits(), "value bits");
        }
    }

    #[test]
    fn round_trips_regular_cadence() {
        let samples: Vec<(u64, f64)> = (0..500)
            .map(|i| (i * 1_000_000, (i as f64).sin() * 100.0))
            .collect();
        round_trip(&samples);
    }

    #[test]
    fn round_trips_awkward_values() {
        round_trip(&[
            (0, 0.0),
            (1, -0.0),
            (1, f64::INFINITY),
            (2, f64::NEG_INFINITY),
            (100, f64::from_bits(0x7ff8_0000_dead_beef)), // NaN payload
            (100, f64::MIN_POSITIVE),
            (u64::MAX / 2, f64::MAX),
        ]);
    }

    #[test]
    fn constant_series_compress_tightly() {
        let mut enc = GorillaEncoder::new();
        for i in 0..1000u64 {
            enc.push(i * 3_600_000_000, 7.5).unwrap();
        }
        // First sample is 16 bytes, the first delta 69 bits; every later
        // sample costs 2 bits (dod = 0, value unchanged).
        assert!(
            enc.compressed_bytes() <= 16 + 9 + 1000 / 4,
            "got {} bytes",
            enc.compressed_bytes()
        );
        assert_eq!(enc.decode_all().len(), 1000);
    }

    #[test]
    fn time_regression_is_refused() {
        let mut enc = GorillaEncoder::new();
        enc.push(100, 1.0).unwrap();
        assert!(enc.push(99, 2.0).is_err());
        assert!(enc.push(100, 2.0).is_ok(), "equal timestamps are allowed");
    }

    #[test]
    fn reserve_bounds_allocation() {
        let mut enc = GorillaEncoder::new();
        enc.reserve_samples(200);
        let cap = (enc.bits.capacity_bytes(), enc.checkpoints.capacity());
        for i in 0..200u64 {
            enc.push(i * 1234, i as f64 * 0.1).unwrap();
        }
        assert_eq!(enc.checkpoints.len(), 3, "samples 64, 128 and 192");
        assert_eq!(
            (enc.bits.capacity_bytes(), enc.checkpoints.capacity()),
            cap,
            "stream and checkpoints stayed within the reserve"
        );
    }

    #[test]
    fn range_resumes_at_the_last_checkpoint_strictly_before_from() {
        // Samples 60..70 share t = 600, so checkpoint 64 sits inside the run.
        let mut enc = GorillaEncoder::new();
        for i in 0..200u64 {
            let t = if (60..70).contains(&i) { 600 } else { i * 10 };
            enc.push(t, i as f64).unwrap();
        }
        let all = enc.decode_all();
        let first = |from: u64| enc.range(from, u64::MAX).next().unwrap();
        assert_eq!(first(0), all[0], "the epoch reads from the start");
        assert_eq!(first(600), all[0], "checkpoint 64 is at 600, not before it");
        assert_eq!(first(601), all[64]);
        assert_eq!(first(1_280), all[64], "checkpoint 128 is at 1 280");
        assert_eq!(first(1_281), all[128]);
        assert_eq!(first(u64::MAX), all[192]);
        // The upper bound ends the cursor; nothing is skipped before it.
        assert_eq!(enc.range(601, 700).collect::<Vec<_>>(), all[64..=70]);
        assert_eq!(enc.range(0, u64::MAX).collect::<Vec<_>>(), all);
        assert_eq!(GorillaEncoder::new().range(0, u64::MAX).next(), None);
    }

    #[test]
    fn checkpoints_leave_the_stream_alone() {
        // Length and FNV-1a of this stream as the encoder wrote it before
        // it kept checkpoints, one bit per loop iteration: the table sits
        // beside the stream, and moving words changes no byte of it.
        const PINNED_LEN: usize = 296;
        const PINNED_FNV: u64 = 0x9f3a_46ee_97de_aa1b;
        let mut enc = GorillaEncoder::new();
        for i in 0..130u64 {
            enc.push(i * 1_000_000, (i % 7) as f64).unwrap();
        }
        assert_eq!(enc.checkpoints.len(), 2);
        assert_eq!(enc.compressed_bytes(), PINNED_LEN);
        assert_eq!(simclock::hash::fnv1a(enc.bits.as_bytes()), PINNED_FNV);
    }
}
