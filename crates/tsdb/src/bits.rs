//! Bit-granular buffers for the compressed sample streams.
//!
//! [`BitWriter`] appends MSB-first into a `Vec<u8>`; with enough reserved
//! capacity a push touches no allocator, which is what lets the scrape
//! path promise zero transient allocations in steady state. [`BitReader`]
//! walks the same layout back out.

/// Append-only MSB-first bit buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Total bits written (the last byte may be partially filled).
    len_bits: usize,
}

impl BitWriter {
    /// Reserves room for at least `bytes` more bytes.
    pub fn reserve(&mut self, bytes: usize) {
        self.buf.reserve(bytes);
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let off = self.len_bits % 8;
        if off == 0 {
            self.buf.push(0);
        }
        if bit {
            let last = self.buf.len() - 1;
            self.buf[last] |= 0x80 >> off;
        }
        self.len_bits += 1;
    }

    /// Appends the low `n` bits of `value`, most significant first.
    /// `n` must be ≤ 64.
    #[inline]
    pub fn push_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64, "at most 64 bits per push");
        if n == 0 {
            return;
        }
        let value = if n < 64 {
            value & ((1 << n) - 1)
        } else {
            value
        };
        // Left-align the new bits behind the `off` bits already used in
        // the last byte: at most 7 + 64 bits, so a u128 holds them, and
        // its big-endian bytes are the stream's bytes.
        let off = (self.len_bits % 8) as u32;
        let used = off + n;
        let bytes = (u128::from(value) << (128 - used)).to_be_bytes();
        let whole = used.div_ceil(8) as usize;
        if off == 0 {
            self.buf.extend_from_slice(&bytes[..whole]);
        } else {
            let last = self.buf.len() - 1;
            self.buf[last] |= bytes[0];
            self.buf.extend_from_slice(&bytes[1..whole]);
        }
        self.len_bits += n as usize;
    }

    /// Bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Bytes occupied (the last may be partial).
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Bytes the backing store could hold without reallocating.
    #[cfg(test)]
    pub fn capacity_bytes(&self) -> usize {
        self.buf.capacity()
    }

    /// The packed bytes (final byte zero-padded on the right).
    #[cfg(test)]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// A reader positioned at the start of this writer's bits.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader {
            buf: &self.buf,
            pos: 0,
            len_bits: self.len_bits,
        }
    }
}

/// Sequential reader over a [`BitWriter`]'s packed bytes.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    len_bits: usize,
}

impl<'a> BitReader<'a> {
    /// A reader over `buf` holding `len_bits` valid bits.
    pub fn new(buf: &'a [u8], len_bits: usize) -> Self {
        debug_assert!(len_bits <= buf.len() * 8);
        BitReader {
            buf,
            pos: 0,
            len_bits,
        }
    }

    /// Bits remaining.
    fn remaining(&self) -> usize {
        self.len_bits - self.pos
    }

    /// Reads one bit; `None` past the end.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.len_bits {
            return None;
        }
        let byte = self.buf[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits MSB-first into the low bits of a `u64`; `None` if
    /// fewer than `n` remain.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 64);
        if self.remaining() < n as usize {
            return None;
        }
        if n == 0 {
            return Some(0);
        }
        // The bits sit in at most 9 bytes from `pos / 8` on; near the end
        // of the buffer the missing ones read as zero padding.
        let (byte, off) = (self.pos / 8, (self.pos % 8) as u32);
        let mut window = [0u8; 9];
        match self.buf.get(byte..byte + 9) {
            Some(nine) => window.copy_from_slice(nine),
            None => {
                let tail = &self.buf[byte..];
                window[..tail.len()].copy_from_slice(tail);
            }
        }
        let head = u64::from_be_bytes(window[..8].try_into().expect("eight bytes"));
        let aligned = (head << off) | (u64::from(window[8]) >> (8 - off));
        self.pos += n as usize;
        Some(aligned >> (64 - n))
    }

    /// Moves to bit `pos` from the start of the stream.
    ///
    /// # Panics
    ///
    /// Panics if `pos` lies past the last valid bit.
    pub fn seek(&mut self, pos: usize) {
        assert!(pos <= self.len_bits, "seek past the end of the stream");
        self.pos = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_mixed_widths() {
        let mut w = BitWriter::default();
        w.push_bit(true);
        w.push_bits(0b1011, 4);
        w.push_bits(u64::MAX, 64);
        w.push_bits(0, 7);
        w.push_bits(0x1234_5678_9abc_def0, 61);
        let mut r = w.reader();
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(7), Some(0));
        assert_eq!(
            r.read_bits(61),
            Some(0x1234_5678_9abc_def0 & ((1 << 61) - 1))
        );
        assert_eq!(r.read_bit(), None);
    }

    /// The one-bit-at-a-time forms are the obvious model of the layout;
    /// the word-wise ones must produce and read the same stream.
    #[test]
    fn word_moves_match_the_bit_at_a_time_model() {
        let mut rng = simclock::SeededRng::new(17);
        let fields: Vec<(u64, u32)> = (0..500)
            .map(|_| (rng.next_u64(), rng.next_bounded(65) as u32))
            .collect();
        let (mut words, mut model) = (BitWriter::default(), BitWriter::default());
        for &(value, n) in &fields {
            words.push_bits(value, n);
            for i in (0..n).rev() {
                model.push_bit((value >> i) & 1 == 1);
            }
        }
        assert_eq!(words, model);
        let (mut by_word, mut by_bit) = (words.reader(), words.reader());
        for &(value, n) in &fields {
            let want = if n < 64 {
                value & ((1 << n) - 1)
            } else {
                value
            };
            assert_eq!(by_word.read_bits(n), Some(want));
            let mut v = 0u64;
            for _ in 0..n {
                v = (v << 1) | u64::from(by_bit.read_bit().unwrap());
            }
            assert_eq!(v, want);
        }
        assert_eq!(by_word.remaining(), 0);
    }

    #[test]
    fn seek_repositions_the_reader() {
        let mut w = BitWriter::default();
        w.push_bits(0b101, 3);
        w.push_bits(0xdead_beef, 32);
        w.push_bits(0x1ff, 9);
        let mut r = w.reader();
        r.seek(35);
        assert_eq!(r.read_bits(9), Some(0x1ff));
        r.seek(3);
        assert_eq!(r.read_bits(32), Some(0xdead_beef));
        r.seek(44);
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn reserve_keeps_pushes_allocation_free() {
        let mut w = BitWriter::default();
        w.reserve(64);
        let cap = w.capacity_bytes();
        for i in 0..cap * 8 {
            w.push_bit(i % 3 == 0);
        }
        assert_eq!(w.capacity_bytes(), cap, "no growth within the reserve");
        assert_eq!(w.len_bytes(), cap);
    }

    #[test]
    fn read_past_end_is_none_not_garbage() {
        let mut w = BitWriter::default();
        w.push_bits(0b101, 3);
        let mut r = w.reader();
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(1), None);
        // The padded byte's remaining bits are not readable.
        assert_eq!(r.remaining(), 0);
    }
}
