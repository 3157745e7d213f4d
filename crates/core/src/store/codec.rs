//! Bounds-checked little-endian encoding for journal payloads.
//!
//! Every decoder here returns [`StoreError::Corrupt`] instead of
//! panicking: recovered bytes are untrusted even after the frame CRC
//! passes (a version skew or a CRC collision must degrade to an error
//! the recovery path can report, never to an abort — the same hardening
//! rule `trace::json` follows for its parser).

use super::StoreError;

/// Append-only payload encoder.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over an untrusted payload; every read is bounds-checked.
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(StoreError::corrupt(format!(
                "payload truncated reading {what} at offset {}",
                self.pos
            ))),
        }
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Length-prefixed UTF-8 string (inverse of [`Enc::str`]).
    pub(crate) fn str(&mut self, what: &str) -> Result<String, StoreError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt(format!("{what} is not valid UTF-8")))
    }

    /// Whether every byte has been consumed — trailing garbage after a
    /// well-formed payload is corruption too.
    pub(crate) fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX);
        enc.str("panic@tagging");
        let bytes = enc.finish();

        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8("a").unwrap(), 7);
        assert_eq!(dec.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64("c").unwrap(), u64::MAX);
        assert_eq!(dec.str("d").unwrap(), "panic@tagging");
        assert!(dec.finished());
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut dec = Dec::new(&[1, 2]);
        assert!(dec.u64("number").is_err());
        // A length prefix pointing past the end must not panic either.
        let mut enc = Enc::new();
        enc.u32(1_000_000);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert!(dec.str("s").is_err());
    }

    #[test]
    fn invalid_utf8_is_corruption() {
        let mut enc = Enc::new();
        enc.u32(2);
        let mut bytes = enc.finish();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut dec = Dec::new(&bytes);
        assert!(matches!(dec.str("s"), Err(StoreError::Corrupt { .. })));
    }
}
