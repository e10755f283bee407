//! Offline stand-in for the subset of `bytes` 1.x this repository uses:
//! a cheaply cloneable [`Bytes`], an append-only [`BytesMut`], and the
//! little-endian accessors of [`Buf`] / [`BufMut`] the wire codec calls.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer; clones share one
/// allocation, and reading advances a cursor into it.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: Some(Arc::new(data)),
            start: 0,
            end,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into [`Bytes`] without copying.
#[derive(Clone, Default, Debug)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

macro_rules! buf_get_le {
    ($($name:ident -> $t:ty),*) => {$(
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// Read cursor over a byte buffer. Accessors panic when fewer bytes
/// remain than they need, as in the published crate; callers check
/// [`Buf::remaining`] first.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    buf_get_le!(
        get_u32_le -> u32, get_u64_le -> u64, get_i64_le -> i64, get_i128_le -> i128,
        get_f64_le -> f64
    );
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self[..dst.len()]);
        self.start += dst.len();
    }
}

macro_rules! buf_put_le {
    ($($name:ident <- $t:ty),*) => {$(
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append-only writer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    buf_put_le!(
        put_u32_le <- u32, put_u64_le <- u64, put_i64_le <- i64, put_i128_le <- i128,
        put_f64_le <- f64
    );
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_the_accessors() {
        let mut w = BytesMut::with_capacity(64);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_i128_le(-(1i128 << 100));
        w.put_f64_le(1.25);
        w.put_slice(b"tail");
        let frozen = w.freeze();
        let mut r = frozen.clone();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_i128_le(), -(1i128 << 100));
        assert_eq!(r.get_f64_le(), 1.25);
        assert_eq!(r.remaining(), 4);
        assert_eq!(&r[..], b"tail");
        assert_eq!(
            frozen.len(),
            1 + 4 + 16 + 8 + 4,
            "the clone's cursor is its own"
        );
        assert_eq!(Bytes::new().len(), 0);
        assert_eq!(Bytes::from_static(b"ab").to_vec(), b"ab");
    }
}
