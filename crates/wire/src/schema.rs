//! The wire schema: what a field type must say about itself, and the two
//! macros that turn a declaration into a codec.
//!
//! A SwiShmem message is declared once. [`wire_struct!`] passes a payload
//! struct through unchanged and derives its [`Wire`] impl from the field
//! list, in wire order; [`wire_table!`] takes one row per message — tag,
//! variant, payload type, traffic class — and generates the message enum
//! with its `encode` / `decode` / `wire_len` / `class`. Everything below
//! the macros is the leaf and container types that occur in a field list.
//!
//! Fields are fixed-width big-endian integers precisely so a PISA parser
//! could read them (*Paxos Made Switch-y*'s header is the model); a
//! message made only of such fields has one length, known at compile time
//! ([`Wire::LEN`]), and that is the length `wire_len` returns for it.

use crate::cursor::{Reader, Writer};
use crate::packet::DataPacket;
use crate::shared::Shared;
use crate::swish::TraceId;
use crate::{NodeId, WireError};

/// One field type of the wire schema: how it is written, read back and
/// sized.
pub(crate) trait Wire: Sized {
    /// `Some(n)` when every value encodes to exactly `n` bytes.
    const LEN: Option<usize>;

    /// Append the encoding to `w`.
    fn put(&self, w: &mut Writer);

    /// Decode one value, accepting only bytes [`Wire::put`] emits.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encoded length in bytes, without allocating. The default is for
    /// fixed-width types; a variable-length type that does not override it
    /// fails to compile. (Not `len`: a trait method of that name would win
    /// over the slice `len()` that [`Shared`] only has through `Deref`.)
    #[inline]
    fn wire_len(&self) -> usize {
        const { fixed::<Self>() }
    }
}

/// `LEN` of two adjacent fields: the sum, if both have one.
pub(crate) const fn add_len(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    }
}

/// The one encoded length of `T`. Fails to compile for a type that is
/// variable-length (or empty) on the wire.
pub(crate) const fn fixed<T: Wire>() -> usize {
    match T::LEN {
        Some(n) if n > 0 => n,
        _ => panic!("not a fixed-width wire type"),
    }
}

/// Declare payload structs whose field list, in wire order, is their
/// codec. The struct items pass through unchanged.
macro_rules! wire_struct {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty, )*
        }
    )*) => {$(
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::schema::Wire for $name {
            const LEN: Option<usize> = {
                let len = Some(0);
                $( let len = $crate::schema::add_len(len, <$ty as $crate::schema::Wire>::LEN); )*
                len
            };

            #[inline]
            fn put(&self, w: &mut Writer) {
                $( $crate::schema::Wire::put(&self.$field, w); )*
            }

            // `always`: as a hint it is declined inside the one large
            // `decode`, and an out-of-line `get` returns its struct through
            // memory to be copied into the enum (+25% on a chain write).
            #[inline(always)]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name {
                    $( $field: $crate::schema::Wire::get(r)?, )*
                })
            }

            #[inline]
            fn wire_len(&self) -> usize {
                match Self::LEN {
                    Some(n) => n,
                    None => 0 $( + $crate::schema::Wire::wire_len(&self.$field) )*,
                }
            }
        }
    )*};
}
pub(crate) use wire_struct;

/// Declare the message enum: one row per message, `tag Variant(Payload)
/// => TrafficClass`. The row is the only place a variant's tag, payload
/// and class are written down; a `Box<_>` payload is the control-plane-
/// only / out-of-line decision (see the `Box<T>` impl below).
macro_rules! wire_table {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $tag:literal $variant:ident($payload:ty) => $class:ident, )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant($payload), )*
        }

        // Size budget (DESIGN.md §3). Every event, effect, slab slot and
        // recorder entry moves a message by value, so the widest inline
        // payload is paid by every data-plane packet: a payload that
        // would not fit is boxed in its row instead of raising this.
        const _: () = {
            $( assert!(
                std::mem::size_of::<$payload>() <= 56,
                concat!(stringify!($variant), " outgrew the 56-byte payload budget: box it")
            ); )*
            assert!(std::mem::size_of::<$name>() <= 64, "the message enum outgrew 64 bytes");
        };

        impl $name {
            /// `(tag, variant name)` of every row, in table order.
            #[cfg(test)]
            const ROWS: &'static [(u8, &'static str)] = &[$(($tag, stringify!($variant))),*];

            /// Append the versioned message to `w`.
            pub fn encode(&self, w: &mut Writer) {
                w.u8(WIRE_VERSION);
                match self {
                    $( $name::$variant(m) => {
                        w.u8($tag);
                        $crate::schema::Wire::put(m, w);
                    } )*
                }
            }

            /// Decode a versioned message from `r`.
            #[deny(unreachable_patterns)] // a tag written on two rows
            pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let ver = r.u8()?;
                if ver != WIRE_VERSION {
                    return Err(WireError::VersionMismatch {
                        got: ver,
                        want: WIRE_VERSION,
                    });
                }
                Ok(match r.u8()? {
                    $( $tag => $name::$variant($crate::schema::Wire::get(r)?), )*
                    t => return Err(WireError::UnknownTag(t)),
                })
            }

            /// Encoded length in bytes, without allocating. A constant
            /// for every message made of fixed-width fields only.
            #[inline]
            pub fn wire_len(&self) -> usize {
                // version + tag
                2 + match self {
                    $( $name::$variant(m) => $crate::schema::Wire::wire_len(m), )*
                }
            }

            /// The traffic class this message's bytes are attributed to.
            #[inline]
            pub fn class(&self) -> TrafficClass {
                match self {
                    $( $name::$variant(_) => TrafficClass::$class, )*
                }
            }
        }
    };
}
pub(crate) use wire_table;

/// The leaf field types: one fixed width, written and read straight on
/// the cursor.
macro_rules! wire_leaf {
    ($($ty:ty = $len:literal: |$w:ident, $v:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Wire for $ty {
            const LEN: Option<usize> = Some($len);
            #[inline]
            fn put(&self, $w: &mut Writer) {
                let $v = *self;
                $put
            }
            #[inline]
            fn get($r: &mut Reader<'_>) -> Result<Self, WireError> {
                $get
            }
        }
    )*};
}
wire_leaf! {
    u8 = 1: |w, v| w.u8(v), |r| r.u8();
    u16 = 2: |w, v| w.u16(v), |r| r.u16();
    u32 = 4: |w, v| w.u32(v), |r| r.u32();
    u64 = 8: |w, v| w.u64(v), |r| r.u64();
    i64 = 8: |w, v| w.i64(v), |r| r.i64();
    NodeId = 2: |w, v| w.u16(v.0), |r| r.u16().map(NodeId);
    TraceId = 8: |w, v| w.u64(v.0), |r| r.u64().map(TraceId);
    bool = 1: |w, v| w.u8(v as u8), |r| match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(WireError::InvalidField { field: "bool", value: u64::from(v) }),
    };
}

/// A presence byte (a [`bool`], as strict), then the value if present.
impl<T: Wire> Wire for Option<T> {
    const LEN: Option<usize> = None;
    fn put(&self, w: &mut Writer) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::wire_len)
    }
}

fn put_counted<T: Wire>(items: &[T], w: &mut Writer) {
    w.u16(items.len() as u16);
    for v in items {
        v.put(w);
    }
}

/// A `u16` count, then the items.
impl<T: Wire> Wire for Vec<T> {
    const LEN: Option<usize> = None;
    fn put(&self, w: &mut Writer) {
        put_counted(self, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.u16()? as usize;
        // The claimed count is not trusted with more than this up front.
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
    fn wire_len(&self) -> usize {
        2 + self.iter().map(T::wire_len).sum::<usize>()
    }
}

/// A `u16` count, then that many fixed-width entries: the zero-copy batch
/// of the data-plane messages.
impl<T: Wire> Wire for Shared<T> {
    const LEN: Option<usize> = None;
    #[inline]
    fn put(&self, w: &mut Writer) {
        put_counted(self, w);
    }
    /// Decodes straight into the batch. The claimed count is checked
    /// against the buffer before anything is allocated, and the chunk
    /// iterator has a trusted length, so a one-entry batch allocates
    /// nothing and a longer one is the one allocation.
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = const { fixed::<T>() };
        let n = r.u16()? as usize;
        let entries = r.bytes(n * len)?.chunks_exact(len);
        Ok(entries
            .map(|e| {
                T::get(&mut Reader::new(e))
                    .expect("an entry is plain integers: its chunk holds all of them")
            })
            .collect())
    }
    #[inline]
    fn wire_len(&self) -> usize {
        2 + self.len() * const { fixed::<T>() }
    }
}

/// Boxed ⇒ control-plane only ⇒ length out of line. `SwishMsg::wire_len`
/// is inlined into the per-hop paths of the simulator; a boxed payload is
/// never on them, and pulling its (nested-vector) length walk into that
/// match cost `fault_sweep` a measured 10% of `pkts_per_s`.
impl<T: Wire> Wire for Box<T> {
    const LEN: Option<usize> = T::LEN;
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::get(r).map(Box::new)
    }
    #[inline(never)]
    fn wire_len(&self) -> usize {
        (**self).wire_len()
    }
}

/// The tunneled packet of a `ReadForward`: IPv4 + L4 with their own
/// checksums and validation, a format of its own rather than a field list.
impl Wire for DataPacket {
    const LEN: Option<usize> = None;
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.encode(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        DataPacket::decode(r)
    }
    #[inline]
    fn wire_len(&self) -> usize {
        DataPacket::wire_len(self)
    }
}
